package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"github.com/nrp-embed/nrp"
)

// scale fixes the input sizes. The sizes are chosen so that one run,
// including three set-ups, ends in about 25 s on the 2-core reference box:
// the contract caps all 92 runs of the driver at 3420 s.
type scale struct {
	buildN, buildM int // held-out SBM the build workload embeds at k=64
	serveN, serveM int // SBM the two static serving workloads embed at k=32
	liveN, liveM   int // directed SBM the live workload boots from
	pool           int // query-source pool with brute-forced ground truth
	// aucFloor is, per estimator, the held-out link-prediction AUC an
	// embedding of the build graph must reach: an embedding below it is a
	// wrong answer, not a slow one. It belongs to the graph's size.
	aucFloor map[string]float64
}

var fullScale = scale{
	buildN: 20000, buildM: 100000,
	serveN: 50000, serveM: 250000,
	liveN: 20000, liveM: 100000,
	pool: 2048,
	// What each estimator reached at this commit, minus 0.02 (lowest of
	// seeds 1-10: push 0.818, fora 0.808).
	aucFloor: map[string]float64{"push": 0.798, "fora": 0.788},
}

const (
	topK        = 10 // k of every top-k and ppr query
	batchSize   = 32 // sources per POST /v1/topk
	scorePairs  = 16 // pairs per POST /v1/score
	updateEdges = 8  // inserted edges per POST /v1/update
	communities = 20
	chungLuSkew = 0.6
	holdOut     = 0.3 // share of edges the build workload holds out (paper §5.2)
)

// genGraph is the one generator behind every workload: a Chung–Lu
// degree-skewed stochastic block model, fully determined by its arguments.
func genGraph(n, m int, directed bool, seed int64) (*nrp.Graph, error) {
	return nrp.GenSBM(nrp.SBMConfig{
		N: n, M: m, Communities: communities, Directed: directed,
		Skew: chungLuSkew, Seed: seed,
	})
}

// genPool draws size distinct query sources from [0, n).
func genPool(n, size int, seed int64) []int32 {
	if size > n {
		size = n
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)[:size]
	pool := make([]int32, size)
	for i, v := range perm {
		pool[i] = int32(v)
	}
	return pool
}

// opKind names a request class; latencies are kept per class.
type opKind uint8

const (
	opTopK opKind = iota
	opBatch
	opScore
	opPPR
	opUpdate
	opRefresh
	numOps
)

func (k opKind) String() string {
	return [...]string{"topk", "batch32", "score", "ppr", "update", "refresh"}[k]
}

// request is one pre-generated operation: when it is due, what goes on the
// wire, and what the verifier needs to check the answer.
type request struct {
	Due    time.Duration // offset from the phase start (open loop only)
	Kind   opKind
	Method string
	Path   string
	Body   []byte
	Srcs   []int32    // query sources: pool indices (topk, batch32) or node ids (ppr)
	Pairs  [][2]int32 // scored pairs or inserted edges
}

// mix gives each request class its share of an open-loop schedule.
type mix [numOps]float64

// sourcePicker returns a pool index.
type sourcePicker func() int

func uniformPicker(rng *rand.Rand, pool int) sourcePicker {
	return func() int { return rng.Intn(pool) }
}

// zipfPicker skews sources toward the head of the pool (s = 1.2).
func zipfPicker(rng *rand.Rand, pool int) sourcePicker {
	z := rand.NewZipf(rng, 1.2, 1, uint64(pool-1))
	return func() int { return int(z.Uint64()) }
}

// reqGen renders request bodies for one graph and pool.
type reqGen struct {
	n    int
	pool []int32
	rng  *rand.Rand
	pick sourcePicker
}

func (g *reqGen) topk() request {
	i := g.pick()
	return request{Kind: opTopK, Method: "GET", Srcs: []int32{int32(i)},
		Path: "/v1/topk?u=" + strconv.Itoa(int(g.pool[i])) + "&k=" + strconv.Itoa(topK)}
}

func (g *reqGen) batch() request {
	srcs := make([]int32, batchSize)
	var b bytes.Buffer
	b.WriteString(`{"us":[`)
	for j := range srcs {
		i := g.pick()
		srcs[j] = int32(i)
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(g.pool[i])))
	}
	fmt.Fprintf(&b, `],"k":%d}`, topK)
	return request{Kind: opBatch, Method: "POST", Path: "/v1/topk", Body: b.Bytes(), Srcs: srcs}
}

func (g *reqGen) pairsBody(kind opKind, path, field string, count int, fromPool bool) request {
	pairs := make([][2]int32, count)
	var b bytes.Buffer
	b.WriteString(`{"` + field + `":[`)
	for j := range pairs {
		u := int32(g.rng.Intn(g.n))
		if fromPool {
			u = g.pool[g.rng.Intn(len(g.pool))]
		}
		v := int32(g.rng.Intn(g.n))
		for v == u {
			v = int32(g.rng.Intn(g.n))
		}
		pairs[j] = [2]int32{u, v}
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", u, v)
	}
	b.WriteString("]}")
	return request{Kind: kind, Method: "POST", Path: path, Body: b.Bytes(), Pairs: pairs}
}

func (g *reqGen) score() request {
	return g.pairsBody(opScore, "/v1/score", "pairs", scorePairs, true)
}

func (g *reqGen) update() request {
	return g.pairsBody(opUpdate, "/v1/update", "insert", updateEdges, false)
}

func (g *reqGen) ppr() request {
	seed := g.pool[g.pick()]
	body := fmt.Sprintf(`{"seeds":[%d],"k":%d}`, seed, topK)
	return request{Kind: opPPR, Method: "POST", Path: "/v1/ppr", Body: []byte(body), Srcs: []int32{seed}}
}

func refreshRequest(due time.Duration) request {
	return request{Due: due, Kind: opRefresh, Method: "POST", Path: "/v1/refresh", Body: []byte("{}")}
}

func (g *reqGen) of(kind opKind) request {
	switch kind {
	case opBatch:
		return g.batch()
	case opScore:
		return g.score()
	case opPPR:
		return g.ppr()
	case opUpdate:
		return g.update()
	default:
		return g.topk()
	}
}

// genSchedule pre-generates an open-loop phase: Poisson arrivals at rate
// requests/s for dur, each request's class drawn from mx. refreshEvery > 0
// adds one POST /v1/refresh per period, half a period in. Everything is a
// function of the generator's seeded stream, so the same seed gives a
// byte-identical schedule.
func genSchedule(g *reqGen, rate float64, dur time.Duration, mx mix, refreshEvery time.Duration) []request {
	total := 0.0
	for _, w := range mx {
		total += w
	}
	var reqs []request
	for t := g.rng.ExpFloat64() / rate; t < dur.Seconds(); t += g.rng.ExpFloat64() / rate {
		x, kind := g.rng.Float64()*total, opTopK
		for k, w := range mx {
			if x < w {
				kind = opKind(k)
				break
			}
			x -= w
		}
		r := g.of(kind)
		r.Due = time.Duration(t * float64(time.Second))
		reqs = append(reqs, r)
	}
	if refreshEvery > 0 {
		for t := refreshEvery / 2; t < dur; t += refreshEvery {
			reqs = append(reqs, refreshRequest(t))
		}
		sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Due < reqs[j].Due })
	}
	return reqs
}

// genTopKs pre-generates the closed loop's single-source queries.
func genTopKs(g *reqGen, count int) []request {
	reqs := make([]request, count)
	for i := range reqs {
		reqs[i] = g.topk()
	}
	return reqs
}

// scheduleBytes flattens a schedule to the bytes that define it, for the
// same-seed-same-inputs test.
func scheduleBytes(reqs []request) []byte {
	var b bytes.Buffer
	for _, r := range reqs {
		_ = binary.Write(&b, binary.LittleEndian, int64(r.Due)) // bytes.Buffer writes cannot fail
		b.WriteByte(byte(r.Kind))
		b.WriteString(r.Method + " " + r.Path + "\n")
		b.Write(r.Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}
