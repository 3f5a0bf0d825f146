package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/nrp-embed/nrp"
)

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
}

// runResult is what a workload hands back to main.
type runResult struct {
	attempted, failed int
	problems          []string // reasons the run is incorrect beyond failed operations
	m                 measured
}

func (r *runResult) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

func (r *runResult) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// setupReps is how often a run sets up: setup_s and build_s are the median.
const setupReps = 3

// phase lengths as shares of -seconds. The closed loop is `nproc` callers
// sending single-source queries back to back (topk_qps); the open loop is
// a Poisson schedule at the workload's fixed rate r2, cut into
// openWindows windows whose per-window quantiles are then medianed. With
// nine windows (a second each at -seconds 15) the median shrugs off the
// windows a burst of batches or a long refresh fell into: on latencies
// recorded over seeds 1-10 the p99 moved no more from run to run than with
// three windows or one pooled sample on any workload, and half as much
// under live_mixed's writers.
const (
	warmShare   = 0.1
	closedShare = 0.3
	openShare   = 0.6
	openWindows = 9
)

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// traffic is a workload's request stream: who is asked, how often, for what.
type traffic struct {
	zipf         bool          // Zipf(1.2) sources over the pool instead of uniform
	r1, r2       float64       // open-loop rates in requests/s; the end-to-end latencies are taken at r2
	mix          mix           // shares of the request classes in the open loop
	refreshEvery time.Duration // when positive, one POST /v1/refresh per period on top of the mix
	heavy        opKind        // the class behind heavy_p50_ms
	// tailReadsAlone takes topk_p99_ms from the closed loop instead of the
	// open loop; see liveTraffic for why live_mixed needs it.
	tailReadsAlone bool
	slo            sloLimits // latency limits behind client.slo_miss_ratio
}

// staticSpec tells the two static serving workloads apart.
type staticSpec struct {
	fleet     bool
	estimator string // how the fixture is embedded
	backend   string // what `nrp index` builds
	traffic
}

var (
	// serve_scan: 90 % GET topk, 5 % POST batches of 32, 5 % POST score.
	// At 300/s the server is about half busy (a batch is 27 ms of CPU); at
	// 400/s a cluster of batches overloads it for seconds at a time.
	serveScanSpec = staticSpec{estimator: "push", backend: "exact", traffic: traffic{r1: 100, r2: 300,
		mix: mix{opTopK: 0.90, opBatch: 0.05, opScore: 0.05}, heavy: opBatch,
		slo: sloLimits{topk: 10 * time.Millisecond}}}
	// serve_fleet: 90 % GET topk, 10 % POST batches of 32, through the router.
	serveFleetSpec = staticSpec{fleet: true, estimator: "fora", backend: "pruned", traffic: traffic{zipf: true, r1: 300, r2: 600,
		mix: mix{opTopK: 0.90, opBatch: 0.10}, heavy: opBatch,
		slo: sloLimits{topk: 10 * time.Millisecond}}}
)

// fixture is a set-up serving stack: the files on disk, the ground truth,
// and the started servers answering on base.
type fixture struct {
	n         int
	emb       *nrp.Embedding
	pool      []int32
	chk       checker
	servers   []*server
	base      string
	router    *server // nil unless a fleet
	indexPath string
	graphPath string
	buildS    float64 // shipped-binary wall from the on-disk graph to the first verified answer
	bootS     float64
}

func (f *fixture) stop() {
	for i := len(f.servers) - 1; i >= 0; i-- {
		f.servers[i].stop()
	}
}

// gen returns a request generator over the fixture with its own seeded
// stream, so each phase's inputs depend on the seed and not on the order
// phases run in.
func (f *fixture) gen(seed int64, zipf bool) *reqGen {
	rng := rand.New(rand.NewSource(seed))
	pick := uniformPicker(rng, len(f.pool))
	if zipf {
		pick = zipfPicker(rng, len(f.pool))
	}
	return &reqGen{n: f.n, pool: f.pool, rng: rng, pick: pick}
}

func loadEmbedding(path string) (*nrp.Embedding, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return nrp.LoadEmbedding(f)
}

// openIndex loads an index snapshot the way nrpserve -index does.
func openIndex(path string, opts ...nrp.IndexOption) (nrp.Searcher, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return nrp.LoadIndex(f, opts...)
}

// bootStatic starts the serving stack over an index snapshot and waits for
// its first verified answer. It returns the servers started even on error,
// so the caller can stop them.
func (e *env) bootStatic(lc *loadClient, fx *fixture, fleet bool) error {
	begin := time.Now()
	if !fleet {
		s, err := e.serve(lc.hc, "nrpserve", "-index", fx.indexPath, "-shards", strconv.Itoa(e.threads))
		if err != nil {
			return err
		}
		fx.servers, fx.base = append(fx.servers, s), s.base
	} else {
		var urls []string
		for i := 0; i < 2; i++ {
			s, err := e.serve(lc.hc, "nrpserve", "-index", fx.indexPath,
				"-shard", fmt.Sprintf("%d/2", i), "-shards", "1")
			if err != nil {
				return err
			}
			fx.servers = append(fx.servers, s)
			urls = append(urls, s.base)
		}
		rt, err := e.serve(lc.hc, "nrprouter", "-shards", strings.Join(urls, ","))
		if err != nil {
			return err
		}
		fx.servers, fx.base, fx.router = append(fx.servers, rt), rt.base, rt
	}
	lc.base = fx.base
	first := fx.gen(0, false).topk()
	if _, ok := lc.do(&first, new(bytes.Buffer)); !ok {
		return fmt.Errorf("first answer from %s was wrong: %v", fx.base, lc.firstErr)
	}
	fx.bootS = time.Since(begin).Seconds()
	return nil
}

// setupStatic generates the graph from the seed, embeds and indexes it
// with the shipped binaries, brute-forces the ground truth from the
// embedding file and boots the serving stack.
func (e *env) setupStatic(cfg runConfig, spec staticSpec, lc *loadClient) (*fixture, error) {
	g, err := genGraph(cfg.sc.serveN, cfg.sc.serveM, false, cfg.seed)
	if err != nil {
		return nil, err
	}
	graphPath, embPath := e.path("g.nrpg"), e.path("emb.bin")
	fx := &fixture{n: g.N, indexPath: e.path("index.bin")}
	if err := nrp.SaveGraph(graphPath, g); err != nil {
		return nil, err
	}
	threads := strconv.Itoa(e.threads)
	embedWall, err := e.run("nrp", "-input", graphPath, "-output", embPath, "-k", "32",
		"-seed", strconv.FormatInt(cfg.seed, 10), "-threads", threads, "-estimator", spec.estimator)
	if err != nil {
		return nil, err
	}
	indexWall, err := e.run("nrp", "index", "-embedding", embPath, "-output", fx.indexPath,
		"-backend", spec.backend, "-threads", threads)
	if err != nil {
		return nil, err
	}
	if fx.emb, err = loadEmbedding(embPath); err != nil {
		return nil, err
	}
	fx.pool = genPool(g.N, cfg.sc.pool, cfg.seed+1)
	fx.chk = &exactChecker{emb: fx.emb, pool: fx.pool, truth: bruteTopK(fx.emb, fx.pool, topK, e.nproc)}
	lc.chk = fx.chk
	if err := e.bootStatic(lc, fx, spec.fleet); err != nil {
		fx.stop()
		return nil, err
	}
	fx.buildS = embedWall.Seconds() + indexWall.Seconds() + fx.bootS
	return fx, nil
}

// repeatSetup sets up setupReps times, keeps the last stack running, and
// records the medians of the set-up time and of the build time. Each
// repetition is one epoch of peak_rss_mb; the last one stays open until
// closePeak.
func (e *env) repeatSetup(res *runResult, setup func() (*fixture, error)) (fx *fixture, err error) {
	var setups, builds []float64
	for i := 0; i < setupReps; i++ {
		if fx != nil {
			fx.stop()
			e.endEpoch()
		}
		begin := time.Now()
		if fx, err = setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
		builds = append(builds, fx.buildS)
	}
	res.m["setup_s"], res.m["build_s"] = median(setups), median(builds)
	return fx, nil
}

// routerCounters are the fleet's failure paths; any of them firing voids
// the run, because latencies then measure retries and partial answers.
var routerCounters = map[string]string{
	"router.hedges":       "nrp_router_hedged_requests_total",
	"router.shard_errors": "nrp_router_shard_errors_total",
	"router.partial":      "nrp_router_partial_responses_total",
}

func checkRouterCounters(lc *loadClient, fx *fixture, res *runResult, into measured) error {
	names := make([]string, 0, len(routerCounters))
	for _, prom := range routerCounters {
		names = append(names, prom)
	}
	got, err := scrape(lc.hc, fx.router.base, names...)
	if err != nil {
		return err
	}
	for metric, prom := range routerCounters {
		if into != nil {
			into[metric] = got[prom]
		}
		if got[prom] != 0 {
			res.problem("%s = %v, expected 0: the run is void", metric, got[prom])
		}
	}
	return nil
}

// servePhases is the measured part every workload ends with: warm-up,
// closed loop, open loop at the fixed rate r2, together `seconds` long. It
// fills the four serving metrics.
func servePhases(e *env, cfg runConfig, lc *loadClient, fx *fixture, tr traffic, seconds float64, res *runResult) {
	topks := genTopKs(fx.gen(cfg.seed+2, tr.zipf), 4096)
	lat, failed, _ := lc.closedLoop(topks, e.nproc, secs(warmShare*seconds))
	res.count(len(lat), failed)
	lat, failed, elapsed := lc.closedLoop(topks, e.nproc, secs(closedShare*seconds))
	res.count(len(lat), failed)
	res.m["topk_qps"] = float64(len(lat)) / elapsed.Seconds()

	open := secs(openShare * seconds)
	sched := genSchedule(fx.gen(cfg.seed+3, tr.zipf), tr.r2, open, tr.mix, tr.refreshEvery)
	ps := reduce(sched, lc.openLoop(sched, e.nproc), open/openWindows, openWindows, tr.slo)
	res.count(ps.attempted, ps.failed)
	res.m["topk_p50_ms"] = ps.p(opTopK, 0.5)
	res.m["topk_p99_ms"] = ps.p(opTopK, 0.99)
	if tr.tailReadsAlone {
		res.m["topk_p99_ms"] = quantile(lat, 0.99)
	}
	res.m["heavy_p50_ms"] = ps.p(tr.heavy, 0.5)
}

func runStatic(e *env, cfg runConfig, spec staticSpec) (*runResult, error) {
	res := &runResult{m: measured{}}
	lc := &loadClient{hc: newHTTPClient(e.nproc)}
	setup := func() (*fixture, error) { return e.setupStatic(cfg, spec, lc) }
	if cfg.trace {
		fx, err := setup()
		if err != nil {
			return nil, err
		}
		return res, traceStatic(e, cfg, spec, lc, fx, res)
	}
	fx, err := e.repeatSetup(res, setup)
	if err != nil {
		return nil, err
	}
	defer fx.stop()
	servePhases(e, cfg, lc, fx, spec.traffic, cfg.seconds, res)
	if spec.fleet {
		if err := checkRouterCounters(lc, fx, res, nil); err != nil {
			return nil, err
		}
	}
	fx.stop()
	res.m["peak_rss_mb"] = e.closePeak()
	return res, nil
}

// clientPhases is the traced run's short pass against the real binaries:
// an open loop at r1 (service time without queueing, the additivity
// check's reference) and one at r2 (limit misses and generator lateness).
func clientPhases(e *env, cfg runConfig, lc *loadClient, fx *fixture, tr traffic, res *runResult) (r2Stats phaseStats) {
	topks := genTopKs(fx.gen(cfg.seed+2, tr.zipf), 4096)
	lat, failed, _ := lc.closedLoop(topks, e.nproc, secs(warmShare*cfg.seconds))
	res.count(len(lat), failed)

	dur := secs(0.25 * cfg.seconds)
	sched := genSchedule(fx.gen(cfg.seed+4, tr.zipf), tr.r1, dur, tr.mix, tr.refreshEvery)
	ps := reduce(sched, lc.openLoop(sched, e.nproc), dur, 1, tr.slo)
	res.count(ps.attempted, ps.failed)
	res.m["client.topk_p50_ms_r1"] = ps.p(opTopK, 0.5)

	sched = genSchedule(fx.gen(cfg.seed+3, tr.zipf), tr.r2, dur, tr.mix, tr.refreshEvery)
	ps = reduce(sched, lc.openLoop(sched, e.nproc), dur, 1, tr.slo)
	res.count(ps.attempted, ps.failed)
	res.m["client.slo_miss_ratio"] = ps.sloMissRatio()
	res.m["client.gen_lag_p99_ms"] = quantile(ps.lagMs, 0.99)
	return ps
}
