package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"github.com/nrp-embed/nrp"
	"github.com/nrp-embed/nrp/internal/ppr"
	"github.com/nrp-embed/nrp/internal/serve"
)

// live_mixed: 400 requests/s of 80 % topk, 10 % score, 5 % ppr (1 seed,
// k=10) and 5 % update (8 inserted edges), plus one refresh per second, on
// a directed graph the server embeds at boot.
const (
	liveDim      = 32
	livePPRWalks = 16
)

// The mixed open loop has one rate, so r1 = r2; the closed loop before it
// is the reads-alone reference.
//
// topk_p99_ms comes from that closed loop. Under the writers every read
// percentile from p90 up is set by collisions with a PPR query or a
// refresh, and in about one run in six the server runs them 25 % slower for
// the whole run (same seed, same work counters; nothing the harness can
// see sets it off), which doubles the read tail: over 46 runs the p99
// under writes was 3.0-3.9 ms or 4.8-7.4 ms and little in between. Three
// such runs in ten put the quartile distance above any bound the contract
// allows, so the tail under writes is reported per layer
// (client.topk_p99_ms_mixed) and the end-to-end gates on live_mixed are
// the median under writes, the PPR median and the reads-alone tail.
var liveTraffic = traffic{r1: 400, r2: 400,
	mix:          mix{opTopK: 0.80, opScore: 0.10, opPPR: 0.05, opUpdate: 0.05},
	refreshEvery: time.Second, heavy: opPPR, tailReadsAlone: true,
	slo: sloLimits{topk: 25 * time.Millisecond, ppr: 100 * time.Millisecond}}

// livePool draws query sources that have at least one out-edge: on a
// directed graph a PPR query from a sink has a single candidate.
func livePool(g *nrp.Graph, size int, seed int64) []int32 {
	var pool []int32
	for _, v := range rand.New(rand.NewSource(seed)).Perm(g.N) {
		if g.OutDeg(v) > 0 {
			pool = append(pool, int32(v))
			if len(pool) == size {
				break
			}
		}
	}
	return pool
}

func (e *env) setupLive(cfg runConfig, lc *loadClient) (*fixture, error) {
	g, err := genGraph(cfg.sc.liveN, cfg.sc.liveM, true, cfg.seed)
	if err != nil {
		return nil, err
	}
	fx := &fixture{n: g.N, graphPath: e.path("g.nrpg"), pool: livePool(g, cfg.sc.pool, cfg.seed+1)}
	if err := nrp.SaveGraph(fx.graphPath, g); err != nil {
		return nil, err
	}
	fx.chk = &shapeChecker{n: g.N, pool: fx.pool}
	lc.chk = fx.chk
	threads := strconv.Itoa(e.threads)
	begin := time.Now()
	s, err := e.serve(lc.hc, "nrpserve", "-graph", fx.graphPath, "-directed", "-dim", strconv.Itoa(liveDim),
		"-seed", strconv.FormatInt(cfg.seed, 10), "-backend", "pruned", "-ppr-walks", strconv.Itoa(livePPRWalks),
		"-refresh-policy", "incremental", "-threads", threads, "-shards", threads)
	if err != nil {
		return nil, err
	}
	fx.servers, fx.base, lc.base = []*server{s}, s.base, s.base
	first := fx.gen(0, false).topk()
	if _, ok := lc.do(&first, new(bytes.Buffer)); !ok {
		fx.stop()
		return nil, fmt.Errorf("first answer from %s was wrong: %v", fx.base, lc.firstErr)
	}
	fx.buildS = time.Since(begin).Seconds()
	return fx, nil
}

func runLive(e *env, cfg runConfig) (*runResult, error) {
	res := &runResult{m: measured{}}
	lc := &loadClient{hc: newHTTPClient(e.nproc)}
	setup := func() (*fixture, error) { return e.setupLive(cfg, lc) }
	if cfg.trace {
		fx, err := setup()
		if err != nil {
			return nil, err
		}
		return res, traceLive(e, cfg, lc, fx, res)
	}
	fx, err := e.repeatSetup(res, setup)
	if err != nil {
		return nil, err
	}
	defer fx.stop()
	servePhases(e, cfg, lc, fx, liveTraffic, cfg.seconds, res)
	fx.stop()
	res.m["peak_rss_mb"] = e.closePeak()
	return res, nil
}

// serveRecorded serves one request straight into a recorder and returns
// the handler's wall time.
func serveRecorded(h http.Handler, r *request) (time.Duration, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(r.Method, r.Path, bytes.NewReader(r.Body))
	rr := httptest.NewRecorder()
	begin := time.Now()
	h.ServeHTTP(rr, req)
	return time.Since(begin), rr
}

func toUpdates(pairs [][2]int32) []nrp.EdgeUpdate {
	ups := make([]nrp.EdgeUpdate, len(pairs))
	for i, p := range pairs {
		ups[i] = nrp.EdgeUpdate{U: p[0], V: p[1], Op: nrp.UpdateInsert}
	}
	return ups
}

const (
	livePPRProbes   = 64
	livePPRChecked  = 8  // queries compared with power iteration
	liveRounds      = 3  // apply-then-refresh rounds
	liveRoundUpdate = 20 // update batches per round: one second of the workload's writes
)

// traceLive produces live_mixed's per-layer metrics.
func traceLive(e *env, cfg runConfig, lc *loadClient, fx *fixture, res *runResult) error {
	defer fx.stop()
	ps := clientPhases(e, cfg, lc, fx, liveTraffic, res)
	res.m["client.topk_p99_ms_mixed"] = ps.p(opTopK, 0.99)
	res.m["client.ppr_p50_ms"] = ps.p(opPPR, 0.5)
	res.m["client.update_p50_ms"] = ps.p(opUpdate, 0.5)
	res.m["client.refresh_p50_ms"] = ps.p(opRefresh, 0.5)
	got, err := scrape(lc.hc, fx.base, "nrp_index_swaps_total")
	if err != nil {
		return err
	}
	res.m["live.swaps"] = got["nrp_index_swaps_total"]
	res.m["live.pending_max"] = float64(fx.chk.(*shapeChecker).pendingMax.Load())
	fx.stop()

	// The same stack in-process, built the way nrpserve -graph builds it.
	ctx, rec := context.Background(), e.rec
	g, closer, err := nrp.LoadGraphMmap(fx.graphPath)
	if err != nil {
		return err
	}
	defer closer.Close()
	opt := nrp.DefaultOptions()
	opt.Dim, opt.Seed = liveDim, cfg.seed
	threads := nrp.WithThreads(e.threads)
	idxOpts := []nrp.IndexOption{nrp.WithBackend(nrp.BackendPruned), nrp.WithShards(e.threads), threads}
	newEngine := func(policy nrp.RefreshPolicy) (dyn *nrp.DynamicEmbedding, wall time.Duration, err error) {
		wall, err = rec.time("dynamic.boot_embed."+policy.String(), 0, 0, func() (err error) {
			dyn, err = nrp.NewDynamicEmbedding(ctx, g, opt, nrp.DynamicConfig{Policy: policy}, threads)
			return err
		})
		return dyn, wall, err
	}
	dyn, wall, err := newEngine(nrp.RefreshIncremental)
	if err != nil {
		return err
	}
	res.m["dynamic.boot_embed_s"] = wall.Seconds()
	li, err := nrp.NewLiveIndex(dyn, idxOpts...)
	if err != nil {
		return err
	}
	wall, err = rec.time("index.rebuild.pruned", 0, 0, func() error {
		_, err := nrp.BuildIndex(dyn.Embedding(), idxOpts...)
		return err
	})
	if err != nil {
		return err
	}
	res.m["index.rebuild_ms.pruned"] = millis(wall)
	var wi *nrp.WalkIndex
	wall, err = rec.time("fora.walkindex_build", 0, 0, func() (err error) {
		wi, err = nrp.BuildWalkIndex(ctx, g, livePPRWalks, threads)
		return err
	})
	if err != nil {
		return err
	}
	res.m["fora.walkindex_build_s"] = wall.Seconds()
	eng, err := nrp.NewPPREngine(g, threads, nrp.WithWalkIndex(wi))
	if err != nil {
		return err
	}
	eng.Index().EnableMaintenance()
	dyn.SetWalkInvalidator(eng.Index())
	h := serve.NewLiveServer(li, serve.Config{Backend: "pruned", PPR: eng, Logger: quietLogger()}).Handler()

	// PPR: the same queries straight at the engine and through the handler.
	gen := fx.gen(cfg.seed+5, false)
	var queryMs, pushMs, walkMs, walks, handlerMs, overheadUs []float64
	usedIndex, maxRelErr, checked := 0, 0.0, 0
	for i := 0; i < livePPRProbes; i++ {
		r := gen.ppr()
		seed := int(r.Srcs[0])
		begin := time.Now()
		out, err := eng.PPR(ctx, []int{seed}, topK)
		direct := time.Since(begin)
		if err != nil {
			return err
		}
		queryMs = append(queryMs, millis(direct))
		pushMs = append(pushMs, millis(out.Stats.PushTime))
		walkMs = append(walkMs, millis(out.Stats.WalkTime))
		walks = append(walks, float64(out.Stats.Walks))
		if out.Stats.UsedIndex {
			usedIndex++
		}
		if i < livePPRChecked {
			const alpha = 0.15 // the engine's default; 100 iterations leave (1-alpha)^100 < 1e-7
			truth, err := ppr.MultiSource(g, []int32{int32(seed)}, alpha, 100)
			if err != nil {
				return err
			}
			for _, s := range out.Scores {
				if t := truth[s.Node]; t >= 1/float64(g.N) { // the (epsilon, delta) guarantee covers pi >= delta = 1/n
					maxRelErr = math.Max(maxRelErr, math.Abs(s.Score-t)/t)
					checked++
				}
			}
		}
		viaHandler, rr := serveRecorded(h, &r)
		ok := fx.chk.check(&r, rr.Code, rr.Body.Bytes()) == nil
		res.count(1, b2i(!ok))
		handlerMs = append(handlerMs, millis(viaHandler))
		overheadUs = append(overheadUs, micros(viaHandler-direct))
	}
	res.m["fora.query_ms"] = median(queryMs)
	res.m["fora.push_ms"] = median(pushMs)
	res.m["fora.walk_ms"] = median(walkMs)
	res.m["fora.walks"] = medianCount(walks)
	res.m["fora.index_used_share"] = float64(usedIndex) / livePPRProbes
	res.m["fora.max_rel_err"] = maxRelErr
	res.m["serve.handler_ms.ppr"] = median(handlerMs)
	res.m["serve.overhead_us.ppr"] = median(overheadUs)
	if checked == 0 || maxRelErr > 0.5 {
		res.problem("ppr max relative error %v over %d guaranteed scores exceeds epsilon 0.5", maxRelErr, checked)
	}

	// Writes: update batches through the handler and straight at the live
	// index, then a refresh; a second engine under the full policy takes
	// the same edges for the incremental-versus-full comparison.
	full, _, err := newEngine(nrp.RefreshFull)
	if err != nil {
		return err
	}
	var handlerUs, applyUs, refreshMs, touched, fullS []float64
	for round := 0; round < liveRounds; round++ {
		for i := 0; i < liveRoundUpdate; i++ {
			r := gen.update()
			if i%2 == 0 {
				d, rr := serveRecorded(h, &r)
				ok := fx.chk.check(&r, rr.Code, rr.Body.Bytes()) == nil
				res.count(1, b2i(!ok))
				handlerUs = append(handlerUs, micros(d))
			} else {
				d, err := rec.time("dynamic.apply", 0, 0, func() error {
					_, err := li.ApplyUpdates(ctx, toUpdates(r.Pairs))
					return err
				})
				if err != nil {
					return err
				}
				applyUs = append(applyUs, micros(d))
			}
			if _, err := full.ApplyUpdates(ctx, toUpdates(r.Pairs)); err != nil {
				return err
			}
		}
		var st *nrp.RefreshStats
		if _, err := rec.time("dynamic.refresh.incremental", 0, 0, func() (err error) {
			st, err = li.Refresh(ctx)
			return err
		}); err != nil {
			return err
		}
		if st.Mode != nrp.RefreshedIncremental {
			res.problem("refresh %d ran as %q, want incremental", round, st.Mode)
		}
		refreshMs = append(refreshMs, millis(st.Wall))
		touched = append(touched, float64(st.TouchedNodes))
		if _, err := rec.time("dynamic.refresh.full", 0, 0, func() (err error) {
			st, err = full.Refresh(ctx, threads)
			return err
		}); err != nil {
			return err
		}
		fullS = append(fullS, st.Wall.Seconds())
	}
	res.m["serve.handler_us.update"] = median(handlerUs)
	res.m["dynamic.apply_us"] = median(applyUs)
	res.m["dynamic.refresh_ms.incremental"] = median(refreshMs)
	res.m["dynamic.touched_nodes"] = medianCount(touched)
	res.m["dynamic.refresh_s.full"] = median(fullS)
	res.m["dynamic.incr_speedup"] = median(fullS) * 1000 / median(refreshMs)
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
