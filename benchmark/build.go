package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"time"

	"github.com/nrp-embed/nrp"
	"github.com/nrp-embed/nrp/internal/eval"
)

// The build workload: text edge list -> nrp convert -> nrp embed (k=64) ->
// nrp index -backend pruned -> nrpserve -index until the first verified
// answer, on a graph with 30 % of its edges held out for link prediction.
const (
	buildDim  = 64
	buildPool = 256 // pruned answers verified per leg
	// legShare of -seconds goes to repeating the push leg (at least twice);
	// the rest measures serving on the stack the last leg booted.
	legShare = 0.6
	minLegs  = 2
)

// What the just-built stack is asked once it answers: 1000/s, 90 % GET
// topk, 10 % batches of 32.
var buildTraffic = traffic{r2: 1000, mix: mix{opTopK: 0.90, opBatch: 0.10}, heavy: opBatch}

// buildInputs is the build workload's set-up: the held-out split and the
// training graph as a text edge list.
type buildInputs struct {
	split     *eval.LinkPredSplit
	edgesPath string
}

func (e *env) setupBuild(cfg runConfig) (*buildInputs, error) {
	g, err := genGraph(cfg.sc.buildN, cfg.sc.buildM, false, cfg.seed)
	if err != nil {
		return nil, err
	}
	in := &buildInputs{edgesPath: e.path("train.edges")}
	if in.split, err = eval.NewLinkPredSplit(g, holdOut, cfg.seed); err != nil {
		return nil, err
	}
	f, err := os.Create(in.edgesPath)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if err := nrp.WriteGraph(w, in.split.Train); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return in, f.Close()
}

// paddedScorer scores pairs on an embedding that may have fewer rows than
// the full graph: a text edge list carries no node count, so trailing
// nodes whose every edge was held out are absent and score 0, as an
// isolated node's zero vector would.
type paddedScorer struct{ emb *nrp.Embedding }

func (p paddedScorer) Score(u, v int) float64 {
	if n := p.emb.N(); u >= n || v >= n {
		return 0
	}
	return p.emb.Score(u, v)
}

// leg is one pass of the batch path through the shipped binaries.
type leg struct {
	fx       *fixture
	wall     float64 // convert + embed + index + boot-to-first-verified-answer
	bootS    float64
	auc      float64
	embPath  string
	nrpgPath string
}

// runLeg runs convert, embed, index and boot with the given estimator and
// verifies what came out: the pruned top-10 of buildPool sources against a
// brute force over the embedding file, and the held-out AUC against the
// floor. The booted stack is left running in the returned leg.
func (e *env) runLeg(cfg runConfig, in *buildInputs, estimator string, lc *loadClient, res *runResult) (*leg, error) {
	l := &leg{embPath: e.path("emb." + estimator + ".bin"), nrpgPath: e.path("train.nrpg")}
	threads := strconv.Itoa(e.threads)
	convertWall, err := e.run("nrp", "convert", "-input", in.edgesPath, "-output", l.nrpgPath)
	if err != nil {
		return nil, err
	}
	embedWall, err := e.run("nrp", "-input", l.nrpgPath, "-output", l.embPath, "-k", strconv.Itoa(buildDim),
		"-seed", strconv.FormatInt(cfg.seed, 10), "-threads", threads, "-estimator", estimator)
	if err != nil {
		return nil, err
	}
	fx := &fixture{indexPath: e.path("index." + estimator + ".bin")}
	indexWall, err := e.run("nrp", "index", "-embedding", l.embPath, "-output", fx.indexPath,
		"-backend", "pruned", "-threads", threads)
	if err != nil {
		return nil, err
	}
	if fx.emb, err = loadEmbedding(l.embPath); err != nil {
		return nil, err
	}
	fx.n = fx.emb.N()
	fx.pool = genPool(fx.n, buildPool, cfg.seed+1)
	fx.chk = &exactChecker{emb: fx.emb, pool: fx.pool, truth: bruteTopK(fx.emb, fx.pool, topK, e.nproc)}
	lc.chk = fx.chk
	if err := e.bootStatic(lc, fx, false); err != nil {
		fx.stop()
		return nil, err
	}
	l.fx, l.bootS = fx, fx.bootS
	l.wall = convertWall.Seconds() + embedWall.Seconds() + indexWall.Seconds() + fx.bootS

	// Every pool source once, as batches of 32.
	var buf bytes.Buffer
	for lo := 0; lo < len(fx.pool); lo += batchSize {
		i := lo - 1
		g := &reqGen{n: fx.n, pool: fx.pool, pick: func() int { i++; return i % len(fx.pool) }}
		r := g.batch()
		_, ok := lc.do(&r, &buf)
		res.count(1, b2i(!ok))
	}
	if l.auc, err = eval.LinkPredictionAUC(paddedScorer{fx.emb}, in.split); err != nil {
		fx.stop()
		return nil, err
	}
	if floor := cfg.sc.aucFloor[estimator]; l.auc < floor {
		res.problem("%s embedding reaches AUC %.4f on the held-out edges, below the floor %.3f", estimator, l.auc, floor)
	}
	return l, nil
}

func runBuild(e *env, cfg runConfig) (*runResult, error) {
	res := &runResult{m: measured{}}
	lc := &loadClient{hc: newHTTPClient(e.nproc)}
	if cfg.trace {
		in, err := e.setupBuild(cfg)
		if err != nil {
			return nil, err
		}
		return res, traceBuild(e, cfg, in, lc, res)
	}
	var in *buildInputs
	var setups []float64
	for i := 0; i < setupReps; i++ {
		begin := time.Now()
		var err error
		if in, err = e.setupBuild(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	res.m["setup_s"] = median(setups)

	var last *leg
	var walls []float64
	begin := time.Now()
	for len(walls) < minLegs || time.Since(begin) < secs(legShare*cfg.seconds) {
		if last != nil {
			last.fx.stop()
			e.endEpoch()
		}
		l, err := e.runLeg(cfg, in, "push", lc, res)
		if err != nil {
			return nil, err
		}
		last, walls = l, append(walls, l.wall)
	}
	defer last.fx.stop()
	res.m["build_s"] = median(walls)
	servePhases(e, cfg, lc, last.fx, buildTraffic, (1-legShare)*cfg.seconds, res)
	last.fx.stop()
	res.m["peak_rss_mb"] = e.closePeak()
	return res, nil
}

// traceBuild runs each estimator's leg once through the binaries, then the
// same steps in-process with a span around every call into a layer.
func traceBuild(e *env, cfg runConfig, in *buildInputs, lc *loadClient, res *runResult) error {
	legs := map[string]*leg{}
	for _, est := range []string{"push", "fora"} {
		l, err := e.runLeg(cfg, in, est, lc, res)
		if err != nil {
			return err
		}
		l.fx.stop()
		legs[est] = l
		res.m["build.leg_s."+est] = l.wall
		res.m["quality.auc."+est] = l.auc
	}
	res.m["serve.boot_s"] = legs["push"].bootS

	ctx, rec := context.Background(), e.rec
	threads := nrp.WithThreads(e.threads)
	opt := nrp.DefaultOptions()
	opt.Dim, opt.Seed = buildDim, cfg.seed
	nrpgPath := legs["push"].nrpgPath

	// Ingest: what `nrp convert` and the embed run's graph open do.
	root := rec.start("build.leg.push", 0, 1)
	var g *nrp.Graph
	st, err := os.Stat(in.edgesPath)
	if err != nil {
		return err
	}
	parse, err := rec.time("gio.parse", root, 1, func() (err error) {
		g, err = nrp.LoadGraph(in.edgesPath, false)
		return err
	})
	if err != nil {
		return err
	}
	save, err := rec.time("gio.nrpg_save", root, 1, func() error { return nrp.SaveGraph(e.path("trace.nrpg"), g) })
	if err != nil {
		return err
	}
	load, err := rec.time("gio.nrpg_load", 0, 1, func() error { // not on the leg's path: the binaries mmap
		_, err := nrp.LoadGraph(nrpgPath, false)
		return err
	})
	if err != nil {
		return err
	}
	var closer interface{ Close() error }
	mmap, err := rec.time("gio.nrpg_mmap", root, 1, func() (err error) {
		g, closer, err = nrp.LoadGraphMmap(nrpgPath)
		return err
	})
	if err != nil {
		return err
	}
	defer closer.Close()
	res.m["gio.parse_s"] = parse.Seconds()
	res.m["gio.parse_mb_per_s"] = float64(st.Size()) / (1 << 20) / parse.Seconds()
	res.m["gio.nrpg_save_s"] = save.Seconds()
	res.m["gio.nrpg_load_s"] = load.Seconds()
	res.m["gio.nrpg_mmap_ms"] = millis(mmap)

	// embed runs the pipeline inside a span and hangs the phases the
	// library timed itself (its *Stats) under it.
	embed := func(parent, req int, est nrp.Estimator, foldName string, threads nrp.RunOption) (*nrp.Embedding, *nrp.Stats, time.Duration, error) {
		begin := time.Now()
		id := rec.start("core.embed", parent, req)
		emb, stats, err := nrp.EmbedCtx(ctx, g, opt, threads, nrp.WithEstimator(est))
		wall := rec.end(id)
		if err != nil {
			return nil, nil, 0, err
		}
		// FORA estimates the PPR rows before it factorizes them; push
		// factorizes the adjacency first and folds proximity in after.
		phases := []struct {
			name string
			d    time.Duration
		}{{"svd.factorize", stats.Factorize.Duration}, {foldName, stats.PPR.Duration}, {"core.reweight", stats.Reweight.Duration}}
		if est == nrp.EstimatorFORA {
			phases[0], phases[1] = phases[1], phases[0]
		}
		at := begin
		for _, p := range phases {
			rec.add(p.name, id, req, at, p.d)
			at = at.Add(p.d)
		}
		return emb, stats, wall, nil
	}

	emb, stats, embedWall, err := embed(root, 1, nrp.EstimatorPush, "core.pprfold", threads)
	if err != nil {
		return err
	}
	res.m["core.embed_s.push"] = embedWall.Seconds()
	res.m["svd.factorize_s.push"] = stats.Factorize.Duration.Seconds()
	res.m["svd.krylov_iters.push"] = float64(stats.KrylovIters)
	res.m["core.pprfold_s.push"] = stats.PPR.Duration.Seconds()
	res.m["core.reweight_s.push"] = stats.Reweight.Duration.Seconds()
	res.m["core.reweight_epochs.push"] = float64(stats.Reweight.Steps)
	par := stats.Factorize.Parallel + stats.PPR.Parallel + stats.Reweight.Parallel
	res.m["par.kernel_share.push"] = par.Seconds() / stats.Total.Seconds()

	embIO, err := rec.time("core.embed_io", root, 1, func() error {
		f, err := os.Create(e.path("trace.emb.bin"))
		if err != nil {
			return err
		}
		if err := emb.Save(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	res.m["core.embed_io_s"] = embIO.Seconds()

	// Index: what `nrp index` and the server's boot do.
	var idx nrp.Searcher
	idxBuild, err := rec.time("index.build.pruned", root, 1, func() (err error) {
		idx, err = nrp.BuildIndex(emb, nrp.WithBackend(nrp.BackendPruned), threads)
		return err
	})
	if err != nil {
		return err
	}
	idxPath := e.path("trace.index.bin")
	idxSave, err := rec.time("index.save", root, 1, func() error {
		f, err := os.Create(idxPath)
		if err != nil {
			return err
		}
		if err := nrp.SaveIndex(f, idx); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	idxLoad, err := rec.time("index.load", root, 1, func() (err error) {
		idx, err = openIndex(idxPath, nrp.WithShards(e.threads))
		return err
	})
	if err != nil {
		return err
	}
	first, err := rec.time("index.first_topk", root, 1, func() error {
		_, err := idx.TopK(ctx, 0, topK)
		return err
	})
	if err != nil {
		return err
	}
	rec.end(root)
	res.m["index.build_s.pruned"] = idxBuild.Seconds()
	res.m["index.save_s"] = idxSave.Seconds()
	res.m["index.load_s"] = idxLoad.Seconds()
	res.m["index.first_topk_ms"] = millis(first)
	// What the in-process steps do not explain of the leg through the
	// binaries: three process starts, the embedding's reload by `nrp
	// index`, the HTTP boot and the first request's hop.
	shared := parse + save + mmap + embIO + idxBuild + idxSave + idxLoad + first
	res.m["build.unaccounted_s.push"] = legs["push"].wall - (shared + embedWall).Seconds()

	root = rec.start("build.leg.fora", 0, 2)
	_, stats, foraWall, err := embed(root, 2, nrp.EstimatorFORA, "fora.rows", threads)
	rec.end(root)
	if err != nil {
		return err
	}
	res.m["core.embed_s.fora"] = foraWall.Seconds()
	res.m["svd.factorize_s.fora"] = stats.Factorize.Duration.Seconds()
	res.m["svd.krylov_iters.fora"] = float64(stats.KrylovIters)
	res.m["fora.rows_s"] = stats.PPR.Duration.Seconds()
	res.m["core.reweight_s.fora"] = stats.Reweight.Duration.Seconds()
	res.m["build.unaccounted_s.fora"] = legs["fora"].wall - (shared + foraWall).Seconds()

	// The plain single-threaded baseline ROADMAP asks for.
	_, _, serial, err := embed(0, 3, nrp.EstimatorPush, "core.pprfold", nrp.WithThreads(1))
	if err != nil {
		return err
	}
	res.m["par.push_speedup"] = serial.Seconds() / embedWall.Seconds()

	for _, est := range []string{"push", "fora"} {
		un := res.m["build.unaccounted_s."+est]
		fmt.Fprintf(os.Stderr, "build %s: leg through the binaries %.3fs, the same steps in-process %.3fs, unaccounted %.3fs\n",
			est, legs[est].wall, legs[est].wall-un, un)
	}
	return nil
}
