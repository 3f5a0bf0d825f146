package main

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
)

// tinyScale keeps the smoke runs to a few seconds.
var tinyScale = scale{
	buildN: 2000, buildM: 10000,
	serveN: 2000, serveM: 10000,
	liveN: 2000, liveM: 10000,
	pool: 256,
}

func testGen(seed int64, zipf bool) *reqGen {
	pool := genPool(5000, 512, seed+1)
	rng := rand.New(rand.NewSource(seed))
	g := &reqGen{n: 5000, pool: pool, rng: rng, pick: uniformPicker(rng, len(pool))}
	if zipf {
		g.pick = zipfPicker(rng, len(pool))
	}
	return g
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, zipf := range []bool{false, true} {
		render := func(seed int64) []byte {
			mx := mix{opTopK: 0.8, opBatch: 0.05, opScore: 0.05, opPPR: 0.05, opUpdate: 0.05}
			sched := genSchedule(testGen(seed, zipf), 500, 2*time.Second, mx, time.Second)
			return append(scheduleBytes(sched), scheduleBytes(genTopKs(testGen(seed, zipf), 100))...)
		}
		a, b, c := render(7), render(7), render(8)
		if !bytes.Equal(a, b) {
			t.Errorf("zipf=%v: the same seed gave different schedules or bodies", zipf)
		}
		if bytes.Equal(a, c) {
			t.Errorf("zipf=%v: different seeds gave the same schedule", zipf)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	mx := mix{opTopK: 0.9, opBatch: 0.1}
	sched := genSchedule(testGen(3, false), 1000, 4*time.Second, mx, time.Second)
	counts := map[opKind]int{}
	for i, r := range sched {
		counts[r.Kind]++
		if i > 0 && r.Due < sched[i-1].Due {
			t.Fatalf("request %d is due before its predecessor", i)
		}
		if r.Due < 0 || r.Due >= 4*time.Second {
			t.Fatalf("request %d due at %v, outside the phase", i, r.Due)
		}
	}
	if n := len(sched) - counts[opRefresh]; n < 3700 || n > 4300 {
		t.Errorf("%d arrivals in 4 s at 1000/s", n)
	}
	if counts[opRefresh] != 4 {
		t.Errorf("%d refreshes in 4 s at one per second, want 4", counts[opRefresh])
	}
	if share := float64(counts[opBatch]) / float64(len(sched)); share < 0.07 || share > 0.13 {
		t.Errorf("batch share %.3f, want about 0.10", share)
	}
	if counts[opScore]+counts[opPPR]+counts[opUpdate] != 0 {
		t.Errorf("classes outside the mix were generated: %v", counts)
	}
}

func TestQuantileArithmetic(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	if got := medianCount([]float64{7, 3, 9, 5}); got != 5 {
		t.Errorf("medianCount = %v, want the lower middle value 5", got)
	}
	// Three windows with p50s 2, 10 and 3: the outlier window must not set
	// the reported value; an empty window is skipped.
	windows := [][]float64{{1, 2, 3}, {9, 10, 11}, {}, {3, 3, 3}}
	if got := windowMedian(windows, 0.5); got != 3 {
		t.Errorf("windowMedian = %v, want 3", got)
	}
	if got := spreadShare([]float64{90, 100, 110, 100, 100}); math.Abs(got-0) > 1e-12 {
		t.Errorf("spreadShare = %v, want 0 (both quartiles at the median)", got)
	}
	if got := spreadShare([]float64{80, 90, 100, 110, 120}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spreadShare = %v, want 0.2", got)
	}
}

func TestSelfTime(t *testing.T) {
	mk := func(id, parent int, name string, start, end int64) span {
		return span{ID: id, Parent: parent, Req: 1, Name: name, Start: start, End: end}
	}
	spans := []span{
		mk(1, 0, "client.request", 0, 100),
		mk(2, 1, "router.handler", 10, 90),
		mk(3, 2, "router.shard_call", 20, 50), // fan-out: two overlapping calls
		mk(4, 2, "router.shard_call", 30, 70),
		mk(5, 3, "serve.handler", 25, 45),
		mk(6, 4, "serve.handler", 35, 65),
		mk(7, 6, "index.topkmany", 40, 60),
		mk(8, 2, "late.child", 85, 120), // sticks out of its parent: clipped at 90
	}
	want := []int64{20, 80 - 50 - 5, 10, 10, 20, 10, 20, 35}
	for i, d := range selfTimes(spans) {
		if int64(d) != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i+1, spans[i].Name, d, want[i])
		}
	}
	// Along the blocking path only the slower shard call counts.
	got := blockingSelf(spans)[1]
	for name, w := range map[string]int64{"client.request": 20, "router.handler": 25, "router.shard_call": 10, "serve.handler": 10, "index.topkmany": 20, "late.child": 35} {
		if int64(got[name]) != w {
			t.Errorf("blocking self time of %s = %d, want %d", name, got[name], w)
		}
	}
	byLayer := layerSelf(spans)
	if byLayer["router"] != 45 || byLayer["serve"] != 30 {
		t.Errorf("layer sums: router %d (want 45), serve %d (want 30)", byLayer["router"], byLayer["serve"])
	}
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name    string
		a, b    []float64
		lower   bool
		bound   float64
		verdict string
	}{
		{"within bound", []float64{100}, []float64{108}, true, 0.10, verdictSame},
		{"slower", []float64{100}, []float64{120}, true, 0.10, verdictWorse},
		{"faster", []float64{100}, []float64{80}, true, 0.10, verdictBetter},
		{"throughput drop", []float64{1000}, []float64{800}, false, 0.10, verdictWorse},
		{"throughput gain", []float64{1000}, []float64{1300}, false, 0.10, verdictBetter},
		{"noisy and overlapping", []float64{80, 100, 140, 90, 130}, []float64{100, 125, 150, 90, 140}, true, 0.10, verdictUnresolved},
		{"noisy but separated", []float64{80, 100, 120}, []float64{150, 190, 230}, true, 0.10, verdictWorse},
		{"exact count differs", []float64{6}, []float64{7}, true, 0, verdictWorse},
		{"exact count repeats", []float64{6, 6}, []float64{6, 6}, true, 0, verdictSame},
	} {
		if got, _ := judge(c.a, c.b, c.lower, c.bound); got != c.verdict {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.verdict)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	run := func(wl string, qps, p50 float64, failed int) recordedRun {
		return recordedRun{Workload: wl, result: result{Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: map[string]metricValue{"topk_qps": {qps, "1/s"}, "topk_p50_ms": {p50, "ms"}}}}
	}
	base := runFile{Runs: []recordedRun{run(wlServeScan, 1000, 2, 0)}}
	var out bytes.Buffer
	if code := compareRuns(&out, base, runFile{Runs: []recordedRun{run(wlServeScan, 1040, 2.1, 0)}}); code != 0 {
		t.Errorf("a run within every bound exits %d:\n%s", code, out.String())
	}
	if code := compareRuns(&out, base, runFile{Runs: []recordedRun{run(wlServeScan, 700, 2, 0)}}); code != 1 {
		t.Errorf("a 30%% throughput drop exits %d, want 1", code)
	}
	if code := compareRuns(&out, base, runFile{Runs: []recordedRun{run(wlServeScan, 1000, 2, 1)}}); code != 1 {
		t.Errorf("a higher fail ratio exits %d, want 1", code)
	}
}

// TestSpecContract holds the committed BENCHMARK.json to the harness's
// tables (every emitted name declared and vice versa) and to the limits of
// the contract it is written to.
func TestSpecContract(t *testing.T) {
	s, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSpec(s); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	for _, w := range s.Workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound outside [0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		if len(m.Unit) == 0 || len(m.Unit) > 16 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestSmoke runs every workload in both modes at a tiny scale through the
// real binaries. finish() inside execute already fails a run that measures
// an undeclared name or misses a declared one; here every operation must
// also have been answered correctly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the real binaries")
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: wl.Name, seed: 5, seconds: 1, trace: trace, sc: tinyScale}
			if wl.Name == wlLiveMixed && trace {
				cfg.seconds = 3 // long enough for the once-a-second refresh to fall inside a phase
			}
			name := wl.Name + "/end_to_end"
			if trace {
				name = wl.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := execute("..", cfg, "")
				if err != nil {
					t.Fatal(err)
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
				}
				want := len(endToEnd)
				if trace {
					want = len(perLayer)
				}
				if len(res.Metrics) != want {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), want)
				}
				for name, v := range res.Metrics {
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s = %v", name, v.Value)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", name, v.Value)
					}
				}
			})
		}
	}
}
