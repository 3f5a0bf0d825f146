package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
)

// The four workloads, in the order BENCHMARK.json lists them.
const (
	wlBuild      = "build"
	wlServeScan  = "serve_scan"
	wlServeFleet = "serve_fleet"
	wlLiveMixed  = "live_mixed"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{wlBuild, "The paper's batch path from a text edge list to a verified HTTP answer; BKSVD dominates the push leg, PPR rows and reweighting the fora leg."},
	{wlServeScan, "Kernel-dominated serving: one nrpserve with the exact scan, so scan-kernel work shows and HTTP-layer work does not."},
	{wlServeFleet, "Transport-dominated serving: router plus two pruned shard slices, so decode, encode, fan-out and merge do the work and the kernel almost none."},
	{wlLiveMixed, "Directed live graph with updates, refreshes and 20 ms PPR queries beside reads, so a static-read gain that costs writers or read tails shows."},
}

// metricDef declares one metric. BENCHMARK.json carries Name, Unit, Better
// and (end-to-end only) Bound; the rest is the harness's own bookkeeping,
// printed in README.md: which workloads produce the metric, which
// end-to-end metric it is expected to move, and whether it is a count that
// must repeat exactly for a fixed seed and thread count.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	On     []string
	Moves  string
	Exact  bool
}

var (
	onAll   = []string{wlBuild, wlServeScan, wlServeFleet, wlLiveMixed}
	onServe = []string{wlServeScan, wlServeFleet, wlLiveMixed}
)

// endToEnd is what a user of the system sees. The contract this benchmark
// is written to makes every run print every end-to-end metric, so each is
// defined by role and every workload fills it with its own natural
// quantity (README.md has the workload x metric table).
//
// Each bound is about three times the widest quartile distance (as a share
// of the median) the metric showed on any workload over seeds 1-10 on the
// 2-core reference box, capped at the contract's 0.25 (topk_p99_ms spreads
// up to 0.15). That noise floor, not the 0.10 the issue hoped for, is what
// a later change is held to; README.md lists the measured spreads.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, On: onAll},
	{Name: "build_s", Unit: "s", Better: "lower", Bound: 0.25, On: onAll},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10, On: onAll},
	{Name: "topk_qps", Unit: "1/s", Better: "higher", Bound: 0.20, On: onAll},
	{Name: "topk_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, On: onAll},
	{Name: "topk_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: onAll},
	{Name: "heavy_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: onAll},
}

func on(w ...string) []string { return w }

// perLayer is the traced run's breakdown; layer = module name. A workload
// that does not exercise a metric prints it as 0.
var perLayer = []metricDef{
	// build
	{Name: "gio.parse_s", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build_s@build (<3%)"},
	{Name: "gio.parse_mb_per_s", Unit: "MB/s", Better: "higher", On: on(wlBuild), Moves: "build_s@build (<3%)"},
	{Name: "gio.nrpg_save_s", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build_s@build (<3%)"},
	{Name: "gio.nrpg_load_s", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build_s@build (<3%)"},
	{Name: "gio.nrpg_mmap_ms", Unit: "ms", Better: "lower", On: on(wlBuild), Moves: "build_s (<3%)"},
	{Name: "svd.factorize_s.push", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build_s@build,serve_scan; not build.leg_s.fora"},
	{Name: "svd.krylov_iters.push", Unit: "count", Better: "lower", On: on(wlBuild), Moves: "svd.factorize_s.push", Exact: true},
	{Name: "svd.factorize_s.fora", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build.leg_s.fora, build_s@serve_fleet"},
	{Name: "svd.krylov_iters.fora", Unit: "count", Better: "lower", On: on(wlBuild), Moves: "svd.factorize_s.fora", Exact: true},
	{Name: "core.pprfold_s.push", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build_s@build"},
	{Name: "fora.rows_s", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build.leg_s.fora, build_s@serve_fleet only"},
	{Name: "core.reweight_s.push", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build_s (15-30%)"},
	{Name: "core.reweight_s.fora", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build.leg_s.fora (15-30%)"},
	{Name: "core.reweight_epochs.push", Unit: "count", Better: "lower", On: on(wlBuild), Moves: "core.reweight_s.push", Exact: true},
	{Name: "core.embed_s.push", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build_s@build"},
	{Name: "core.embed_s.fora", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build.leg_s.fora"},
	{Name: "core.embed_io_s", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build_s"},
	{Name: "par.kernel_share.push", Unit: "ratio", Better: "higher", On: on(wlBuild), Moves: "par.push_speedup"},
	{Name: "par.push_speedup", Unit: "x", Better: "higher", On: on(wlBuild), Moves: "build_s@build"},
	{Name: "index.build_s.pruned", Unit: "s", Better: "lower", On: on(wlBuild, wlServeScan), Moves: "build_s@build,serve_fleet"},
	{Name: "index.save_s", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build_s"},
	{Name: "index.load_s", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build_s, serve.boot_s"},
	{Name: "index.first_topk_ms", Unit: "ms", Better: "lower", On: on(wlBuild), Moves: "build_s"},
	{Name: "serve.boot_s", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build_s"},
	{Name: "build.leg_s.push", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "= build_s@build"},
	{Name: "build.leg_s.fora", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build_s@serve_fleet"},
	{Name: "build.unaccounted_s.push", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build_s@build"},
	{Name: "build.unaccounted_s.fora", Unit: "s", Better: "lower", On: on(wlBuild), Moves: "build.leg_s.fora"},
	{Name: "quality.auc.push", Unit: "AUC", Better: "higher", On: on(wlBuild), Moves: "correct (floor)"},
	{Name: "quality.auc.fora", Unit: "AUC", Better: "higher", On: on(wlBuild), Moves: "correct (floor)"},

	// serve_scan
	{Name: "index.topk_us.exact", Unit: "us", Better: "lower", On: on(wlServeScan), Moves: "topk_p50_ms,topk_qps@serve_scan (~90%); none @serve_fleet"},
	{Name: "index.scanned_rows.exact", Unit: "count", Better: "lower", On: on(wlServeScan), Moves: "index.topk_us.exact", Exact: true},
	{Name: "index.topkmany_us_per_q.exact", Unit: "us", Better: "lower", On: on(wlServeScan), Moves: "heavy_p50_ms@serve_scan"},
	{Name: "serve.handler_us.topk", Unit: "us", Better: "lower", On: on(wlServeScan), Moves: "topk_p50_ms"},
	{Name: "serve.overhead_us.topk", Unit: "us", Better: "lower", On: on(wlServeScan), Moves: "topk_p50_ms,topk_qps@serve_fleet,live_mixed; <10% @serve_scan"},
	{Name: "serve.handler_us.batch32", Unit: "us", Better: "lower", On: on(wlServeScan), Moves: "heavy_p50_ms@serve_scan"},
	{Name: "serve.handler_us.score", Unit: "us", Better: "lower", On: on(wlServeScan), Moves: "topk_p99_ms@serve_scan (shared cores)"},
	{Name: "serve.allocs_per_req.topk", Unit: "count", Better: "lower", On: on(wlServeScan), Moves: "serve.overhead_us.topk", Exact: true},
	{Name: "serve.alloc_bytes_per_req.topk", Unit: "B", Better: "lower", On: on(wlServeScan), Moves: "serve.overhead_us.topk"},
	{Name: "serve.resp_bytes.topk", Unit: "B", Better: "lower", On: on(wlServeScan), Moves: "net.hop_us"},
	{Name: "net.hop_us", Unit: "us", Better: "lower", On: on(wlServeScan, wlServeFleet), Moves: "topk_p50_ms@serve_fleet (paid three times)"},
	{Name: "net.shard_hop_us", Unit: "us", Better: "lower", On: on(wlServeFleet), Moves: "topk_p50_ms@serve_fleet"},
	{Name: "index.build_s.exact", Unit: "s", Better: "lower", On: on(wlServeScan), Moves: "build_s@serve_scan"},
	{Name: "index.build_s.quantized", Unit: "s", Better: "lower", On: on(wlServeScan), Moves: "none (per-layer only)"},
	{Name: "index.build_s.hnsw", Unit: "s", Better: "lower", On: on(wlServeScan), Moves: "none (per-layer only)"},
	{Name: "index.topk_us.pruned", Unit: "us", Better: "lower", On: on(wlServeScan), Moves: "topk_p50_ms@build,live_mixed"},
	{Name: "index.topk_us.quantized", Unit: "us", Better: "lower", On: on(wlServeScan), Moves: "none (per-layer only)"},
	{Name: "index.topk_us.hnsw", Unit: "us", Better: "lower", On: on(wlServeScan), Moves: "none (per-layer only)"},
	{Name: "index.scanned_rows.pruned", Unit: "count", Better: "lower", On: on(wlServeScan), Moves: "index.topk_us.pruned", Exact: true},
	{Name: "index.recall_at_10.quantized", Unit: "ratio", Better: "higher", On: on(wlServeScan), Moves: "none (per-layer only)"},
	{Name: "index.recall_at_10.hnsw", Unit: "ratio", Better: "higher", On: on(wlServeScan), Moves: "none (per-layer only)"},

	// the serving workloads' client side, from a short run against the binaries
	{Name: "client.topk_p50_ms_r1", Unit: "ms", Better: "lower", On: onServe, Moves: "topk_p50_ms (rate r1: little queueing, idle-core wake-ups)"},
	{Name: "client.topk_p50_ms_seq", Unit: "ms", Better: "lower", On: on(wlServeScan, wlServeFleet), Moves: "service time, one caller back to back; the additivity check's reference"},
	{Name: "client.slo_miss_ratio", Unit: "ratio", Better: "lower", On: onServe, Moves: "topk_p99_ms"},
	{Name: "client.gen_lag_p99_ms", Unit: "ms", Better: "lower", On: onServe, Moves: "none (generator health)"},
	{Name: "trace.unaccounted_share", Unit: "ratio", Better: "lower", On: on(wlServeScan, wlServeFleet), Moves: "none (additivity check, fails above 0.15)"},

	// serve_fleet
	{Name: "index.topk_us.pruned_slice", Unit: "us", Better: "lower", On: on(wlServeFleet), Moves: "topk_p50_ms@serve_fleet (<25%)"},
	{Name: "serve.shard_http_us", Unit: "us", Better: "lower", On: on(wlServeFleet), Moves: "topk_p50_ms@serve_fleet"},
	{Name: "router.http_us", Unit: "us", Better: "lower", On: on(wlServeFleet), Moves: "topk_p50_ms,topk_qps@serve_fleet only"},
	{Name: "router.overhead_us", Unit: "us", Better: "lower", On: on(wlServeFleet), Moves: "topk_p50_ms,topk_qps@serve_fleet only"},
	{Name: "router.self_us", Unit: "us", Better: "lower", On: on(wlServeFleet), Moves: "router.overhead_us (the part in-process spans can see)"},
	{Name: "router.batch32_http_us", Unit: "us", Better: "lower", On: on(wlServeFleet), Moves: "heavy_p50_ms@serve_fleet"},
	{Name: "router.allocs_per_req", Unit: "1/req", Better: "lower", On: on(wlServeFleet), Moves: "router.overhead_us"},
	{Name: "router.shard_bytes_per_req", Unit: "B", Better: "lower", On: on(wlServeFleet), Moves: "router.overhead_us"},
	{Name: "router.resp_bytes", Unit: "B", Better: "lower", On: on(wlServeFleet), Moves: "router.http_us"},
	{Name: "router.hedges", Unit: "count", Better: "lower", On: on(wlServeFleet), Moves: "voids the run if not 0"},
	{Name: "router.shard_errors", Unit: "count", Better: "lower", On: on(wlServeFleet), Moves: "voids the run if not 0"},
	{Name: "router.partial", Unit: "count", Better: "lower", On: on(wlServeFleet), Moves: "voids the run if not 0"},

	// live_mixed
	{Name: "dynamic.boot_embed_s", Unit: "s", Better: "lower", On: on(wlLiveMixed), Moves: "build_s@live_mixed"},
	{Name: "dynamic.apply_us", Unit: "us", Better: "lower", On: on(wlLiveMixed), Moves: "client.update_p50_ms"},
	{Name: "dynamic.refresh_ms.incremental", Unit: "ms", Better: "lower", On: on(wlLiveMixed), Moves: "client.refresh_p50_ms, client.topk_p99_ms_mixed"},
	{Name: "dynamic.touched_nodes", Unit: "count", Better: "lower", On: on(wlLiveMixed), Moves: "dynamic.refresh_ms.incremental", Exact: true},
	{Name: "dynamic.refresh_s.full", Unit: "s", Better: "lower", On: on(wlLiveMixed), Moves: "client.refresh_p50_ms on fallback"},
	{Name: "dynamic.incr_speedup", Unit: "x", Better: "higher", On: on(wlLiveMixed), Moves: "client.refresh_p50_ms"},
	{Name: "index.rebuild_ms.pruned", Unit: "ms", Better: "lower", On: on(wlLiveMixed), Moves: "client.refresh_p50_ms"},
	{Name: "fora.query_ms", Unit: "ms", Better: "lower", On: on(wlLiveMixed), Moves: "heavy_p50_ms@live_mixed, client.topk_p99_ms_mixed"},
	{Name: "fora.push_ms", Unit: "ms", Better: "lower", On: on(wlLiveMixed), Moves: "fora.query_ms"},
	{Name: "fora.walk_ms", Unit: "ms", Better: "lower", On: on(wlLiveMixed), Moves: "fora.query_ms"},
	{Name: "fora.walks", Unit: "count", Better: "lower", On: on(wlLiveMixed), Moves: "fora.walk_ms", Exact: true},
	{Name: "fora.index_used_share", Unit: "ratio", Better: "higher", On: on(wlLiveMixed), Moves: "fora.walk_ms"},
	{Name: "fora.walkindex_build_s", Unit: "s", Better: "lower", On: on(wlLiveMixed), Moves: "build_s@live_mixed"},
	{Name: "fora.max_rel_err", Unit: "ratio", Better: "lower", On: on(wlLiveMixed), Moves: "correct (must stay below epsilon)"},
	{Name: "serve.handler_ms.ppr", Unit: "ms", Better: "lower", On: on(wlLiveMixed), Moves: "heavy_p50_ms@live_mixed"},
	{Name: "serve.overhead_us.ppr", Unit: "us", Better: "lower", On: on(wlLiveMixed), Moves: "heavy_p50_ms@live_mixed"},
	{Name: "serve.handler_us.update", Unit: "us", Better: "lower", On: on(wlLiveMixed), Moves: "client.update_p50_ms"},
	{Name: "client.topk_p99_ms_mixed", Unit: "ms", Better: "lower", On: on(wlLiveMixed), Moves: "none end to end: bimodal under writes, see liveTraffic"},
	{Name: "client.ppr_p50_ms", Unit: "ms", Better: "lower", On: on(wlLiveMixed), Moves: "= heavy_p50_ms@live_mixed"},
	{Name: "client.update_p50_ms", Unit: "ms", Better: "lower", On: on(wlLiveMixed), Moves: "client.topk_p99_ms_mixed, topk_p50_ms@live_mixed"},
	{Name: "client.refresh_p50_ms", Unit: "ms", Better: "lower", On: on(wlLiveMixed), Moves: "client.topk_p99_ms_mixed, topk_p50_ms@live_mixed"},
	{Name: "live.swaps", Unit: "count", Better: "higher", On: on(wlLiveMixed), Moves: "none (liveness of the refresh path)"},
	{Name: "live.pending_max", Unit: "count", Better: "lower", On: on(wlLiveMixed), Moves: "client.refresh_p50_ms"},
}

// specMetric and spec mirror BENCHMARK.json exactly.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []specMetric  `json:"end_to_end"`
	PerLayer   []specMetric  `json:"per_layer"`
}

// defaultRunSeconds is the measured length of one run the driver asks for.
// With three set-ups a run then takes 17 to 29 s on the 2-core reference
// box, and the driver's 92 runs about 2100 s of the 3420 s they may.
const defaultRunSeconds = 15

// declaredSpec renders the tables above in BENCHMARK.json's shape;
// `-spec` prints it and the tests hold the committed file to it.
func declaredSpec() spec {
	s := spec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultRunSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		b := m.Bound
		s.EndToEnd = append(s.EndToEnd, specMetric{m.Name, m.Unit, m.Better, &b})
	}
	for _, m := range perLayer {
		s.PerLayer = append(s.PerLayer, specMetric{m.Name, m.Unit, m.Better, nil})
	}
	return s
}

func loadSpec(root string) (spec, error) {
	var s spec
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkSpec reports how the committed BENCHMARK.json differs from the
// harness's own tables, so a metric can be neither emitted undeclared nor
// declared and forgotten.
func checkSpec(got spec) error {
	want := declaredSpec()
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("BENCHMARK.json does not match the harness's metric tables; regenerate it with `go run . -spec`")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			return fmt.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric name %q is declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output of one run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measured collects values by name while a workload runs; finish turns it
// into the declared set for the run's mode.
type measured map[string]float64

// finish checks m against the declaration for one mode: every emitted name
// must be declared for this workload, every end-to-end metric must be
// present, and a per-layer metric the workload does not exercise is 0.
func (m measured) finish(workload string, trace bool) (map[string]metricValue, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		exercised := slices.Contains(d.On, workload)
		switch {
		case ok && !exercised:
			return nil, fmt.Errorf("metric %s emitted on %s, which does not declare it", d.Name, workload)
		case !ok && exercised:
			return nil, fmt.Errorf("metric %s declared for %s but not measured", d.Name, workload)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("metric %s has no samples (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		delete(m, d.Name)
	}
	if len(m) > 0 {
		left := make([]string, 0, len(m))
		for k := range m {
			left = append(left, k)
		}
		sort.Strings(left)
		return nil, fmt.Errorf("undeclared metrics measured: %v", left)
	}
	return out, nil
}
