// Command benchmark is the repository's one end-to-end benchmark with a
// per-layer breakdown. It generates every input from -seed, drives the
// shipped binaries (nrp, nrpserve, nrprouter, built from the checkout
// before any clock starts) from this one process, checks every answer, and
// prints each metric BENCHMARK.json declares by name with its unit; the
// last line of standard output is the run's result as one JSON object.
//
//	go run . -workload serve_scan -seed 1 -seconds 10 -trace 0   # end-to-end metrics, tracing off
//	go run . -workload serve_scan -seed 1 -seconds 10 -trace 1   # per-layer metrics, traced run
//	go run . -compare a.json b.json                              # hold b to a within each metric's bound
//
// README.md describes the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"text/tabwriter"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: build, serve_scan, serve_fleet or live_mixed")
		seed     = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds  = fs.Float64("seconds", defaultRunSeconds, "length of the measured part of the run")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run, per-layer metrics")
		root     = fs.String("root", "..", "checkout root (the directory holding go.mod, cmd/ and BENCHMARK.json)")
		spans    = fs.String("spans", "", "traced run: write the recorded spans to this file as JSON")
		out      = fs.String("out", "", "append this run's result to a JSON file of runs (the input of -compare)")
		compare  = fs.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
		specOut  = fs.Bool("spec", false, "print BENCHMARK.json as the harness's metric tables declare it and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *specOut {
		raw, _ := json.MarshalIndent(declaredSpec(), "", "  ") // plain structs of strings and numbers
		fmt.Println(string(raw))
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	committed, err := loadSpec(*root)
	if err == nil {
		err = checkSpec(committed)
	}
	if err == nil && !slices.ContainsFunc(workloads, func(w workloadDef) bool { return w.Name == *workload }) {
		err = fmt.Errorf("unknown -workload %q", *workload)
	}
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, sc: fullScale}
	res, err := execute(*root, cfg, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *out != "" {
		if err := appendRun(*out, cfg, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	printResult(res)
	if !res.Correct {
		return 1
	}
	return 0
}

// execute builds the binaries, runs one workload and tears everything
// down: every child is stopped and waited for, and the scratch directory
// removed, on success, on failure and on a signal.
func execute(root string, cfg runConfig, spansPath string) (*result, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	scratch := filepath.Join(root, ".bench_build")
	e := &env{root: root, bin: filepath.Join(scratch, "bin"), nproc: nproc, threads: min(nproc, 4),
		trackCommands: cfg.workload == wlBuild}
	if cfg.trace {
		e.rec = newRecorder()
	}
	if err := e.buildBinaries(); err != nil {
		return nil, err
	}
	if e.work, err = os.MkdirTemp(scratch, "run-"); err != nil {
		return nil, err
	}
	cleanup := func() {
		e.stopAll()
		os.RemoveAll(e.work)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-sig:
			cleanup()
			os.Exit(130)
		case <-finished:
		}
	}()

	var rr *runResult
	switch cfg.workload {
	case wlBuild:
		rr, err = runBuild(e, cfg)
	case wlServeScan:
		rr, err = runStatic(e, cfg, serveScanSpec)
	case wlServeFleet:
		rr, err = runStatic(e, cfg, serveFleetSpec)
	case wlLiveMixed:
		rr, err = runLive(e, cfg)
	}
	if err != nil {
		return nil, err
	}
	if e.rec != nil {
		printSelfTimes(e.rec.snapshot())
		if spansPath != "" {
			if err := e.rec.write(spansPath); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range rr.problems {
		fmt.Fprintln(os.Stderr, "benchmark: incorrect:", p)
	}
	metrics, err := rr.m.finish(cfg.workload, cfg.trace)
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   rr.failed == 0 && len(rr.problems) == 0,
		Attempted: rr.attempted,
		Failed:    rr.failed,
		Metrics:   metrics,
	}, nil
}

// printResult writes every metric by name with its unit, the operation
// counts, and the result object as the last line.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, n := range names {
		fmt.Fprintf(tw, "%s\t%v\t%s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	ratio := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(tw, "fail_ratio\t%v\tfailed/attempted (%d/%d)\n", ratio, res.Failed, res.Attempted)
	tw.Flush()
	line, _ := json.Marshal(res) // plain struct of strings and numbers
	fmt.Println(string(line))
}

// recordedRun is one run in an -out file.
type recordedRun struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	NumCPU   int     `json:"num_cpu"`
	result
}

type runFile struct {
	Runs []recordedRun `json:"runs"`
}

func readRuns(path string) (runFile, error) {
	var rf runFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(raw, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

func appendRun(path string, cfg runConfig, res *result) error {
	rf, err := readRuns(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, recordedRun{cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), *res})
	raw, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
