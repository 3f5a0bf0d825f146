package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

// verdicts of -compare, per (workload, metric).
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge holds b's values of one metric on one workload to a's. The change
// is the share of a's median by which b's median is worse (negative when
// better). Within the bound the metric is the same. Beyond it the verdict
// stands only if the runs resolve it: with several runs per side, a
// run-to-run spread wider than the bound makes the verdict unresolved
// unless every run of one side beats every run of the other.
func judge(a, b []float64, lowerIsBetter bool, bound float64) (verdict string, change float64) {
	ma, mb := median(a), median(b)
	switch {
	case ma == mb:
		return verdictSame, 0
	case ma == 0:
		change = 1 // from nothing to something: as bad (or good) as it gets
		if mb < 0 {
			change = -1
		}
	default:
		change = (mb - ma) / ma
		if ma < 0 {
			change = -change
		}
	}
	if !lowerIsBetter {
		change = -change
	}
	if change >= -bound && change <= bound {
		return verdictSame, change
	}
	verdict = verdictWorse
	if change < 0 {
		verdict = verdictBetter
	}
	if len(a) > 1 || len(b) > 1 {
		separated := quantile(a, 1) < quantile(b, 0) || quantile(b, 1) < quantile(a, 0)
		if max(spreadShare(a), spreadShare(b)) > bound && !separated {
			return verdictUnresolved, change
		}
	}
	return verdict, change
}

// compareFiles prints one row per (workload, metric) present in both files
// and returns the exit code: 1 if any end-to-end metric is worse, any
// exactly-repeating count differs, or b fails more operations than a.
func compareFiles(w io.Writer, pathA, pathB string) int {
	fa, err := readRuns(pathA)
	if err == nil {
		var fb runFile
		if fb, err = readRuns(pathB); err == nil {
			return compareRuns(w, fa, fb)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

type seriesKey struct {
	workload, metric string
}

type series struct {
	values            map[seriesKey][]float64
	attempted, failed map[string]int
}

func collect(rf runFile) series {
	s := series{values: map[seriesKey][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, r := range rf.Runs {
		s.attempted[r.Workload] += r.Attempted
		s.failed[r.Workload] += r.Failed
		for name, v := range r.Metrics {
			k := seriesKey{r.Workload, name}
			s.values[k] = append(s.values[k], v.Value)
		}
	}
	return s
}

func compareRuns(w io.Writer, fa, fb runFile) int {
	a, b := collect(fa), collect(fb)
	code := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tchange\tbound\tverdict")
	row := func(wl string, d metricDef, bounded bool) {
		k := seriesKey{wl, d.Name}
		va, vb := a.values[k], b.values[k]
		if len(va) == 0 || len(vb) == 0 || !slices.Contains(d.On, wl) {
			return
		}
		bound, boundText := d.Bound, fmt.Sprintf("%.0f%%", 100*d.Bound)
		if !bounded {
			bound, boundText = 0, "-"
			if d.Exact {
				boundText = "exact"
			}
		}
		verdict, change := judge(va, vb, d.Better == "lower", bound)
		switch {
		case bounded && verdict == verdictWorse, d.Exact && verdict != verdictSame:
			code = 1
		case !bounded && !d.Exact:
			verdict = "-" // a per-layer time has no bound to hold it to: the change is for reading
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%s\t%s\n", wl, d.Name, median(va), median(vb), 100*change, boundText, verdict)
	}
	for _, wl := range workloads {
		for _, d := range endToEnd {
			row(wl.Name, d, true)
		}
		for _, d := range perLayer {
			row(wl.Name, d, false)
		}
	}
	names := make([]string, 0, len(b.attempted))
	for wl := range b.attempted {
		names = append(names, wl)
	}
	sort.Strings(names)
	for _, wl := range names {
		ra := float64(a.failed[wl]) / float64(max(a.attempted[wl], 1))
		rb := float64(b.failed[wl]) / float64(max(b.attempted[wl], 1))
		verdict := verdictSame
		if rb > ra {
			verdict, code = verdictWorse, 1
		} else if rb < ra {
			verdict = verdictBetter
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%.6g\t%.6g\t\t0\t%s\n", wl, ra, rb, verdict)
	}
	tw.Flush()
	return code
}
