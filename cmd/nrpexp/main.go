// Command nrpexp regenerates the paper's tables and figures on the
// synthetic stand-in datasets: stochastic block models with the paper's
// n and m for the two small graphs and scaled-down ones for the rest
// (internal/experiments.Datasets lists both sizes).
//
// Usage:
//
//	nrpexp -exp fig4                 # one experiment, quick profile
//	nrpexp -exp all -full            # everything at the paper-width grids
//	nrpexp -exp fig4 -methods NRP,STRAP -datasets wiki-sim -dims 32,128
//	nrpexp -list                     # available experiment ids
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/nrp-embed/nrp/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "nrpexp: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "nrpexp:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("nrpexp", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "", "experiment id (or 'all')")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		scale    = fs.Float64("scale", 1, "dataset size multiplier")
		dim      = fs.Int("dim", 128, "embedding dimensionality for non-sweep experiments")
		seed     = fs.Int64("seed", 1, "random seed")
		full     = fs.Bool("full", false, "paper-width sweeps and dataset coverage")
		quiet    = fs.Bool("quiet", false, "suppress progress logging")
		methods  = fs.String("methods", "", "comma-separated method filter")
		datasets = fs.String("datasets", "", "comma-separated dataset filter")
		dims     = fs.String("dims", "", "comma-separated k sweep override (fig4/fig7)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-10s %s\n", r.Name, r.Paper)
		}
		return nil
	}
	if *exp == "" {
		fs.Usage()
		return fmt.Errorf("-exp is required (or -list)")
	}

	cfg := experiments.Config{
		Ctx:   ctx,
		Scale: *scale,
		Dim:   *dim,
		Seed:  *seed,
		Full:  *full,
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	if *methods != "" {
		cfg.Methods = splitCSV(*methods)
	}
	if *datasets != "" {
		cfg.DatasetNames = splitCSV(*datasets)
	}
	if *dims != "" {
		for _, s := range splitCSV(*dims) {
			d, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("bad -dims entry %q: %v", s, err)
			}
			cfg.Dims = append(cfg.Dims, d)
		}
	}

	var runners []experiments.Runner
	if *exp == "all" {
		runners = experiments.All()
	} else {
		r, err := experiments.Find(*exp)
		if err != nil {
			return err
		}
		runners = []experiments.Runner{r}
	}
	for _, r := range runners {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		fmt.Printf("### %s — %s\n", r.Name, r.Paper)
		tables, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		for _, t := range tables {
			if err := t.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		fmt.Printf("### %s done in %v\n\n", r.Name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func splitCSV(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
