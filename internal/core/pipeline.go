package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/nrp-embed/nrp/internal/par"
)

// Phase identifies one stage of the embedding pipeline in progress events
// and stats.
type Phase string

const (
	// PhaseFactorize is the randomized BKSVD / subspace-iteration
	// factorization of the adjacency matrix (Algorithm 1, line 1).
	PhaseFactorize Phase = "factorize"
	// PhasePPR is the ℓ₁−1 sparse proximity-folding iterations
	// (Algorithm 1, lines 3–5).
	PhasePPR Phase = "ppr"
	// PhaseReweight is the ℓ₂ coordinate-descent reweighting epochs
	// (Algorithm 3, lines 3–7).
	PhaseReweight Phase = "reweight"
	// PhaseAttributes is the truncated-PPR attribute propagation of the
	// attributed extension.
	PhaseAttributes Phase = "attributes"
)

// ProgressEvent reports one completed unit of work inside a phase. Step
// counts from 1 to Total within the phase; Elapsed is wall time since the
// pipeline started.
type ProgressEvent struct {
	Phase   Phase
	Step    int
	Total   int
	Elapsed time.Duration
}

// ProgressFunc receives progress events. Callbacks run synchronously on the
// computing goroutine and should return quickly.
type ProgressFunc func(ProgressEvent)

// PhaseStat records the work done in one pipeline phase.
type PhaseStat struct {
	// Duration is the wall time spent in the phase.
	Duration time.Duration
	// Steps is the number of units completed (iterations, epochs, …).
	Steps int
	// Parallel is the wall time the phase spent inside the parallel
	// engine's kernels (sparse products, GEMM, orthonormalization,
	// reductions) — the portion of Duration that scaled across threads.
	Parallel time.Duration
}

// Stats describes where an embedding run spent its time and how the
// numerical phases converged. All fields are filled in even on error for
// the phases that ran.
type Stats struct {
	// Factorize covers the randomized SVD; KrylovIters and AchievedRank
	// detail it.
	Factorize PhaseStat
	// PPR covers the sparse proximity-folding iterations.
	PPR PhaseStat
	// Reweight covers the coordinate-descent epochs; ReweightResiduals
	// details per-epoch movement.
	Reweight PhaseStat
	// Attributes covers attribute propagation (attributed runs only).
	Attributes PhaseStat
	// Total is end-to-end wall time of the pipeline.
	Total time.Duration
	// KrylovIters is the number of block power iterations the factorizer
	// actually ran.
	KrylovIters int
	// AchievedRank is the number of returned singular values numerically
	// above zero — the rank the factorization actually achieved.
	AchievedRank int
	// ReweightResiduals holds, per epoch, the mean absolute weight change
	// across both coordinate-descent passes; a decaying sequence indicates
	// convergence.
	ReweightResiduals []float64
	// DegreeFit is how closely the learned strengths meet the degree
	// targets of Eq. (5) after the last reweighting pass.
	DegreeFit DegreeFit
	// Threads is the worker count the run's parallel engine used
	// (WithThreads, default GOMAXPROCS).
	Threads int
}

// Render writes a human-readable per-phase breakdown, the CLI's
// "stats printed on completion" format.
func (s *Stats) Render(w io.Writer) error {
	type row struct {
		name string
		st   PhaseStat
		note string
	}
	rows := []row{
		{"factorize", s.Factorize, fmt.Sprintf("krylov_iters=%d achieved_rank=%d", s.KrylovIters, s.AchievedRank)},
		{"ppr", s.PPR, ""},
		{"reweight", s.Reweight, residualNote(s.ReweightResiduals) + s.DegreeFit.note()},
		{"attributes", s.Attributes, ""},
	}
	for _, r := range rows {
		if r.st.Duration == 0 && r.st.Steps == 0 {
			continue
		}
		note := r.note
		if r.st.Parallel > 0 {
			note = fmt.Sprintf("par=%v %s", r.st.Parallel.Round(time.Millisecond), note)
		}
		if _, err := fmt.Fprintf(w, "%-10s %10v  steps=%-4d %s\n",
			r.name, r.st.Duration.Round(time.Millisecond), r.st.Steps, note); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-10s %10v  threads=%d\n", "total", s.Total.Round(time.Millisecond), s.Threads)
	return err
}

func residualNote(res []float64) string {
	if len(res) == 0 {
		return ""
	}
	return fmt.Sprintf("residual %.3g → %.3g", res[0], res[len(res)-1])
}

// DegreeFit holds the p10, p50 and p90 over nodes of learned strength
// divided by its degree target, per side: In for Σ_u →w_u·(X_uY_vᵀ)·←w_v
// against d_in(v), Out for the mirror against d_out(u). Nodes with a zero
// target are skipped. 1 is a perfect fit.
type DegreeFit struct {
	In, Out [3]float64
}

func (f DegreeFit) note() string {
	if f == (DegreeFit{}) {
		return ""
	}
	return fmt.Sprintf("  fit p10/50/90 in=%.2f/%.2f/%.2f out=%.2f/%.2f/%.2f",
		f.In[0], f.In[1], f.In[2], f.Out[0], f.Out[1], f.Out[2])
}

// RunConfig carries the execution knobs of a pipeline run, separate from
// the numerical Options: observability hooks and the parallel engine's
// thread budget.
type RunConfig struct {
	// Progress, when non-nil, receives an event per completed step.
	Progress ProgressFunc
	// Threads bounds the run's parallel engine (0 = GOMAXPROCS).
	Threads int
	// Estimator selects and tunes the approximate-PPR backend (zero
	// value = Algorithm 1 backward push, the paper protocol).
	Estimator EstimatorConfig
}

// RunOption configures a pipeline run; see WithProgress and WithThreads.
// It is an interface (rather than a bare func) so that public wrapper
// packages can define options that double as configuration for other
// subsystems — nrp.WithThreads, for instance, is accepted by both the
// embedding pipeline and BuildIndex.
type RunOption interface {
	// ApplyRun folds the option into the run configuration.
	ApplyRun(*RunConfig)
}

// RunOptionFunc adapts a plain function to the RunOption interface.
type RunOptionFunc func(*RunConfig)

// ApplyRun implements RunOption.
func (f RunOptionFunc) ApplyRun(c *RunConfig) { f(c) }

// WithProgress installs a progress callback on a pipeline run.
func WithProgress(fn ProgressFunc) RunOption {
	return RunOptionFunc(func(c *RunConfig) { c.Progress = fn })
}

// WithThreads bounds the number of worker threads the run's compute
// kernels use (0 or negative = GOMAXPROCS). Embeddings computed with
// different thread counts agree to floating-point reassociation error;
// repeated runs with the same count and seed are bit-identical.
func WithThreads(n int) RunOption {
	return RunOptionFunc(func(c *RunConfig) { c.Threads = n })
}

// NewRunConfig folds options into a RunConfig.
func NewRunConfig(opts []RunOption) RunConfig {
	var c RunConfig
	for _, o := range opts {
		if o != nil {
			o.ApplyRun(&c)
		}
	}
	return c
}

// tracker threads the context, progress sink, parallel engine and stats
// through the pipeline internals.
type tracker struct {
	ctx   context.Context
	cfg   RunConfig
	stats *Stats
	start time.Time
	pool  *par.Pool
}

func newTracker(ctx context.Context, cfg RunConfig) *tracker {
	if ctx == nil {
		ctx = context.Background()
	}
	pool := par.New(cfg.Threads)
	return &tracker{ctx: ctx, cfg: cfg, stats: &Stats{Threads: pool.Workers()}, start: time.Now(), pool: pool}
}

// done stamps the total duration and returns the stats (also kept in t).
func (t *tracker) done() *Stats {
	t.stats.Total = time.Since(t.start)
	return t.stats
}

// err reports the context error, if any.
func (t *tracker) err() error { return t.ctx.Err() }

// step emits a progress event.
func (t *tracker) step(phase Phase, step, total int) {
	if t.cfg.Progress != nil {
		t.cfg.Progress(ProgressEvent{Phase: phase, Step: step, Total: total, Elapsed: time.Since(t.start)})
	}
}

// phaseTimer returns a stop function recording the wall time, step count
// and parallel-kernel time of a phase into the given PhaseStat.
func (t *tracker) phaseTimer(st *PhaseStat) func(steps int) {
	begin := time.Now()
	parBase := t.pool.ParallelWall()
	return func(steps int) {
		st.Duration = time.Since(begin)
		st.Steps = steps
		st.Parallel = t.pool.ParallelWall() - parBase
	}
}
