package core

import (
	"errors"
	"fmt"
)

// Estimator names a backend for the approximate-PPR phase of the
// embedding build.
type Estimator string

const (
	// EstimatorPush is Algorithm 1's scheme — BKSVD factorization of the
	// adjacency matrix followed by ℓ₁−1 proximity-folding iterations —
	// the paper protocol and the default.
	EstimatorPush Estimator = "push"
	// EstimatorFORA estimates the top entries of every PPR row with the
	// FORA sampling estimator (forward push + walks over one shared walk
	// index, top-k early termination) and factorizes the resulting
	// sparse proximity matrix directly, at matching link-prediction AUC;
	// see the README's "Build estimators" section for the trade-offs.
	EstimatorFORA Estimator = "fora"
)

// Typed sentinels for estimator validation, re-exported at the public nrp
// API boundary.
var (
	// ErrInvalidEstimator rejects unknown estimator names and
	// out-of-range estimator knobs.
	ErrInvalidEstimator = errors.New("core: invalid estimator")
	// ErrEstimatorOptionConflict rejects option combinations that name
	// one estimator and configure another — FORA-only knobs with the
	// push estimator, or a warm-start factorization on the FORA path.
	ErrEstimatorOptionConflict = errors.New("core: conflicting estimator options")
)

// ParseEstimator maps a CLI/user string to an Estimator. The empty string
// selects the push default; anything else unknown returns
// ErrInvalidEstimator.
func ParseEstimator(s string) (Estimator, error) {
	switch Estimator(s) {
	case "", EstimatorPush:
		return EstimatorPush, nil
	case EstimatorFORA:
		return EstimatorFORA, nil
	}
	return "", fmt.Errorf("%w: unknown name %q (want %q or %q)", ErrInvalidEstimator, s, EstimatorPush, EstimatorFORA)
}

// EstimatorConfig selects and tunes the PPR backend of a run. The zero
// value is the push default; the knobs apply to the FORA estimator only.
type EstimatorConfig struct {
	// Kind is the backend ("" = push).
	Kind Estimator
	// TopK overrides the entries kept per PPR row (0 = max(k′, 32)).
	TopK int
	// Epsilon overrides the FORA relative error bound ε (0 = 0.5).
	Epsilon float64
	// WalksPerNode overrides the shared walk index's stored endpoints
	// per node (0 = 8).
	WalksPerNode int
	// Exhaustive disables top-k early termination (test/ablation knob).
	Exhaustive bool
}

// validate checks the estimator selection after all options are applied,
// so WithEstimator / WithEstimatorTopK compose in any order.
func (c EstimatorConfig) validate() error {
	switch c.Kind {
	case "", EstimatorPush, EstimatorFORA:
	default:
		return fmt.Errorf("%w: unknown name %q (want %q or %q)", ErrInvalidEstimator, string(c.Kind), EstimatorPush, EstimatorFORA)
	}
	if c.TopK < 0 {
		return fmt.Errorf("%w: top-k must be non-negative, got %d", ErrInvalidEstimator, c.TopK)
	}
	if c.Epsilon < 0 {
		return fmt.Errorf("%w: epsilon must be non-negative, got %v", ErrInvalidEstimator, c.Epsilon)
	}
	if c.WalksPerNode < 0 {
		return fmt.Errorf("%w: walks per node must be non-negative, got %d", ErrInvalidEstimator, c.WalksPerNode)
	}
	if c.Kind != EstimatorFORA && (c.TopK != 0 || c.Epsilon != 0 || c.WalksPerNode != 0 || c.Exhaustive) {
		return fmt.Errorf("%w: FORA knobs (top-k/epsilon/walks/exhaustive) require the %q estimator", ErrEstimatorOptionConflict, EstimatorFORA)
	}
	return nil
}

// WithEstimator selects the approximate-PPR backend of the run.
func WithEstimator(e Estimator) RunOption {
	return RunOptionFunc(func(c *RunConfig) { c.Estimator.Kind = e })
}

// WithEstimatorTopK sets the entries the FORA estimator keeps per PPR row.
func WithEstimatorTopK(k int) RunOption {
	return RunOptionFunc(func(c *RunConfig) { c.Estimator.TopK = k })
}

// WithEstimatorEpsilon sets the FORA estimator's relative error bound ε.
func WithEstimatorEpsilon(eps float64) RunOption {
	return RunOptionFunc(func(c *RunConfig) { c.Estimator.Epsilon = eps })
}

// WithEstimatorWalks sets the walks per node of the shared walk index.
func WithEstimatorWalks(k int) RunOption {
	return RunOptionFunc(func(c *RunConfig) { c.Estimator.WalksPerNode = k })
}

// WithEstimatorExhaustive disables top-k early termination on the FORA
// path, paying the full (ε, δ = 1/n) guarantee per row — the control arm
// for early-termination accounting; far slower than the default.
func WithEstimatorExhaustive() RunOption {
	return RunOptionFunc(func(c *RunConfig) { c.Estimator.Exhaustive = true })
}
