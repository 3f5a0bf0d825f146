package nrp

import (
	"github.com/nrp-embed/nrp/internal/core"
)

// Estimator names a backend for the approximate-PPR phase of the
// embedding build, selected with WithEstimator (or `nrp embed
// -estimator`). See the README's "Build estimators" section for guidance.
type Estimator = core.Estimator

// Build estimators.
const (
	// EstimatorPush is Algorithm 1's backward-push scheme — the paper
	// protocol and the default.
	EstimatorPush = core.EstimatorPush
	// EstimatorFORA estimates the top entries of each PPR row by FORA
	// sampling over a shared walk index with top-k early termination,
	// then factorizes the sparse proximity matrix directly, at matching
	// link-prediction AUC.
	EstimatorFORA = core.EstimatorFORA
)

// Estimator validation sentinels; Embed and friends return them (possibly
// wrapped) on unknown estimator names, out-of-range knobs, or option
// combinations that mix backends.
var (
	// ErrInvalidEstimator rejects unknown estimator names and
	// out-of-range estimator knobs.
	ErrInvalidEstimator = core.ErrInvalidEstimator
	// ErrEstimatorOptionConflict rejects FORA-only knobs combined with
	// the push estimator, and warm-start factorization on the FORA path.
	ErrEstimatorOptionConflict = core.ErrEstimatorOptionConflict
)

// ParseEstimator resolves an estimator name as accepted by `nrp embed
// -estimator` ("push", "fora"; empty selects the push default). Unknown
// names return ErrInvalidEstimator.
func ParseEstimator(s string) (Estimator, error) { return core.ParseEstimator(s) }

// WithEstimator selects the approximate-PPR backend of an embedding run.
func WithEstimator(e Estimator) RunOption { return core.WithEstimator(e) }

// WithEstimatorTopK sets how many entries the FORA estimator keeps per
// PPR row (0 = max(k/2, 32)). Larger keeps more proximity signal at more
// push/walk work per row. Requires WithEstimator(EstimatorFORA).
func WithEstimatorTopK(k int) RunOption { return core.WithEstimatorTopK(k) }

// WithEstimatorEpsilon sets the FORA estimator's relative error bound ε
// on the kept entries (0 = 0.5). Requires WithEstimator(EstimatorFORA).
func WithEstimatorEpsilon(eps float64) RunOption { return core.WithEstimatorEpsilon(eps) }

// WithEstimatorWalks sets K, the stored endpoints per node of the shared
// walk index the FORA estimator builds once and resamples across all
// rows (0 = 8). Requires WithEstimator(EstimatorFORA).
func WithEstimatorWalks(k int) RunOption { return core.WithEstimatorWalks(k) }
