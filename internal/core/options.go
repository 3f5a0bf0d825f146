package core

import "fmt"

// Options configure ApproxPPR and NRP. The zero value is not usable; start
// from DefaultOptions.
type Options struct {
	// Dim is the total per-node space budget k; each node receives a
	// forward and a backward vector of k/2 dimensions. Must be even.
	Dim int
	// Alpha is the random-walk decay (termination) factor of Eq. (1).
	Alpha float64
	// L1 is the PPR truncation order ℓ₁ of Eq. (3).
	L1 int
	// L2 is the maximum number of reweighting epochs ℓ₂ of Algorithm 3.
	L2 int
	// ReweightTol stops the reweighting loop early once an epoch's mean
	// absolute weight movement falls below ReweightTol times the first
	// epoch's — the coordinate descent converges geometrically, so the
	// trailing epochs of a fixed ℓ₂ schedule move the weights (and the
	// downstream task quality) by noise-level amounts while costing as
	// much as the first ones. Zero disables early stopping and always
	// runs ℓ₂ epochs (the paper's fixed schedule).
	ReweightTol float64
	// Epsilon is the BKSVD relative error threshold ε.
	Epsilon float64
	// Lambda is the L2 regularizer λ of the reweighting objective (Eq. 6).
	Lambda float64
	// KrylovIters, when positive, overrides the ε-derived Krylov iteration
	// count of the BKSVD factorizer.
	KrylovIters int
	// ExactB1 replaces the paper's arithmetic–geometric-mean approximation
	// of the b₁ term (Eq. 12–14) with its exact O(k′²) evaluation via Λ.
	// Off by default to match the paper; BenchmarkAblationExactB1 measures
	// what it changes.
	ExactB1 bool
	// SubspaceIteration swaps the BKSVD factorizer of Algorithm 1 for
	// plain randomized subspace iteration. Off by default to match the
	// paper; BenchmarkAblationFactorizer measures what it changes.
	SubspaceIteration bool
	// Seed drives all randomness (BKSVD projections, update order).
	Seed int64
}

// DefaultOptions returns the paper's parameter settings (§5.1):
// k=128, α=0.15, ℓ₁=20, ℓ₂=10, ε=0.2, λ=10.
func DefaultOptions() Options {
	return Options{
		Dim:         128,
		Alpha:       0.15,
		L1:          20,
		L2:          10,
		ReweightTol: 0.01,
		Epsilon:     0.2,
		Lambda:      10,
		Seed:        1,
	}
}

// Validate reports whether the options are internally consistent.
func (o Options) Validate() error {
	if o.Dim <= 0 || o.Dim%2 != 0 {
		return fmt.Errorf("core: Dim must be positive and even, got %d", o.Dim)
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return fmt.Errorf("core: Alpha must be in (0,1), got %v", o.Alpha)
	}
	if o.L1 <= 0 {
		return fmt.Errorf("core: L1 must be positive, got %d", o.L1)
	}
	if o.L2 < 0 {
		return fmt.Errorf("core: L2 must be non-negative, got %d", o.L2)
	}
	if o.ReweightTol < 0 || o.ReweightTol >= 1 {
		return fmt.Errorf("core: ReweightTol must be in [0,1), got %v", o.ReweightTol)
	}
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		return fmt.Errorf("core: Epsilon must be in (0,1), got %v", o.Epsilon)
	}
	if o.Lambda < 0 {
		return fmt.Errorf("core: Lambda must be non-negative, got %v", o.Lambda)
	}
	return nil
}
