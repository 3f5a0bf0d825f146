package core

import (
	"math"
	"math/rand"

	"github.com/nrp-embed/nrp/internal/matrix"
)

// This file holds the O(n²k′) reference implementations of the coordinate
// update coefficients, transcribed literally from Eq. (7) (backward) and
// Eq. (23) (forward) of the paper. They exist only so tests can verify the
// accelerated versions in reweight.go; nothing in the solver path calls
// them.

// naiveBwdCoeffs evaluates a₁, a₂, a₃, b₁ (exact), b₂ of Eq. (7) for node
// vStar under the current weights.
func (s *reweightState) naiveBwdCoeffs(vStar int) (a1, a2, a3, b1, b2 float64) {
	yv := s.y.Row(vStar)
	// a₁ = (Σ_u dout(u)·→w_u·X_u)·Y_v*ᵀ over all u.
	for u := 0; u < s.n; u++ {
		a1 += s.dout[u] * s.fw[u] * matrix.Dot(s.x.Row(u), yv)
	}
	// a₂ = din(v*)·(Σ_{u≠v*} →w_u·X_u)·Y_v*ᵀ ; b₂ = (Σ_{u≠v*} →w_u·X_u·Y_v*ᵀ)².
	sum := 0.0
	for u := 0; u < s.n; u++ {
		if u == vStar {
			continue
		}
		sum += s.fw[u] * matrix.Dot(s.x.Row(u), yv)
	}
	a2 = s.din[vStar] * sum
	b2 = sum * sum
	// a₃ = Σ_u →w_u²·(X_uY_v*ᵀ)·Σ_{v≠u,v≠v*} (X_uY_vᵀ)·←w_v.
	for u := 0; u < s.n; u++ {
		xu := s.x.Row(u)
		inner := 0.0
		for v := 0; v < s.n; v++ {
			if v == u || v == vStar {
				continue
			}
			inner += matrix.Dot(xu, s.y.Row(v)) * s.bw[v]
		}
		a3 += s.fw[u] * s.fw[u] * matrix.Dot(xu, yv) * inner
	}
	// b₁ = Σ_{u≠v*} (→w_u·X_u·Y_v*ᵀ)² — the exact value Eq. (12) bounds.
	for u := 0; u < s.n; u++ {
		if u == vStar {
			continue
		}
		d := s.fw[u] * matrix.Dot(s.x.Row(u), yv)
		b1 += d * d
	}
	return a1, a2, a3, b1, b2
}

// naiveFwdCoeffs evaluates a₁′, a₂′, a₃′, b₁′ (exact), b₂′ of Eq. (23) for
// node uStar under the current weights.
func (s *reweightState) naiveFwdCoeffs(uStar int) (a1, a2, a3, b1, b2 float64) {
	xu := s.x.Row(uStar)
	// a₁′ = X_u*·Σ_v din(v)·←w_v·Y_vᵀ over all v.
	for v := 0; v < s.n; v++ {
		a1 += s.din[v] * s.bw[v] * matrix.Dot(xu, s.y.Row(v))
	}
	// a₂′ = dout(u*)·X_u*·Σ_{v≠u*} ←w_v·Y_vᵀ ; b₂′ = (…)².
	sum := 0.0
	for v := 0; v < s.n; v++ {
		if v == uStar {
			continue
		}
		sum += s.bw[v] * matrix.Dot(xu, s.y.Row(v))
	}
	a2 = s.dout[uStar] * sum
	b2 = sum * sum
	// a₃′ = Σ_v (Σ_{u≠v,u≠u*} →w_u·X_u·Y_vᵀ·←w_v)·X_u*·Y_vᵀ·←w_v.
	for v := 0; v < s.n; v++ {
		yv := s.y.Row(v)
		inner := 0.0
		for u := 0; u < s.n; u++ {
			if u == v || u == uStar {
				continue
			}
			inner += s.fw[u] * matrix.Dot(s.x.Row(u), yv) * s.bw[v]
		}
		a3 += inner * matrix.Dot(xu, yv) * s.bw[v]
	}
	// b₁′ = Σ_{v≠u*} (X_u*·Y_vᵀ·←w_v)².
	for v := 0; v < s.n; v++ {
		if v == uStar {
			continue
		}
		d := matrix.Dot(xu, s.y.Row(v)) * s.bw[v]
		b1 += d * d
	}
	return a1, a2, a3, b1, b2
}

// fastBwdCoeffs recomputes the shared statistics from scratch and returns
// the accelerated coefficients for a single node, mirroring one iteration
// of updateBwdWeights without mutating state. Tests compare this against
// naiveBwdCoeffs.
func (s *reweightState) fastBwdCoeffs(vStar int) (a1, a2, a3, b1Approx, b1Exact, b2 float64) {
	k := s.kPrime
	xi := make([]float64, k)
	chi := make([]float64, k)
	lambdaM := matrix.NewDense(k, k)
	rho1 := make([]float64, k)
	rho2 := make([]float64, k)
	phi := make([]float64, k)
	for u := 0; u < s.n; u++ {
		xu := s.x.Row(u)
		fwU := s.fw[u]
		matrix.Axpy(s.dout[u]*fwU, xu, xi)
		matrix.Axpy(fwU, xu, chi)
		fw2 := fwU * fwU
		for r := 0; r < k; r++ {
			phi[r] += fw2 * xu[r] * xu[r]
			matrix.Axpy(fw2*xu[r], xu, lambdaM.Row(r))
		}
		matrix.Axpy(s.bw[u], s.y.Row(u), rho1)
		matrix.Axpy(fw2*s.bw[u]*s.xyDot[u], xu, rho2)
	}
	yv := s.y.Row(vStar)
	xv := s.x.Row(vStar)
	fwV, bwV, dotXY := s.fw[vStar], s.bw[vStar], s.xyDot[vStar]
	a1 = matrix.Dot(xi, yv)
	t := matrix.Dot(chi, yv) - fwV*dotXY
	a2 = s.din[vStar] * t
	b2 = t * t
	lamY := make([]float64, k)
	lambdaM.MulVecInto(yv, lamY)
	yLamY := matrix.Dot(yv, lamY)
	a3 = matrix.Dot(rho1, lamY) - bwV*yLamY - matrix.Dot(rho2, yv) + bwV*dotXY*dotXY*fwV*fwV
	sum := 0.0
	for r := 0; r < k; r++ {
		sum += yv[r] * yv[r] * (phi[r] - fwV*fwV*xv[r]*xv[r])
	}
	b1Approx = float64(k) / 2 * sum
	b1Exact = yLamY - fwV*fwV*dotXY*dotXY
	return a1, a2, a3, b1Approx, b1Exact, b2
}

// fastFwdCoeffs is the forward-weight analog of fastBwdCoeffs.
func (s *reweightState) fastFwdCoeffs(uStar int) (a1, a2, a3, b1Approx, b1Exact, b2 float64) {
	k := s.kPrime
	xi := make([]float64, k)
	chi := make([]float64, k)
	lambdaM := matrix.NewDense(k, k)
	rho1 := make([]float64, k)
	rho2 := make([]float64, k)
	phi := make([]float64, k)
	for v := 0; v < s.n; v++ {
		yv := s.y.Row(v)
		bwV := s.bw[v]
		matrix.Axpy(s.din[v]*bwV, yv, xi)
		matrix.Axpy(bwV, yv, chi)
		bw2 := bwV * bwV
		for r := 0; r < k; r++ {
			phi[r] += bw2 * yv[r] * yv[r]
			matrix.Axpy(bw2*yv[r], yv, lambdaM.Row(r))
		}
		matrix.Axpy(s.fw[v], s.x.Row(v), rho1)
		matrix.Axpy(s.fw[v]*bw2*s.xyDot[v], yv, rho2)
	}
	xu := s.x.Row(uStar)
	yu := s.y.Row(uStar)
	fwU, bwU, dotXY := s.fw[uStar], s.bw[uStar], s.xyDot[uStar]
	a1 = matrix.Dot(xu, xi)
	t := matrix.Dot(xu, chi) - bwU*dotXY
	a2 = s.dout[uStar] * t
	b2 = t * t
	lamX := make([]float64, k)
	lambdaM.MulVecInto(xu, lamX)
	xLamX := matrix.Dot(xu, lamX)
	a3 = matrix.Dot(rho1, lamX) - fwU*xLamX - matrix.Dot(rho2, xu) + bwU*bwU*dotXY*dotXY*fwU
	sum := 0.0
	for r := 0; r < k; r++ {
		sum += xu[r] * xu[r] * (phi[r] - bwU*bwU*yu[r]*yu[r])
	}
	b1Approx = float64(k) / 2 * sum
	b1Exact = xLamX - bwU*bwU*dotXY*dotXY
	return a1, a2, a3, b1Approx, b1Exact, b2
}

// The two passes below are Algorithms 2 and 4 as written: every node's
// coefficients, Λ·Y_vᵀ included, are evaluated inside the serial sweep.
// reweight.go hoists the pass-invariant part out of the sweep onto the
// pool; tests hold its passes to these bit for bit.

// naiveUpdateBwdWeights is Algorithm 2: one pass of coordinate descent over all
// backward weights, visiting nodes in random order. The shared statistics
// ξ, χ, Λ, φ are computed once per pass; ρ₁, ρ₂ are updated incrementally
// after each weight change (Eq. 11), making the pass O(n·k′²). It returns
// the total absolute weight movement of the pass, the convergence residual
// reported in Stats.
func (s *reweightState) naiveUpdateBwdWeights(rng *rand.Rand) (moved float64) {
	k := s.kPrime
	// Line 1: shared statistics (Eq. 9, 10, 13), gathered in parallel:
	//   ξ  = Σ_u dout(u)·→w_u·X_u        χ  = Σ_u →w_u·X_u
	//   Λ  = Σ_u →w_u²·X_uᵀX_u           φ[r] = Σ_u →w_u²·X_u[r]²
	//   ρ₁ = Σ_v ←w_v·Y_v                ρ₂ = Σ_v →w_v²·←w_v·(X_vY_vᵀ)·X_v
	st := s.gatherPassStats(func(u int, st *passStats) {
		xu := s.x.Row(u)
		fwU := s.fw[u]
		matrix.Axpy(s.dout[u]*fwU, xu, st.xi)
		matrix.Axpy(fwU, xu, st.chi)
		fw2 := fwU * fwU
		for r := 0; r < k; r++ {
			xr := xu[r]
			st.phi[r] += fw2 * xr * xr
			matrix.Axpy(fw2*xr, xu, st.lambdaM.Row(r))
		}
		yu := s.y.Row(u)
		matrix.Axpy(s.bw[u], yu, st.rho1)
		matrix.Axpy(fw2*s.bw[u]*s.xyDot[u], xu, st.rho2)
	})
	xi, chi, lambdaM := st.xi, st.chi, st.lambdaM
	rho1, rho2, phi := st.rho1, st.rho2, st.phi

	// Lines 4–9: visit each node in random order.
	shuffle(s.perm, rng)
	lamY := make([]float64, k)
	for _, vStar := range s.perm {
		yv := s.y.Row(vStar)
		xv := s.x.Row(vStar)
		fwV := s.fw[vStar]
		bwV := s.bw[vStar]
		dotXY := s.xyDot[vStar]

		// Eq. (9): a₁ = ξ·Y_v*ᵀ, a₂ = din(v*)·(χ−→w_v*X_v*)·Y_v*ᵀ, b₂ = (…)².
		a1 := matrix.Dot(xi, yv)
		t := matrix.Dot(chi, yv) - fwV*dotXY
		a2 := s.din[vStar] * t
		b2 := t * t

		// Eq. (10): a₃ = ρ₁ΛY_v*ᵀ − ←w_v*Y_v*ΛY_v*ᵀ − ρ₂Y_v*ᵀ + ←w_v*(X_v*Y_v*ᵀ)²→w_v*².
		lambdaM.MulVecInto(yv, lamY)
		yLamY := matrix.Dot(yv, lamY)
		a3 := matrix.Dot(rho1, lamY) - bwV*yLamY - matrix.Dot(rho2, yv) + bwV*dotXY*dotXY*fwV*fwV

		// b₁: paper's AM–GM approximation (Eq. 14) or the exact value via Λ.
		var b1 float64
		if s.exactB1 {
			b1 = yLamY - fwV*fwV*dotXY*dotXY
		} else {
			sum := 0.0
			for r := 0; r < k; r++ {
				sum += yv[r] * yv[r] * (phi[r] - fwV*fwV*xv[r]*xv[r])
			}
			b1 = float64(k) / 2 * sum
		}

		// Eq. (8): ←w_v* = max(1/n, (a₁+a₂−a₃)/(b₁+b₂+λ)).
		newW := s.minW
		if denom := b1 + b2 + s.lambda; denom > 0 {
			if w := (a1 + a2 - a3) / denom; w > newW {
				newW = w
			}
		}

		// Eq. (11): incremental ρ₁, ρ₂ maintenance.
		delta := newW - bwV
		if delta != 0 {
			matrix.Axpy(delta, yv, rho1)
			matrix.Axpy(delta*fwV*fwV*dotXY, xv, rho2)
			s.bw[vStar] = newW
			moved += math.Abs(delta)
		}
	}
	return moved
}

// naiveUpdateFwdWeights is Algorithm 4 (Appendix B): the mirror-image pass over
// forward weights with statistics ξ′, χ′, Λ′, ρ₁′, ρ₂′, φ′ (Eq. 24–29).
// Like naiveUpdateBwdWeights, it returns the pass's total absolute weight
// movement.
func (s *reweightState) naiveUpdateFwdWeights(rng *rand.Rand) (moved float64) {
	k := s.kPrime
	// Shared statistics (Eq. 24–29), gathered in parallel:
	//   ξ′  = Σ_v din(v)·←w_v·Y_v        χ′  = Σ_v ←w_v·Y_v
	//   Λ′  = Σ_v ←w_v²·Y_vᵀY_v          φ′[r] = Σ_v ←w_v²·Y_v[r]²
	//   ρ₁′ = Σ_u →w_u·X_u               ρ₂′ = Σ_v →w_v·←w_v²·(X_vY_vᵀ)·Y_v
	st := s.gatherPassStats(func(v int, st *passStats) {
		yv := s.y.Row(v)
		bwV := s.bw[v]
		matrix.Axpy(s.din[v]*bwV, yv, st.xi)
		matrix.Axpy(bwV, yv, st.chi)
		bw2 := bwV * bwV
		for r := 0; r < k; r++ {
			yr := yv[r]
			st.phi[r] += bw2 * yr * yr
			matrix.Axpy(bw2*yr, yv, st.lambdaM.Row(r))
		}
		xv := s.x.Row(v)
		matrix.Axpy(s.fw[v], xv, st.rho1)
		matrix.Axpy(s.fw[v]*bw2*s.xyDot[v], yv, st.rho2)
	})
	xi, chi, lambdaM := st.xi, st.chi, st.lambdaM
	rho1, rho2, phi := st.rho1, st.rho2, st.phi

	shuffle(s.perm, rng)
	lamX := make([]float64, k)
	for _, uStar := range s.perm {
		xu := s.x.Row(uStar)
		yu := s.y.Row(uStar)
		fwU := s.fw[uStar]
		bwU := s.bw[uStar]
		dotXY := s.xyDot[uStar]

		// Eq. (24): a₁′ = X_u*·ξ′ᵀ, a₂′ = dout(u*)·X_u*(χ′−←w_u*Y_u*)ᵀ, b₂′ = (…)².
		a1 := matrix.Dot(xu, xi)
		t := matrix.Dot(xu, chi) - bwU*dotXY
		a2 := s.dout[uStar] * t
		b2 := t * t

		// Eq. (25): a₃′ = ρ₁′Λ′X_u*ᵀ − →w_u*X_u*Λ′X_u*ᵀ − ρ₂′X_u*ᵀ + ←w_u*²(X_u*Y_u*ᵀ)²→w_u*.
		lambdaM.MulVecInto(xu, lamX)
		xLamX := matrix.Dot(xu, lamX)
		a3 := matrix.Dot(rho1, lamX) - fwU*xLamX - matrix.Dot(rho2, xu) + bwU*bwU*dotXY*dotXY*fwU

		var b1 float64
		if s.exactB1 {
			b1 = xLamX - bwU*bwU*dotXY*dotXY
		} else {
			// Eq. (29).
			sum := 0.0
			for r := 0; r < k; r++ {
				sum += xu[r] * xu[r] * (phi[r] - bwU*bwU*yu[r]*yu[r])
			}
			b1 = float64(k) / 2 * sum
		}

		// Eq. (23).
		newW := s.minW
		if denom := b1 + b2 + s.lambda; denom > 0 {
			if w := (a1 + a2 - a3) / denom; w > newW {
				newW = w
			}
		}

		// Eq. (26): incremental maintenance.
		delta := newW - fwU
		if delta != 0 {
			matrix.Axpy(delta, xu, rho1)
			matrix.Axpy(delta*bwU*bwU*dotXY, yu, rho2)
			s.fw[uStar] = newW
			moved += math.Abs(delta)
		}
	}
	return moved
}

// gatherPassStats runs body(node, acc) over all nodes in node order per
// worker range; the reference passes accumulate through it one node at a
// time.
func (s *reweightState) gatherPassStats(body func(node int, st *passStats)) *passStats {
	return s.reducePassStats(func(lo, hi int, st *passStats) {
		for u := lo; u < hi; u++ {
			body(u, st)
		}
	})
}
