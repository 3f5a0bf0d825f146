package core

import (
	"math"
	"math/rand"
	"sort"

	"github.com/nrp-embed/nrp/internal/matrix"
	"github.com/nrp-embed/nrp/internal/par"
)

// reweightState carries everything the coordinate-descent weight updates
// need: the fixed embeddings and degree targets, the evolving weights, and
// the options.
type reweightState struct {
	x, y    *matrix.Dense // fixed ApproxPPR embeddings, n×k′
	fw, bw  []float64     // forward →w and backward ←w node weights
	din     []float64     // in-degree targets
	dout    []float64     // out-degree targets
	lambda  float64
	exactB1 bool
	minW    float64 // 1/n lower bound of Eq. (6)'s constraint
	xyDot   []float64
	perm    []int
	kPrime  int
	n       int
	pool    *par.Pool  // parallelizes the per-pass statistics and terms
	terms   sweepTerms // scratch of every pass, allocated once
}

// sweepBlock is how many nodes' pass-invariant terms are held at once.
// The sweep consumes them block by block, so their buffer is
// sweepBlock×k′ whatever n is: a whole-pass buffer (8·n·k′ bytes) raised
// a build's peak memory, because the heap still holds the factorization's
// garbage when reweighting starts. Each block is one pool region.
const sweepBlock = 2048

// sweepTerms holds the per-node terms of Eq. (8)/(23) that stay fixed
// during one pass, for one block of the visit order: entry i describes
// node perm[lo+i], so the serial sweep reads them front to back.
type sweepTerms struct {
	lam  *matrix.Dense // Λ·Y_vᵀ (backward) or Λ′·X_uᵀ (forward), sweepBlock×k′
	num  []float64     // a₁ + a₂
	den  []float64     // b₁ + b₂ + λ
	self []float64     // ←w_v·Y_vΛY_vᵀ or →w_u·X_uΛ′X_uᵀ, second term of a₃
	corr []float64     // last term of a₃
}

func newReweightState(emb *Embedding, din, dout []float64, opt Options, pool *par.Pool) *reweightState {
	n, k := emb.N(), emb.Dim()
	rows := min(n, sweepBlock)
	s := &reweightState{
		x:       emb.X,
		y:       emb.Y,
		fw:      make([]float64, n),
		bw:      make([]float64, n),
		din:     din,
		dout:    dout,
		lambda:  opt.Lambda,
		exactB1: opt.ExactB1,
		minW:    1 / float64(n),
		xyDot:   make([]float64, n),
		perm:    make([]int, n),
		kPrime:  k,
		n:       n,
		pool:    pool,
		terms: sweepTerms{
			lam:  matrix.NewDense(rows, k),
			num:  make([]float64, rows),
			den:  make([]float64, rows),
			self: make([]float64, rows),
			corr: make([]float64, rows),
		},
	}
	// Algorithm 3 lines 3–4: →w_v = dout(v), ←w_v = 1.
	pool.For(n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			s.fw[v] = dout[v]
			s.bw[v] = 1
			s.xyDot[v] = matrix.Dot(emb.X.Row(v), emb.Y.Row(v))
			s.perm[v] = v
		}
	})
	return s
}

// passStats holds one coordinate-descent pass's shared statistics
// (Eq. 9, 10, 13 for the backward pass; Eq. 24–29 for the forward one).
// reducePassStats accumulates them over all nodes in parallel: each worker
// fills a private packed accumulator over its node range and the partials
// merge in fixed tree order, so a pass is deterministic for a fixed pool
// size.
type passStats struct {
	xi, chi, rho1, rho2, phi []float64
	lambdaM                  *matrix.Dense
}

// reducePassStats runs body(lo, hi, acc) over contiguous node ranges that
// cover all nodes, where acc is the worker-private packed statistics view,
// and returns the merged result. Layout: [ξ k][χ k][ρ₁ k][ρ₂ k][φ k][Λ k×k].
func (s *reweightState) reducePassStats(body func(lo, hi int, st *passStats)) *passStats {
	k := s.kPrime
	stride := 5*k + k*k
	view := func(data []float64) *passStats {
		return &passStats{
			xi:      data[0*k : 1*k],
			chi:     data[1*k : 2*k],
			rho1:    data[2*k : 3*k],
			rho2:    data[3*k : 4*k],
			phi:     data[4*k : 5*k],
			lambdaM: &matrix.Dense{Rows: k, Cols: k, Data: data[5*k:]},
		}
	}
	nc := s.pool.Chunks(s.n)
	if nc <= 1 {
		st := view(make([]float64, stride))
		body(0, s.n, st)
		return st
	}
	parts := make([][]float64, nc)
	s.pool.For(s.n, func(w, lo, hi int) {
		acc := make([]float64, stride)
		body(lo, hi, view(acc))
		parts[w] = acc
	})
	return view(s.pool.TreeReduce(parts))
}

// passSide names the roles in one coordinate-descent pass. The pass
// updates the weights w of the own embedding against the targets target;
// the other embedding, its weights ow and its targets oTarget stay fixed.
// The backward pass (Algorithm 2) updates ←w with own = Y; the forward
// pass (Algorithm 4, Appendix B) is its mirror image with own = X.
type passSide struct {
	own, other      *matrix.Dense
	w, ow           []float64
	target, oTarget []float64
	bwd             bool
}

// updateBwdWeights is Algorithm 2: one pass of coordinate descent over all
// backward weights, visiting nodes in random order. It returns the total
// absolute weight movement of the pass, the convergence residual reported
// in Stats.
func (s *reweightState) updateBwdWeights(rng *rand.Rand) (moved float64) {
	return s.pass(passSide{own: s.y, other: s.x, w: s.bw, ow: s.fw, target: s.din, oTarget: s.dout, bwd: true}, rng)
}

// updateFwdWeights is Algorithm 4 (Appendix B): the mirror-image pass over
// forward weights with statistics ξ′, χ′, Λ′, ρ₁′, ρ₂′, φ′ (Eq. 24–29).
func (s *reweightState) updateFwdWeights(rng *rand.Rand) (moved float64) {
	return s.pass(passSide{own: s.x, other: s.y, w: s.fw, ow: s.bw, target: s.dout, oTarget: s.din}, rng)
}

// pass runs one coordinate-descent pass over sd.w. Written for the
// backward pass (u ranges over the other side, v over the own side):
//
//	ξ  = Σ_u dout(u)·→w_u·X_u        χ  = Σ_u →w_u·X_u
//	Λ  = Σ_u →w_u²·X_uᵀX_u           φ[r] = Σ_u →w_u²·X_u[r]²
//	ρ₁ = Σ_v ←w_v·Y_v                ρ₂ = Σ_v →w_v²·←w_v·(X_vY_vᵀ)·X_v
//
// are gathered once, in parallel (Eq. 9, 10, 13). Visiting a node changes
// only ρ₁, ρ₂ (Eq. 11) and that node's own weight, and each node is visited
// once, so every other quantity of Eq. (8) is fixed for the whole pass:
// sweepTerms evaluates it on the pool, a block of the visit order at a
// time, ahead of the sweep over that block. The sweep itself —
// the coordinate order *is* the algorithm, so it stays serial — does two
// k′-dots and two k′-axpys per node, O(n·k′) of the pass's O(n·k′²).
// Every term is the same floating-point expression, evaluated in the same
// order, as a per-node evaluation inside the sweep, so the learned weights
// are bit-identical to it.
func (s *reweightState) pass(sd passSide, rng *rand.Rand) (moved float64) {
	st := s.reducePassStats(func(lo, hi int, st *passStats) { s.accumulate(sd, lo, hi, st) })

	// Lines 4–9: visit each node in random order.
	shuffle(s.perm, rng)
	tm := &s.terms
	rho1, rho2 := st.rho1, st.rho2
	for lo := 0; lo < s.n; lo += sweepBlock {
		block := s.perm[lo:min(lo+sweepBlock, s.n)]
		s.sweepTerms(sd, st, block)
		for i, v := range block {
			// Eq. (8): ←w_v = max(1/n, (a₁+a₂−a₃)/(b₁+b₂+λ)), with
			// a₃ = ρ₁ΛY_vᵀ − ←w_vY_vΛY_vᵀ − ρ₂Y_vᵀ + ←w_v(X_vY_vᵀ)²→w_v² (Eq. 10).
			newW := s.minW
			if den := tm.den[i]; den > 0 {
				yv := sd.own.Row(v)
				a3 := matrix.Dot(rho1, tm.lam.Row(i)) - tm.self[i] - matrix.Dot(rho2, yv) + tm.corr[i]
				if w := (tm.num[i] - a3) / den; w > newW {
					newW = w
				}
			}

			// Eq. (11): incremental ρ₁, ρ₂ maintenance.
			delta := newW - sd.w[v]
			if delta != 0 {
				o := sd.ow[v]
				matrix.Axpy(delta, sd.own.Row(v), rho1)
				matrix.Axpy(delta*o*o*s.xyDot[v], sd.other.Row(v), rho2)
				sd.w[v] = newW
				moved += math.Abs(delta)
			}
		}
	}
	return moved
}

// accumulate adds nodes [lo, hi) to the pass statistics, in node order.
// Λ, the k′² part, takes four nodes per sweep over its rows
// (matrix.Axpy4), which sums every element in the same order as one Axpy
// per node.
func (s *reweightState) accumulate(sd passSide, lo, hi int, st *passStats) {
	vectors := func(u int) (xu []float64, o2 float64) {
		xu = sd.other.Row(u)
		o := sd.ow[u]
		matrix.Axpy(sd.oTarget[u]*o, xu, st.xi)
		matrix.Axpy(o, xu, st.chi)
		o2 = o * o
		for r, xr := range xu {
			st.phi[r] += o2 * xr * xr
		}
		matrix.Axpy(sd.w[u], sd.own.Row(u), st.rho1)
		matrix.Axpy(o2*sd.w[u]*s.xyDot[u], xu, st.rho2)
		return xu, o2
	}
	u := lo
	for ; u+4 <= hi; u += 4 {
		x0, c0 := vectors(u)
		x1, c1 := vectors(u + 1)
		x2, c2 := vectors(u + 2)
		x3, c3 := vectors(u + 3)
		for r := range x0 {
			matrix.Axpy4(c0*x0[r], c1*x1[r], c2*x2[r], c3*x3[r], x0, x1, x2, x3, st.lambdaM.Row(r))
		}
	}
	for ; u < hi; u++ {
		xu, o2 := vectors(u)
		for r, xr := range xu {
			matrix.Axpy(o2*xr, xu, st.lambdaM.Row(r))
		}
	}
}

// sweepTerms fills s.terms for the block of the visit order about to be
// swept, one row-partitioned pool kernel. For the backward pass and
// node v (Eq. 9, 10, 14):
//
//	a₁ = ξ·Y_vᵀ   t = χ·Y_vᵀ − →w_v·X_vY_vᵀ   a₂ = din(v)·t   b₂ = t²
//	b₁ = (k′/2)·Σ_r Y_v[r]²·(φ[r] − →w_v²·X_v[r]²), or Y_vΛY_vᵀ − →w_v²(X_vY_vᵀ)²
//
// and the forward pass mirrors it (Eq. 24, 25, 29).
func (s *reweightState) sweepTerms(sd passSide, st *passStats, block []int) {
	k := s.kPrime
	tm := &s.terms
	lamM := st.lambdaM
	rows4 := k &^ 3
	s.pool.For(len(block), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			v := block[i]
			yv, xv := sd.own.Row(v), sd.other.Row(v)
			o, wv, d := sd.ow[v], sd.w[v], s.xyDot[v]

			// Λ·Y_vᵀ, four Λ rows per step; DotRows4 sums each row like Dot.
			lam := tm.lam.Row(i)
			r := 0
			for ; r < rows4; r += 4 {
				lam[r], lam[r+1], lam[r+2], lam[r+3] = matrix.DotRows4(yv, lamM.Data[r*k:(r+4)*k])
			}
			for ; r < k; r++ {
				lam[r] = matrix.Dot(lamM.Row(r), yv)
			}
			yLamY := matrix.Dot(yv, lam)

			a1 := matrix.Dot(st.xi, yv)
			t := matrix.Dot(st.chi, yv) - o*d
			a2 := sd.target[v] * t
			b2 := t * t
			var b1 float64
			if s.exactB1 {
				b1 = yLamY - o*o*d*d
			} else {
				sum := 0.0
				for r := 0; r < k; r++ {
					sum += yv[r] * yv[r] * (st.phi[r] - o*o*xv[r]*xv[r])
				}
				b1 = float64(k) / 2 * sum
			}
			tm.num[i] = a1 + a2
			tm.den[i] = b1 + b2 + s.lambda
			tm.self[i] = wv * yLamY
			// The paper writes the two passes' last a₃ terms in different
			// factor orders (Eq. 10, 25); each is kept as written.
			if sd.bwd {
				tm.corr[i] = wv * d * d * o * o
			} else {
				tm.corr[i] = o * o * d * d * wv
			}
		}
	})
}

// learnedStrengths returns every node's learned in- and out-strength,
// in(v) = Σ_{u≠v} →w_u·(X_uY_vᵀ)·←w_v and out(u) the mirror, in O(n·k′):
// in(v) = ←w_v·(χ·Y_vᵀ − →w_v·X_vY_vᵀ) with χ = Σ_u →w_u·X_u, and
// out(u) = →w_u·(χ′·X_uᵀ − ←w_u·X_uY_uᵀ) with χ′ = Σ_v ←w_v·Y_v.
func (s *reweightState) learnedStrengths() (in, out []float64) {
	k := s.kPrime
	parts := make([][]float64, s.pool.Chunks(s.n))
	s.pool.For(s.n, func(w, lo, hi int) {
		acc := make([]float64, 2*k)
		for u := lo; u < hi; u++ {
			matrix.Axpy(s.fw[u], s.x.Row(u), acc[:k])
			matrix.Axpy(s.bw[u], s.y.Row(u), acc[k:])
		}
		parts[w] = acc
	})
	sums := s.pool.TreeReduce(parts)
	chi, chiT := sums[:k], sums[k:]
	in, out = make([]float64, s.n), make([]float64, s.n)
	s.pool.For(s.n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			in[v] = s.bw[v] * (matrix.Dot(chi, s.y.Row(v)) - s.fw[v]*s.xyDot[v])
			out[v] = s.fw[v] * (matrix.Dot(chiT, s.x.Row(v)) - s.bw[v]*s.xyDot[v])
		}
	})
	return in, out
}

// degreeFit summarises how closely the learned strengths meet the Eq. (5)
// targets.
func (s *reweightState) degreeFit() DegreeFit {
	in, out := s.learnedStrengths()
	return DegreeFit{In: strengthRatioQuantiles(in, s.din), Out: strengthRatioQuantiles(out, s.dout)}
}

// strengthRatioQuantiles returns the p10, p50 and p90 of strength/target
// over the nodes with a nonzero target (nearest rank), zeros if none.
func strengthRatioQuantiles(strength, target []float64) (q [3]float64) {
	ratios := make([]float64, 0, len(target))
	for v, d := range target {
		if d != 0 {
			ratios = append(ratios, strength[v]/d)
		}
	}
	if len(ratios) == 0 {
		return q
	}
	sort.Float64s(ratios)
	for i, p := range [3]float64{0.1, 0.5, 0.9} {
		q[i] = ratios[int(math.Round(p*float64(len(ratios)-1)))]
	}
	return q
}

// exactStrengths returns every node's in- and out-strength by the O(n²k′)
// double sum — the reference for tests and objective, never used by the
// solver.
func (s *reweightState) exactStrengths() (in, out []float64) {
	n := s.n
	in, out = make([]float64, n), make([]float64, n)
	// Strength of connection from u to v is →w_u·(X_uY_vᵀ)·←w_v.
	for u := 0; u < n; u++ {
		xu := s.x.Row(u)
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			st := s.fw[u] * matrix.Dot(xu, s.y.Row(v)) * s.bw[v]
			out[u] += st
			in[v] += st
		}
	}
	return in, out
}

// objective evaluates Eq. (6) exactly in O(n²k′) — used by tests and the
// convergence diagnostics, never by the solver itself.
func (s *reweightState) objective() float64 {
	inStrength, outStrength := s.exactStrengths()
	obj := 0.0
	for v := 0; v < s.n; v++ {
		d1 := inStrength[v] - s.din[v]
		d2 := outStrength[v] - s.dout[v]
		obj += d1*d1 + d2*d2
		obj += s.lambda * (s.fw[v]*s.fw[v] + s.bw[v]*s.bw[v])
	}
	return obj
}

// shuffle permutes p in place with the supplied source of randomness.
func shuffle(p []int, rng *rand.Rand) {
	for i := len(p) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
