package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/matrix"
	"github.com/nrp-embed/nrp/internal/par"
)

// randomReweightInput returns an n×k′ embedding pair with entries of
// magnitude ~1/√k′ and integer degree targets in [0, 12], zeros included.
func randomReweightInput(n, k int, seed int64) (emb *Embedding, din, dout []float64) {
	rng := rand.New(rand.NewSource(seed))
	emb = &Embedding{X: matrix.NewDense(n, k), Y: matrix.NewDense(n, k)}
	scale := 1 / math.Sqrt(float64(k))
	for i := range emb.X.Data {
		emb.X.Data[i] = rng.NormFloat64() * scale
		emb.Y.Data[i] = (rng.NormFloat64() + 0.5) * scale
	}
	din, dout = make([]float64, n), make([]float64, n)
	for v := 0; v < n; v++ {
		din[v] = float64(rng.Intn(13))
		dout[v] = float64(rng.Intn(13))
	}
	return emb, din, dout
}

// sameFloat is bit equality on amd64. Elsewhere the compiler may fuse a
// multiply-add differently in the two code shapes, so a last-bit
// difference is allowed there.
func sameFloat(a, b float64) bool {
	if runtime.GOARCH == "amd64" {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(a))
}

// TestReweightPassesMatchNaive holds the hoisted passes to the per-node
// reference passes of reweight_naive.go: after ℓ₂ epochs every weight and
// every pass's movement must be identical, for both b₁ variants, every
// pool size, k′ with and without DotRows4 tails, every n mod 4, and a
// visit order that spans several sweep blocks.
func TestReweightPassesMatchNaive(t *testing.T) {
	pools := []*par.Pool{nil, par.New(1), par.New(2), par.New(3), par.New(8)}
	for _, k := range []int{1, 3, 5, 32, 33} {
		ns := []int{36, 45, 58, 71}
		if k == 5 {
			ns = append(ns, 2*sweepBlock+3)
		}
		for _, n := range ns {
			emb, din, dout := randomReweightInput(n, k, int64(100*k+n))
			for _, exactB1 := range []bool{false, true} {
				for pi, pool := range pools {
					name := fmt.Sprintf("k=%d/n=%d/exactB1=%v/pool=%d", k, n, exactB1, pi)
					opt := testOptions()
					opt.ExactB1 = exactB1
					checkPassesMatchNaive(t, name, emb, din, dout, opt, pool)
				}
			}
		}
	}
}

// TestReweightPassesMatchNaiveClamped covers a λ large enough that every
// update hits the 1/n floor of Eq. (8).
func TestReweightPassesMatchNaiveClamped(t *testing.T) {
	emb, din, dout := randomReweightInput(45, 5, 3)
	opt := testOptions()
	opt.Lambda = 1e12
	for _, exactB1 := range []bool{false, true} {
		opt.ExactB1 = exactB1
		bw := checkPassesMatchNaive(t, fmt.Sprintf("exactB1=%v", exactB1), emb, din, dout, opt, par.New(2))
		for v, w := range bw {
			if w != 1/float64(len(bw)) {
				t.Fatalf("exactB1=%v: ←w[%d] = %v, want the 1/n floor", exactB1, v, w)
			}
		}
	}
}

func checkPassesMatchNaive(t *testing.T, name string, emb *Embedding, din, dout []float64, opt Options, pool *par.Pool) (bw []float64) {
	t.Helper()
	fast := newReweightState(emb, din, dout, opt, pool)
	naive := newReweightState(emb, din, dout, opt, pool)
	rngF := rand.New(rand.NewSource(opt.Seed))
	rngN := rand.New(rand.NewSource(opt.Seed))
	for epoch := 0; epoch < opt.L2; epoch++ {
		mf := fast.updateBwdWeights(rngF)
		mn := naive.naiveUpdateBwdWeights(rngN)
		mf2 := fast.updateFwdWeights(rngF)
		mn2 := naive.naiveUpdateFwdWeights(rngN)
		if !sameFloat(mf, mn) || !sameFloat(mf2, mn2) {
			t.Fatalf("%s epoch %d: movement %v/%v, reference %v/%v", name, epoch, mf, mf2, mn, mn2)
		}
	}
	for v := range fast.fw {
		if !sameFloat(fast.fw[v], naive.fw[v]) || !sameFloat(fast.bw[v], naive.bw[v]) {
			t.Fatalf("%s: node %d weights (%v, %v), reference (%v, %v)",
				name, v, fast.fw[v], fast.bw[v], naive.fw[v], naive.bw[v])
		}
	}
	return fast.bw
}

// TestReweightGoldenWeights pins the SHA-256 of the learned fw‖bw (little
// endian float64) on a seeded directed SBM at pool sizes 1 and 2, so a
// change to the reweighting arithmetic that moves a single bit fails here.
// n spans three sweep blocks. The hashes were taken from passes that
// evaluate every term inside the sweep; they differ between pool sizes
// because the pass statistics are per-worker partials merged in tree
// order.
func TestReweightGoldenWeights(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Float64 dot products may be fused into FMAs on other
		// architectures; the constants below are amd64's.
		t.Skipf("golden hashes were captured on amd64, running on %s", runtime.GOARCH)
	}
	g, err := graph.GenSBM(graph.SBMConfig{N: 4500, M: 27000, Communities: 6, Directed: true, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Dim = 32
	opt.Seed = 5
	emb, _, err := ApproxPPRCtx(context.Background(), g, opt, WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		exactB1 bool
		pool    int
		want    string
	}{
		{false, 1, "0ef423ff93c52ad02750fa2145adc2ba518901e07300f2db78f16f02fc8ee8b3"},
		{false, 2, "4d4077d313ce0eef06b7e3b0b60a3ddfb58c62dec9848d021e09a4c6450ffe20"},
		{true, 1, "257a505d28602fb73b3f93f49996f09c25555965bcfe045b5faacee64df14311"},
		{true, 2, "74d16bca788cd607598450b32eaf0827145c41fcb9af5b8e344c6a6fbd267c07"},
	}
	for _, tc := range cases {
		o := opt
		o.ExactB1 = tc.exactB1
		fw, bw, _, err := LearnWeightsCtx(context.Background(), g, emb, o, WithThreads(tc.pool))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		for _, w := range append(fw, bw...) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
			h.Write(b[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("exactB1=%v pool=%d: weights SHA-256 = %s, want %s", tc.exactB1, tc.pool, got, tc.want)
		}
	}
}

// TestDegreeFitMatchesExactStrengths checks the O(n·k′) learned strengths
// against the O(n²k′) double sum objective() is built on, and that
// Stats.DegreeFit reports their ratio quantiles.
func TestDegreeFitMatchesExactStrengths(t *testing.T) {
	g, err := graph.GenSBM(graph.SBMConfig{N: 90, M: 500, Communities: 3, Directed: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	emb, _, err := ApproxPPRCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	fw, bw, stats, err := LearnWeightsCtx(context.Background(), g, emb, opt, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	state := newReweightState(emb, g.InDegrees(), g.OutDegrees(), opt, par.New(3))
	copy(state.fw, fw)
	copy(state.bw, bw)
	in, out := state.learnedStrengths()
	wantIn, wantOut := state.exactStrengths()
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(b), 1e-300) }
	for v := 0; v < g.N; v++ {
		if rel(in[v], wantIn[v]) > 1e-9 || rel(out[v], wantOut[v]) > 1e-9 {
			t.Fatalf("node %d: strengths in=%v out=%v, exact in=%v out=%v", v, in[v], out[v], wantIn[v], wantOut[v])
		}
	}
	want := DegreeFit{In: strengthRatioQuantiles(wantIn, state.din), Out: strengthRatioQuantiles(wantOut, state.dout)}
	for i := range want.In {
		if rel(stats.DegreeFit.In[i], want.In[i]) > 1e-9 || rel(stats.DegreeFit.Out[i], want.Out[i]) > 1e-9 {
			t.Fatalf("Stats.DegreeFit = %+v, exact strengths give %+v", stats.DegreeFit, want)
		}
	}
	if f := stats.DegreeFit; !(f.In[0] <= f.In[1] && f.In[1] <= f.In[2] && f.In[1] > 0) {
		t.Fatalf("in-strength quantiles not ordered or not positive: %+v", f)
	}
}

func TestStrengthRatioQuantiles(t *testing.T) {
	strength := []float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 99}
	target := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0}
	if got, want := strengthRatioQuantiles(strength, target), [3]float64{2, 6, 10}; got != want {
		t.Fatalf("quantiles %v, want %v (zero-target node skipped)", got, want)
	}
	if got := strengthRatioQuantiles([]float64{1}, []float64{0}); got != [3]float64{} {
		t.Fatalf("no nonzero target: %v, want zeros", got)
	}
}

// BenchmarkReweight times learnWeights at the benchmark `build` workload's
// shape (SBM n=20 000, m=70 000, k=64, so k′=32) on one and two workers.
func BenchmarkReweight(b *testing.B) {
	g, err := graph.GenSBM(graph.SBMConfig{N: 20000, M: 70000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Dim = 64
	emb, _, err := ApproxPPRCtx(context.Background(), g, opt)
	if err != nil {
		b.Fatal(err)
	}
	din, dout := g.InDegrees(), g.OutDegrees()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("pool=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := newTracker(context.Background(), RunConfig{Threads: workers})
				if _, _, err := learnWeights(emb, din, dout, opt, t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
