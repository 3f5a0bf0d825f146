package svd

import (
	"math"
	"math/rand"
	"testing"

	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/par"
	"github.com/nrp-embed/nrp/internal/sparse"
)

// TestBKSVDPoolParity checks that the factorization computed on a
// multi-worker pool matches the serial one: identical singular values up
// to reduction reassociation and an equally good low-rank reconstruction.
func TestBKSVDPoolParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, nnz, k = 400, 6000, 12
	entries := make([]sparse.Triple, nnz)
	for i := range entries {
		entries[i] = sparse.Triple{
			Row: int32(rng.Intn(n)), Col: int32(rng.Intn(n)), Val: rng.NormFloat64(),
		}
	}
	a, err := sparse.FromTriples(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}

	serial, err := BKSVD(a, Options{Rank: k, Epsilon: 0.2, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := BKSVD(a, Options{Rank: k, Epsilon: 0.2, Rng: rand.New(rand.NewSource(1)), Pool: par.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.S) != len(pooled.S) {
		t.Fatalf("rank mismatch: %d vs %d", len(serial.S), len(pooled.S))
	}
	for i := range serial.S {
		if d := math.Abs(serial.S[i] - pooled.S[i]); d > 1e-8*(1+serial.S[i]) {
			t.Fatalf("singular value %d: serial %v vs pooled %v", i, serial.S[i], pooled.S[i])
		}
	}
	// The factors may differ by sign/rotation within degenerate blocks;
	// the reconstruction must agree entry-wise.
	for trial := 0; trial < 200; trial++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if d := math.Abs(serial.LowRankApply(i, j) - pooled.LowRankApply(i, j)); d > 1e-8 {
			t.Fatalf("reconstruction (%d,%d): serial %v vs pooled %v",
				i, j, serial.LowRankApply(i, j), pooled.LowRankApply(i, j))
		}
	}
	// Repeatability: same pool size and seed → bit-identical factors.
	again, err := BKSVD(a, Options{Rank: k, Epsilon: 0.2, Rng: rand.New(rand.NewSource(1)), Pool: par.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pooled.U.Data {
		if pooled.U.Data[i] != again.U.Data[i] {
			t.Fatalf("repeated pooled run differs in U at %d", i)
		}
	}
}

// BenchmarkBKSVD times one factorization at the shape of the end-to-end
// benchmark's build workload, so kernel work has a short loop to run.
func BenchmarkBKSVD(b *testing.B) {
	g, err := graph.GenSBM(graph.SBMConfig{N: 20000, M: 70000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pool := par.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BKSVD(g.Adj, Options{Rank: 32, Epsilon: 0.2, Rng: rand.New(rand.NewSource(1)), Pool: pool}); err != nil {
			b.Fatal(err)
		}
	}
}
