package svd

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
	checkRightFactor(t, a, pooled)
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

// TestBKSVDMemoryIndependentOfPoolSize holds the bytes one factorization
// allocates at pool size 4 to those at pool size 1 plus what a worker may
// own: its B×B Gram partial, B = (q+1)k, and 1 MB for the per-step k-wide
// partials and the fork-join bookkeeping. A per-worker n×B accumulator —
// what the transpose product used to cost — would be 3·8nB = 15 MB here.
func TestBKSVDMemoryIndependentOfPoolSize(t *testing.T) {
	const n, k, q = 5000, 16, 5
	g, err := graph.GenSBM(graph.SBMConfig{N: n, M: 30000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(workers int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := BKSVD(g.Adj, Options{Rank: k, Iters: q, Rng: rand.New(rand.NewSource(1)), At: g.RAdj, Pool: par.New(workers)}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const b = (q + 1) * k
	one, four := allocated(1), allocated(4)
	if limit := one + 4*8*b*b + 1<<20; four > limit {
		t.Fatalf("pool size 4 allocated %d bytes, pool size 1 %d: over the limit of %d (8nB = %d)", four, one, limit, 8*n*b)
	}
	// Serial: the basis, five n×k blocks (Π, which becomes one product
	// buffer, the other buffer, U, V, and the norms and partials that come
	// to less than one more) and nothing else of that order — no W, no
	// fresh product per step.
	if limit := uint64(8*n*(b+5*k) + 1<<20); one > limit {
		t.Fatalf("pool size 1 allocated %d bytes, over the limit of %d (8nB = %d)", one, limit, 8*n*b)
	}
}

// BenchmarkBKSVD times one factorization at the shape of the end-to-end
// benchmark's build workload, so kernel work has a short loop to run. B/op
// at pool size 2 against pool size 1 is what a thread costs in memory.
func BenchmarkBKSVD(b *testing.B) {
	g, err := graph.GenSBM(graph.SBMConfig{N: 20000, M: 70000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("pool=%d", workers), func(b *testing.B) {
			pool := par.New(workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BKSVD(g.Adj, Options{Rank: 32, Epsilon: 0.2, Rng: rand.New(rand.NewSource(1)), At: g.RAdj, Pool: pool}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
