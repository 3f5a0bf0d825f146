package svd

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/par"
)

// TestBKSVDGoldenFactors pins the SHA-256 of U‖S‖V (row-major, little
// endian float64) of a seeded factorization at pool sizes 1 and 2, so a
// change to the dense kernels that moves a single bit of the factors fails
// here. Rank 18 leaves a two-column tail after every four-wide block and
// n = 3001 an odd row in every worker's range, so the remainder paths are
// pinned too. The hashes differ between pool sizes because the Gram and
// projection reductions are per-worker partials merged in tree order.
func TestBKSVDGoldenFactors(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse a multiply and an add into an FMA;
		// the constants below are amd64's.
		t.Skipf("golden hashes were captured on amd64, running on %s", runtime.GOARCH)
	}
	g, err := graph.GenSBM(graph.SBMConfig{N: 3001, M: 18000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pool int
		want string
	}{
		{1, "62f42af4bd47ec2357497dda80ae06f91a4ff803831a19f9c8db0542e131f6c7"},
		{2, "a27b80619ed21c4377a5481475c9c610b7d2b9e167110ab79ea6f5c68059bd5c"},
	} {
		res, err := BKSVD(g.Adj, Options{Rank: 18, Epsilon: 0.2, Rng: rand.New(rand.NewSource(4)), At: g.RAdj, Pool: par.New(tc.pool)})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		for _, part := range [][]float64{res.U.Data, res.S, res.V.Data} {
			for _, x := range part {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("pool=%d: factors SHA-256 = %s, want %s", tc.pool, got, tc.want)
		}
	}
}
