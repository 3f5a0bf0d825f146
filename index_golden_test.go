package nrp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/nrp-embed/nrp/internal/matrix"
)

// goldenEmbedding is a seeded synthetic embedding that does not pass
// through the build pipeline (whose low-order bits depend on the thread
// count): Gaussian rows with a heavy-tailed per-row scale, so the pruned
// permutation and the HNSW graph are non-trivial.
func goldenEmbedding() *Embedding {
	const n, dim = 300, 8
	rng := rand.New(rand.NewSource(20200831))
	emb := &Embedding{X: matrix.NewDense(n, dim), Y: matrix.NewDense(n, dim)}
	for _, m := range []*matrix.Dense{emb.X, emb.Y} {
		for v := 0; v < n; v++ {
			scale := math.Exp(rng.NormFloat64())
			for j, row := 0, m.Row(v); j < dim; j++ {
				row[j] = scale * rng.NormFloat64()
			}
		}
	}
	return emb
}

// TestSnapshotGoldenBytes pins the NRPX bytes SaveIndex writes for every
// backend. docs/FORMATS.md is normative for the format; these hashes were
// captured before the four index types were collapsed onto one scaffold,
// so a refactor of the index or its I/O that shifts a single byte fails
// here instead of in a deployed fleet that can no longer read its files.
func TestSnapshotGoldenBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Quantization codes, the norm order and the HNSW graph all hang on
		// float64 dot products, which the compiler may fuse into FMAs on
		// other architectures; the constants below are amd64's.
		t.Skipf("golden hashes were captured on amd64, running on %s", runtime.GOARCH)
	}
	emb := goldenEmbedding()
	cases := []struct {
		name string
		opts []IndexOption
		want string
	}{
		{"exact", []IndexOption{WithBackend(BackendExact)},
			"df1388ee7c68e71e83299d1a57a736fc897d693080152555658a8451e366d11c"},
		{"exact/shards+self", []IndexOption{WithBackend(BackendExact), WithShards(3), WithIncludeSelf(true)},
			"ee521887b24330b6786a280ad2cd48f89facca7cc636ce82f8afb84f1aa12510"},
		{"quantized", []IndexOption{WithBackend(BackendQuantized), WithRerank(6)},
			"b14f88c816f6c29233e357d4bec2776e0c065a9669ad73e88dd4f8fd0270e107"},
		{"pruned", []IndexOption{WithBackend(BackendPruned)},
			"fdffc95ebef82d729419f651adac54a99f3e5d9b4ed30cf69cad1208edaa8bbc"},
		{"hnsw", []IndexOption{WithBackend(BackendHNSW), WithHNSWSeed(7)},
			"6860f266f0344d31ce625f1277c1fe7b1f1b79cbaa469a407f1c309ddc3863e9"},
		{"hnsw+quant", []IndexOption{WithBackend(BackendHNSW), WithHNSWSeed(7), WithHNSWQuantized(true)},
			"2cb0732715e77d1aa0944023d924ab87dfdcd1b4958d12790e1dfcfaa303e3db"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := BuildIndex(emb, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := SaveIndex(&buf, s); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("snapshot SHA-256 = %s, want %s (%d bytes)", got, tc.want, buf.Len())
			}
		})
	}
}
