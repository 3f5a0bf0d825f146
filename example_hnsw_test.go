package nrp_test

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"github.com/nrp-embed/nrp"
)

// ExampleBuildIndex_hnsw builds the sublinear ANN backend: a
// deterministic HNSW graph with an int8 coarse stage, whose norm-seeded
// beam scans a fraction of the candidates per query. The snapshot
// round-trip reloads the graph without rebuilding, overriding the
// serving-time beam width.
func ExampleBuildIndex_hnsw() {
	ctx := context.Background()
	g, err := nrp.GenSBM(nrp.SBMConfig{N: 400, M: 2400, Communities: 4, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	opt := nrp.DefaultOptions()
	opt.Dim = 16
	emb, _, err := nrp.EmbedCtx(ctx, g, opt)
	if err != nil {
		log.Fatal(err)
	}

	// Build: beam search over an HNSW graph instead of a scan. In-graph
	// scores use the fused int8 kernel and beam survivors are re-scored
	// exactly; each query's beam is pre-seeded with the 64 highest-norm
	// rows, so a narrow beam only recovers the query-specific tail.
	s, err := nrp.BuildIndex(emb,
		nrp.WithBackend(nrp.BackendHNSW),
		nrp.WithHNSWQuantized(true),
		nrp.WithEfSearch(24),
		nrp.WithHNSWSeedRows(64))
	if err != nil {
		log.Fatal(err)
	}

	// The approximate backend's contract: high recall against the exact
	// scan at sublinear per-query work.
	exact, err := nrp.BuildIndex(emb)
	if err != nil {
		log.Fatal(err)
	}
	const k, queries = 5, 20
	hits, scanned := 0, 0
	for u := 0; u < queries; u++ {
		want, err := exact.TopK(ctx, u, k)
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.TopKMany(ctx, []int{u}, k)
		if err != nil {
			log.Fatal(err)
		}
		in := make(map[int]bool, k)
		for _, nb := range want {
			in[nb.Node] = true
		}
		for _, nb := range res[0].Neighbors {
			if in[nb.Node] {
				hits++
			}
		}
		if res[0].Stats.Scanned > scanned {
			scanned = res[0].Stats.Scanned
		}
	}
	fmt.Printf("recall@%d over %d queries: %.2f\n", k, queries, float64(hits)/float64(k*queries))
	fmt.Printf("sublinear: max %d of %d candidates scored\n", scanned, s.N())

	// Snapshot: the graph is persisted — the reload binds it without
	// rebuilding, and serving knobs may be overridden at load time.
	var snap bytes.Buffer
	if err := nrp.SaveIndex(&snap, s); err != nil {
		log.Fatal(err)
	}
	loaded, err := nrp.LoadIndex(&snap, nrp.WithEfSearch(48))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded hnsw index over %d nodes\n", loaded.N())
	// Output:
	// recall@5 over 20 queries: 1.00
	// sublinear: max 262 of 400 candidates scored
	// reloaded hnsw index over 400 nodes
}
