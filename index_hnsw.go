package nrp

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"github.com/nrp-embed/nrp/internal/ann"
	"github.com/nrp-embed/nrp/internal/matrix"
	"github.com/nrp-embed/nrp/internal/par"
	"github.com/nrp-embed/nrp/internal/quant"
)

// hnswKernel is the sublinear backend: a hierarchical navigable
// small-world graph (internal/ann) over the backward embedding rows,
// answering each top-k query with a greedy beam search that scores
// O(efSearch·M) candidates instead of all n. Results are approximate —
// recall is bought with a wider beam (WithEfSearch) — which is the only
// backend in this package trading exactness for sublinear query time.
//
// With the quantized coarse stage (WithHNSWQuantized), in-graph scores
// use the fused int8 kernel and the top rerank·k beam survivors are
// re-scored exactly, mirroring the quantized scan backend's contract:
// returned scores are always exact, only ranks can be missed.
type hnswKernel struct {
	g *ann.Index
	// coarse is the quantized scan kernel whose int8 rows score in-graph
	// hops; nil iff the coarse stage is the float64 kernel. It also is the
	// base a snapshot declares, so old readers load the file as a scan.
	coarse *quantKernel
	// seeds holds the ids of the highest-norm rows (descending norm).
	// Each query's beam starts from a prefix of this list — NRP's
	// heavy-tailed norms mean these hubs dominate every top-k answer, so
	// seeding them raises the beam's admission bar immediately and the
	// graph only has to recover the query-specific tail. Derived from the
	// embedding, never persisted.
	seeds []int32
	// qbuf recycles per-query int8 quantization buffers: at a few
	// microseconds per query the two small allocations inside
	// QuantizeQuery are measurable.
	qbuf sync.Pool
}

// hnswSeedPool caps the stored seed list; queries take the leading
// hnswSeedRows entries (default 4·efSearch).
const hnswSeedPool = 1024

// hnswSeedPoolSize sizes the stored list so an explicit WithHNSWSeedRows
// or a wide default beam is never silently clipped.
func hnswSeedPoolSize(cfg *indexConfig) int {
	want := 4 * cfg.efSearch
	if cfg.hnswSeedRowsExpl {
		want = cfg.hnswSeedRows
	}
	if want < hnswSeedPool {
		want = hnswSeedPool
	}
	return want
}

// topNormRows returns the ids of the top-t rows of y by norm (ties by
// ascending id). pool bounds the norm pass; nil runs serially.
func topNormRows(y *matrix.Dense, t int, pool *par.Pool) []int32 {
	n := y.Rows
	if t > n {
		t = n
	}
	if t <= 0 {
		return nil
	}
	norms := make([]float64, n)
	pool.For(n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			r := y.Row(v)
			norms[v] = matrix.Dot(r, r)
		}
	})
	ids := make([]int32, n)
	for v := range ids {
		ids[v] = int32(v)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if norms[a] != norms[b] {
			return norms[a] > norms[b]
		}
		return a < b
	})
	return append([]int32(nil), ids[:t]...)
}

func buildHNSW(emb *Embedding, cfg *indexConfig) kernel {
	// Graph construction parallelizes over the WithThreads budget; the
	// result is bit-identical for every thread count (internal/ann's
	// determinism contract), so snapshots don't depend on the build host.
	pool := par.New(cfg.buildThreads)
	h := &hnswKernel{g: ann.Build(emb.Y, ann.Config{
		M:              cfg.hnswM,
		EfConstruction: cfg.hnswEfCons,
		EfSearch:       cfg.efSearch,
		Seed:           cfg.hnswSeed,
	}, pool)}
	if cfg.hnswQuant {
		h.coarse = newQuantKernel(emb, cfg)
	}
	h.describe(cfg)
	return h
}

// describe writes the parameters the graph was actually built with
// (resolved defaults included) into cfg, so queries and load-time option
// validation see them.
func (h *hnswKernel) describe(cfg *indexConfig) {
	ac := h.g.Config()
	cfg.backend = BackendHNSW
	cfg.hnswM, cfg.hnswEfCons, cfg.efSearch, cfg.hnswSeed = ac.M, ac.EfConstruction, ac.EfSearch, ac.Seed
	cfg.hnswQuant = h.coarse != nil
}

// bind derives the seed list — a single norm pass plus a sort,
// milliseconds at n=100k. Its length depends on the serving options
// (WithEfSearch, WithHNSWSeedRows), which a snapshot load may override.
func (h *hnswKernel) bind(emb *Embedding, cfg *indexConfig) error {
	h.seeds = topNormRows(emb.Y, hnswSeedPoolSize(cfg), par.New(cfg.buildThreads))
	return nil
}

// HNSW snapshots are framed as a valid exact (or, with the quantized
// coarse stage, quantized) snapshot followed by a trailing section: the
// magic "NRPH", int64 {sectionVersion, payloadLen}, the ann graph
// payload, and its CRC-32C. Readers of the base format stop after the
// base payload and never see the section, so an old binary loads the
// same file as a scan index over the identical embedding; readers that
// know the section reconstruct the graph without rebuilding it.
const (
	hnswSectionMagic   = "NRPH"
	hnswSectionVersion = 1
)

// indexCRCTable is the CRC-32C (Castagnoli) table guarding the HNSW
// section payload, matching the NRPG snapshot checksums.
var indexCRCTable = crc32.MakeTable(crc32.Castagnoli)

// snapshotBackend names the base backend an old reader should fall back
// to; the graph itself rides in the trailing section.
func (h *hnswKernel) snapshotBackend() Backend {
	if h.coarse != nil {
		return BackendQuantized
	}
	return BackendExact
}

func (h *hnswKernel) writePayload(bw *bufio.Writer) error {
	if h.coarse != nil {
		if err := h.coarse.writePayload(bw); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	if err := h.g.Encode(&buf); err != nil {
		return err
	}
	if _, err := bw.WriteString(hnswSectionMagic); err != nil {
		return err
	}
	for _, v := range []int64{hnswSectionVersion, int64(buf.Len())} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if _, err := bw.Write(buf.Bytes()); err != nil {
		return err
	}
	return binary.Write(bw, binary.LittleEndian, crc32.Checksum(buf.Bytes(), indexCRCTable))
}

// readHNSWSection parses and verifies the trailing graph section — magic,
// version, length-prefixed payload, CRC-32C, then the graph's own
// structural validation against the embedding it will search — and
// promotes the already-decoded base kernel and its stored configuration
// to the HNSW backend.
func readHNSWSection(br *bufio.Reader, emb *Embedding, base kernel, stored *indexConfig) (kernel, error) {
	magic := make([]byte, len(hnswSectionMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("nrp: reading index section magic: %w", err)
	}
	if string(magic) != hnswSectionMagic {
		return nil, fmt.Errorf("nrp: bad index section magic %q", magic)
	}
	var sversion, plen int64
	for _, p := range []*int64{&sversion, &plen} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("nrp: reading index section header: %w", err)
		}
	}
	if sversion != hnswSectionVersion {
		return nil, fmt.Errorf("nrp: unsupported index section version %d", sversion)
	}
	if plen < 0 || plen > 1<<38 {
		return nil, fmt.Errorf("nrp: implausible index section length %d", plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("nrp: reading index section payload: %w", err)
	}
	var sum uint32
	if err := binary.Read(br, binary.LittleEndian, &sum); err != nil {
		return nil, fmt.Errorf("nrp: reading index section checksum: %w", err)
	}
	if got := crc32.Checksum(payload, indexCRCTable); got != sum {
		return nil, fmt.Errorf("nrp: index section checksum mismatch (stored %08x, computed %08x)", sum, got)
	}
	g, err := ann.Decode(payload, emb.Y)
	if err != nil {
		return nil, fmt.Errorf("nrp: decoding HNSW section: %w", err)
	}
	if stored.backend == BackendPruned {
		return nil, fmt.Errorf("nrp: HNSW section on a pruned base snapshot")
	}
	h := &hnswKernel{g: g}
	h.coarse, _ = base.(*quantKernel)
	h.describe(stored)
	return h, nil
}

// search runs one graph search. A query is a few microseconds of work,
// so shards play no role here and the parallel flag is ignored; TopKMany
// still parallelizes across queries.
func (h *hnswKernel) search(_ context.Context, ix *index, u, k int, _ bool) ([]Neighbor, QueryStats, error) {
	var stats QueryStats
	// The beam must return at least k results plus one slot for a self
	// hit that will be filtered out. The rerank shortlist does NOT widen
	// the beam: re-scoring beam survivors exactly costs ~15ns each, so
	// rerank·k is simply capped by what the beam returns — recall is
	// bought with efSearch (graph work), precision within the beam with
	// rerank (a few exact dots).
	short := k
	if h.coarse != nil {
		short = k * ix.cfg.rerank
	}
	ef := ix.cfg.efSearch
	need := k
	if !ix.cfg.includeSelf {
		need++
	}
	if ef < need {
		ef = need
	}

	var score func(int32) float64
	if h.coarse != nil {
		// Quantized scale factors are positive per-query constants: they
		// cannot change the candidate ordering, so the raw int32 dot
		// drives the search and the exact rerank below restores scores.
		qy := h.coarse.qy
		var qx []int8
		if v, ok := h.qbuf.Get().(*[]int8); ok {
			qx = *v
		} else {
			qx = make([]int8, ix.emb.Dim())
		}
		defer h.qbuf.Put(&qx)
		qy.QuantizeQueryInto(qx, ix.emb.X.Row(u))
		score = func(v int32) float64 { return float64(quant.Dot(qx, qy.Row(int(v)))) }
	} else {
		xu := ix.emb.X.Row(u)
		score = func(v int32) float64 { return matrix.Dot(xu, ix.emb.Y.Row(int(v))) }
	}

	seeds := h.seeds
	t := 4 * ef
	if ix.cfg.hnswSeedRowsExpl {
		t = ix.cfg.hnswSeedRows
	}
	if t > len(seeds) {
		t = len(seeds)
	}
	cands, scanned := h.g.TopCandidatesSeeded(score, ef, seeds[:t])
	stats.Scanned = scanned

	final := newTopkHeap(k)
	taken := 0
	for _, c := range cands {
		if taken == short {
			break
		}
		v := int(c.Node)
		if v == u && !ix.cfg.includeSelf {
			continue
		}
		taken++
		if h.coarse != nil {
			final.offer(v, ix.emb.Score(u, v))
			stats.Reranked++
		} else {
			final.offer(v, c.Score)
		}
	}
	return sortNeighbors(final.items), stats, nil
}
