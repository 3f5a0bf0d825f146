package nrp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/nrp-embed/nrp/internal/matrix"
)

// Index snapshots persist a built Searcher — embedding plus the
// backend's build-time preprocessing (quantization codes and scales, or
// the norm-sort permutation) — so a serving process boots by reading the
// file instead of re-quantizing or re-sorting.
//
// Format (little-endian): the magic "NRPX", an int64 header
// {version, backend, shards, rerank, includeSelf, n, dim}, the X then Y
// float64 payloads, and a backend-specific payload (quantized: dim
// scales + n·dim int8 codes; pruned: n int32 permutation; HNSW: an exact
// or quantized base followed by the trailing section index_hnsw.go
// documents). The header and embedding are read and written here; each
// payload belongs to its backend's kernel.
const (
	indexMagic   = "NRPX"
	indexVersion = 1
)

// SaveIndex writes a snapshot of a Searcher built by BuildIndex (or
// loaded by LoadIndex). Searcher implementations from outside this
// package are rejected.
func SaveIndex(w io.Writer, s Searcher) error {
	ix, ok := s.(*index)
	if !ok {
		return fmt.Errorf("nrp: SaveIndex: unsupported Searcher %T", s)
	}
	emb, cfg := ix.emb, &ix.cfg
	if cfg.sliceSet {
		// A slice-restricted index holds filtered build state (the pruned
		// backend's permutation); snapshots always persist the full index.
		// Persist an unrestricted build and load it with WithShardSlice.
		return fmt.Errorf("nrp: SaveIndex: index is restricted to shard slice %d/%d; save the full index and pass WithShardSlice at load", cfg.shardIdx, cfg.shardCnt)
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(indexMagic); err != nil {
		return err
	}
	self := int64(0)
	if cfg.includeSelf {
		self = 1
	}
	// A defaulted shard count is host-derived state, not configuration:
	// persist 0 so the serving host re-derives it from its own cores.
	shards := int64(0)
	if cfg.shardsExplicit {
		shards = int64(cfg.shards)
	}
	header := []int64{indexVersion, int64(ix.kern.snapshotBackend()), shards,
		int64(cfg.rerank), self, int64(emb.N()), int64(emb.Dim())}
	for _, h := range header {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	for _, m := range []*matrix.Dense{emb.X, emb.Y} {
		if err := binary.Write(bw, binary.LittleEndian, m.Data); err != nil {
			return err
		}
	}
	if err := ix.kern.writePayload(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadIndex reads a snapshot written by SaveIndex and reconstructs the
// Searcher without redoing build-time preprocessing. Options override the
// snapshot's serving configuration — WithShards to match the host's cores,
// WithRerank, WithIncludeSelf, WithEfSearch for HNSW snapshots — but the
// backend and the HNSW build parameters are part of the payload: passing
// WithBackend with a different backend, or an HNSW build option, is an
// error.
func LoadIndex(r io.Reader, opts ...IndexOption) (Searcher, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("nrp: reading index magic: %w", err)
	}
	if string(magic) != indexMagic {
		return nil, fmt.Errorf("nrp: bad index magic %q", magic)
	}
	var version, backend, shards, rerank, self, n, dim int64
	for _, p := range []*int64{&version, &backend, &shards, &rerank, &self, &n, &dim} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("nrp: reading index header: %w", err)
		}
	}
	if version != indexVersion {
		return nil, fmt.Errorf("nrp: unsupported index version %d", version)
	}
	// Bound each dimension before multiplying so a corrupt header cannot
	// overflow the product into plausibility (or makeslice into a panic).
	if n < 0 || dim < 0 || n > 1<<34 || dim > 1<<24 || (dim > 0 && n > (1<<34)/dim) {
		return nil, fmt.Errorf("nrp: implausible index dimensions %dx%d", n, dim)
	}
	if shards < 0 || shards > 1<<20 || rerank < 0 || rerank > 1<<20 {
		return nil, fmt.Errorf("nrp: implausible index config (shards=%d rerank=%d)", shards, rerank)
	}

	stored := indexConfig{backend: Backend(backend), shards: int(shards),
		shardsExplicit: shards != 0, rerank: int(rerank), includeSelf: self != 0}

	emb := &Embedding{X: matrix.NewDense(int(n), int(dim)), Y: matrix.NewDense(int(n), int(dim))}
	for _, m := range []*matrix.Dense{emb.X, emb.Y} {
		if err := binary.Read(br, binary.LittleEndian, m.Data); err != nil {
			return nil, fmt.Errorf("nrp: reading index embedding: %w", err)
		}
	}

	// Base backend payload.
	if backend < 0 || backend >= int64(len(backends)) || backends[backend].decode == nil {
		return nil, fmt.Errorf("nrp: snapshot names unknown backend %d", backend)
	}
	kern, err := backends[backend].decode(br, emb)
	if err != nil {
		return nil, err
	}

	// Trailing HNSW section. A base-format snapshot simply ends here; any
	// trailing bytes must be a well-formed, checksummed graph section.
	if _, err := br.Peek(1); err == nil {
		if kern, err = readHNSWSection(br, emb, kern, &stored); err != nil {
			return nil, err
		}
	} else if err != io.EOF {
		return nil, fmt.Errorf("nrp: probing for index sections: %w", err)
	}

	ix := &index{emb: emb, cfg: stored, kern: kern}
	cfg := &ix.cfg
	cfg.apply(opts)
	if cfg.backend != stored.backend {
		return nil, fmt.Errorf("nrp: snapshot was built with backend %v, cannot load as %v", stored.backend, cfg.backend)
	}
	if cfg.hnswMExplicit || cfg.hnswEfConsExpl || cfg.hnswSeedExpl || cfg.hnswQuantExpl {
		return nil, fmt.Errorf("nrp: HNSW build parameters are baked into the snapshot; only serving options (WithEfSearch, WithHNSWSeedRows, WithShards, WithRerank, WithIncludeSelf) can be overridden at load: %w", ErrIndexOptionConflict)
	}
	if err := cfg.resolve(int(n)); err != nil {
		return nil, err
	}
	if err := kern.bind(emb, cfg); err != nil {
		return nil, err
	}
	return ix, nil
}
