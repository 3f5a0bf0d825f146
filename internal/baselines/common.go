// Package baselines re-implements the competing network-embedding methods
// the paper evaluates NRP against, spanning its two scalable families:
//
//   - factorization-based: Spectral embedding, RandNE (iterative orthogonal
//     random projection), AROPE (arbitrary-order eigen reweighting) and
//     STRAP (forward-push PPR + transpose proximity + randomized SVD);
//   - random-walk-based: DeepWalk, node2vec, LINE, APP and VERSE, all built
//     on a shared skip-gram-with-negative-sampling (SGNS) trainer.
//
// Deep-neural baselines from the paper (DNGR, GraphGAN, …) are intentionally
// out of scope: they need a neural-network training stack, and this module
// is standard library only.
package baselines

import (
	"math/rand"

	"github.com/nrp-embed/nrp/internal/matrix"
)

// VectorEmbedding is a single-vector-per-node embedding, the output format
// of DeepWalk, node2vec, LINE, VERSE, RandNE and Spectral. Scoring follows
// the paper's protocol for these methods: the inner product of the two
// endpoint vectors.
type VectorEmbedding struct {
	Vecs *matrix.Dense // n×k
}

// N reports the number of embedded nodes.
func (e *VectorEmbedding) N() int { return e.Vecs.Rows }

// Dim reports the embedding dimensionality.
func (e *VectorEmbedding) Dim() int { return e.Vecs.Cols }

// Score returns the inner product of the endpoint vectors.
func (e *VectorEmbedding) Score(u, v int) float64 {
	return matrix.Dot(e.Vecs.Row(u), e.Vecs.Row(v))
}

// Vector returns node v's embedding, aliasing internal storage.
func (e *VectorEmbedding) Vector(v int) []float64 { return e.Vecs.Row(v) }

// Features returns the L2-normalized embedding of v for classification.
func (e *VectorEmbedding) Features(v int) []float64 {
	out := append([]float64(nil), e.Vecs.Row(v)...)
	matrix.NormalizeRow(out)
	return out
}

// initEmbedding fills an n×k matrix with small uniform noise, the standard
// SGNS initialization.
func initEmbedding(n, k int, rng *rand.Rand) *matrix.Dense {
	m := matrix.NewDense(n, k)
	scale := 0.5 / float64(k)
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
	return m
}
