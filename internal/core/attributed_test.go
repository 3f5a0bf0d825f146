package core

import (
	"context"
	"math"
	"testing"

	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/matrix"
)

func attrGraph(t testing.TB) (*graph.Graph, *matrix.Dense) {
	t.Helper()
	g, err := graph.GenSBM(graph.SBMConfig{N: 300, M: 1800, Communities: 5, IntraFrac: 0.9, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := graph.GenAttributes(g, 12, 1.5, 62)
	if err != nil {
		t.Fatal(err)
	}
	return g, matrix.NewDenseFromRows(rows)
}

func TestAttributedOptionsValidate(t *testing.T) {
	if err := DefaultAttributedOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultAttributedOptions()
	bad.Beta = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("Beta > 1 accepted")
	}
	bad = DefaultAttributedOptions()
	bad.AttrDim = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative AttrDim accepted")
	}
	bad = DefaultAttributedOptions()
	bad.Dim = 3
	if err := bad.Validate(); err == nil {
		t.Fatal("odd Dim accepted via embedded options")
	}
}

func TestNRPAttributedShapes(t *testing.T) {
	g, attrs := attrGraph(t)
	opt := DefaultAttributedOptions()
	opt.Dim = 16
	opt.Seed = 5
	emb, _, err := NRPAttributedCtx(context.Background(), g, attrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if emb.Attr.Rows != g.N || emb.Attr.Cols != attrs.Cols {
		t.Fatalf("attr shape %dx%d", emb.Attr.Rows, emb.Attr.Cols)
	}
	f := emb.Features(0)
	if len(f) != 16+attrs.Cols {
		t.Fatalf("feature length %d", len(f))
	}
	// Attribute rows are unit-norm.
	for v := 0; v < g.N; v++ {
		if n := matrix.Norm2(emb.Attr.Row(v)); math.Abs(n-1) > 1e-9 && n != 0 {
			t.Fatalf("row %d norm %v", v, n)
		}
	}
}

func TestNRPAttributedRejectsMismatchedRows(t *testing.T) {
	g, _ := attrGraph(t)
	opt := DefaultAttributedOptions()
	opt.Dim = 8
	if _, _, err := NRPAttributedCtx(context.Background(), g, matrix.NewDense(3, 4), opt); err == nil {
		t.Fatal("mismatched attribute rows accepted")
	}
}

// Propagation is denoising: within a community, smoothed attributes are
// more tightly clustered around their mean than raw noisy attributes.
func TestPropagationSmoothsWithinCommunities(t *testing.T) {
	g, attrs := attrGraph(t)
	opt := DefaultAttributedOptions()
	opt.Dim = 8
	smoothed := PropagateAttributes(g, attrs, opt)
	// Normalize raw rows for a fair comparison.
	raw := attrs.Clone()
	for v := 0; v < g.N; v++ {
		matrix.NormalizeRow(raw.Row(v))
	}
	spread := func(m *matrix.Dense) float64 {
		total := 0.0
		for c := int32(0); c < int32(g.NumLabels); c++ {
			var members []int
			for v := 0; v < g.N; v++ {
				if g.Labels[v][0] == c {
					members = append(members, v)
				}
			}
			if len(members) < 2 {
				continue
			}
			mean := make([]float64, m.Cols)
			for _, v := range members {
				matrix.Axpy(1, m.Row(v), mean)
			}
			for j := range mean {
				mean[j] /= float64(len(members))
			}
			for _, v := range members {
				diff := append([]float64(nil), m.Row(v)...)
				matrix.Axpy(-1, mean, diff)
				total += matrix.Dot(diff, diff)
			}
		}
		return total
	}
	if spread(smoothed) >= spread(raw) {
		t.Fatalf("propagation did not smooth: %v >= %v", spread(smoothed), spread(raw))
	}
}

// With informative attributes, attribute-aware scoring separates intra-
// community pairs better than β=0 (pure topology) on noisy attributes.
func TestAttributedScoreBlendsChannels(t *testing.T) {
	g, attrs := attrGraph(t)
	opt := DefaultAttributedOptions()
	opt.Dim = 16
	opt.Seed = 6
	emb, _, err := NRPAttributedCtx(context.Background(), g, attrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	// β=0 must reduce to the topology score.
	zero := *emb
	zero.Beta = 0
	if math.Abs(zero.Score(1, 2)-emb.Topology.Score(1, 2)) > 1e-12 {
		t.Fatal("β=0 should equal topology score")
	}
	// β=1 must reduce to attribute cosine.
	one := *emb
	one.Beta = 1
	want := matrix.Dot(emb.Attr.Row(1), emb.Attr.Row(2))
	if math.Abs(one.Score(1, 2)-want) > 1e-12 {
		t.Fatal("β=1 should equal attribute similarity")
	}
}

func TestPropagateAttributesProjection(t *testing.T) {
	g, attrs := attrGraph(t)
	opt := DefaultAttributedOptions()
	opt.Dim = 8
	opt.AttrDim = 4
	smoothed := PropagateAttributes(g, attrs, opt)
	if smoothed.Cols != 4 {
		t.Fatalf("projection ignored: %d cols", smoothed.Cols)
	}
	// AttrDim larger than input width keeps the input width.
	opt.AttrDim = 99
	if got := PropagateAttributes(g, attrs, opt); got.Cols != attrs.Cols {
		t.Fatalf("oversized AttrDim should keep width, got %d", got.Cols)
	}
}
