package dynamic

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/nrp-embed/nrp/internal/core"
	"github.com/nrp-embed/nrp/internal/eval"
	"github.com/nrp-embed/nrp/internal/graph"
)

func testOptions() core.Options {
	opt := core.DefaultOptions()
	opt.Dim = 32
	return opt
}

// evolvingFixture returns a base SBM snapshot plus future edges split into
// an "arriving" batch (applied as updates) and a "held-out" batch (the
// link-prediction test set).
func evolvingFixture(t *testing.T, n, m, mNew int) (g *graph.Graph, arriving, heldOut []graph.Edge) {
	t.Helper()
	old, newEdges, err := graph.GenEvolving(graph.EvolvingConfig{
		Base: graph.SBMConfig{N: n, M: m, Communities: 5, Seed: 3},
		MNew: mNew,
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	half := len(newEdges) / 2
	return old, newEdges[:half], newEdges[half:]
}

func inserts(edges []graph.Edge) []EdgeUpdate {
	ups := make([]EdgeUpdate, len(edges))
	for i, e := range edges {
		ups[i] = EdgeUpdate{U: e.U, V: e.V, Op: OpInsert}
	}
	return ups
}

// futureAUC scores the held-out future edges against sampled non-edges.
func futureAUC(t *testing.T, emb *core.Embedding, g *graph.Graph, heldOut []graph.Edge) float64 {
	t.Helper()
	rng := testRng()
	neg, err := eval.SampleNonEdges(g, len(heldOut), rng)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]float64, len(heldOut))
	for i, e := range heldOut {
		pos[i] = emb.Score(int(e.U), int(e.V))
	}
	negScores := make([]float64, len(neg))
	for i, e := range neg {
		negScores[i] = emb.Score(int(e.U), int(e.V))
	}
	auc, err := eval.AUC(pos, negScores)
	if err != nil {
		t.Fatal(err)
	}
	return auc
}

func testRng() *rand.Rand { return rand.New(rand.NewSource(99)) }

func TestIncrementalTracksFullRecompute(t *testing.T) {
	g, arriving, heldOut := evolvingFixture(t, 400, 2400, 240)
	opt := testOptions()
	ctx := context.Background()

	eng, err := New(ctx, g, opt, Config{Policy: PolicyIncremental, ResidualBudget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	aucStale := futureAUC(t, eng.Embedding(), eng.Graph(), heldOut)

	applied, err := eng.ApplyUpdates(ctx, inserts(arriving))
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(arriving) {
		t.Fatalf("applied %d of %d arriving edges", applied, len(arriving))
	}
	st, err := eng.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != ModeIncremental {
		t.Fatalf("mode %q, want incremental", st.Mode)
	}
	if st.TouchedNodes == 0 || st.PushMass <= 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	if st.Wall <= 0 {
		t.Fatalf("no wall time recorded: %+v", st)
	}
	aucInc := futureAUC(t, eng.Embedding(), eng.Graph(), heldOut)

	// Reference: cold full recompute on the updated graph.
	full, _, err := core.NRPCtx(context.Background(), eng.Graph(), opt)
	if err != nil {
		t.Fatal(err)
	}
	aucFull := futureAUC(t, full, eng.Graph(), heldOut)

	if math.Abs(aucInc-aucFull) > 0.05 {
		t.Fatalf("incremental AUC %.4f drifted from full recompute %.4f (stale was %.4f)",
			aucInc, aucFull, aucStale)
	}
	t.Logf("AUC stale=%.4f incremental=%.4f full=%.4f", aucStale, aucInc, aucFull)
}

func TestApplyUpdatesValidationAndPending(t *testing.T) {
	g, _, _ := evolvingFixture(t, 120, 600, 40)
	ctx := context.Background()
	eng, err := New(ctx, g, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyUpdates(ctx, []EdgeUpdate{{U: 0, V: 999, Op: OpInsert}}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := eng.ApplyUpdates(ctx, []EdgeUpdate{{U: 0, V: 1, Op: Op(42)}}); err == nil {
		t.Fatal("expected unknown-op error")
	}
	if got := eng.Pending(); got != 0 {
		t.Fatalf("pending %d after rejected batches, want 0", got)
	}

	// A fresh edge inserted then removed in one batch cancels out
	// structurally but still counts as two applied updates.
	var e EdgeUpdate
	found := false
	for u := int32(0); u < int32(g.N) && !found; u++ {
		for v := u + 1; v < int32(g.N); v++ {
			if !g.HasEdge(int(u), int(v)) {
				e = EdgeUpdate{U: u, V: v}
				found = true
				break
			}
		}
	}
	before := eng.Graph()
	applied, err := eng.ApplyUpdates(ctx, []EdgeUpdate{
		{U: e.U, V: e.V, Op: OpInsert},
		{U: e.U, V: e.V, Op: OpRemove},
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Fatalf("applied %d, want 2", applied)
	}
	if eng.Graph().NumEdges != before.NumEdges {
		t.Fatalf("edge count drifted: %d -> %d", before.NumEdges, eng.Graph().NumEdges)
	}
	if eng.Pending() != 2 {
		t.Fatalf("pending %d, want 2", eng.Pending())
	}
	if eng.Staleness() <= 0 {
		t.Fatal("staleness should be positive with pending updates")
	}
	if _, err := eng.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending %d after refresh, want 0", eng.Pending())
	}
}

func TestRefreshPolicies(t *testing.T) {
	g, arriving, _ := evolvingFixture(t, 200, 1200, 120)
	ctx := context.Background()
	opt := testOptions()

	t.Run("skip with nothing pending", func(t *testing.T) {
		eng, err := New(ctx, g, opt, Config{})
		if err != nil {
			t.Fatal(err)
		}
		before := eng.Embedding()
		st, err := eng.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Mode != ModeSkipped {
			t.Fatalf("mode %q, want skipped", st.Mode)
		}
		if eng.Embedding() != before {
			t.Fatal("skipped refresh must not install a new embedding")
		}
	})

	t.Run("full policy warm starts", func(t *testing.T) {
		eng, err := New(ctx, g, opt, Config{Policy: PolicyFull})
		if err != nil {
			t.Fatal(err)
		}
		if st := eng.LastStats(); st.Mode != ModeFull || st.WarmStart {
			t.Fatalf("initial embed stats %+v, want cold full", st)
		}
		if _, err := eng.ApplyUpdates(ctx, inserts(arriving[:20])); err != nil {
			t.Fatal(err)
		}
		st, err := eng.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Mode != ModeFull || !st.WarmStart {
			t.Fatalf("refresh stats %+v, want warm full", st)
		}
	})

	t.Run("staleness threshold gates refresh", func(t *testing.T) {
		eng, err := New(ctx, g, opt, Config{Policy: PolicyStaleness, StalenessThreshold: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ApplyUpdates(ctx, inserts(arriving[:10])); err != nil {
			t.Fatal(err)
		}
		st, err := eng.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Mode != ModeSkipped {
			t.Fatalf("mode %q under threshold, want skipped", st.Mode)
		}
		if eng.Pending() == 0 {
			t.Fatal("skipped refresh must keep updates pending")
		}

		eng2, err := New(ctx, g, opt, Config{Policy: PolicyStaleness, StalenessThreshold: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng2.ApplyUpdates(ctx, inserts(arriving[:10])); err != nil {
			t.Fatal(err)
		}
		st, err = eng2.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Mode != ModeIncremental {
			t.Fatalf("mode %q over threshold, want incremental", st.Mode)
		}
	})

	t.Run("residual budget falls back to full", func(t *testing.T) {
		eng, err := New(ctx, g, opt, Config{Policy: PolicyIncremental, ResidualBudget: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ApplyUpdates(ctx, inserts(arriving[:20])); err != nil {
			t.Fatal(err)
		}
		st, err := eng.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Mode != ModeFull || !st.Fallback {
			t.Fatalf("stats %+v, want full fallback", st)
		}
		if st.AccumResidual != 0 {
			// fullRefresh resets the accumulator; the stat reflects the
			// pre-reset value only on the incremental path.
			t.Logf("accum after fallback: %v", st.AccumResidual)
		}
	})
}

func TestRemoveEdgesLowersScores(t *testing.T) {
	g, err := graph.GenSBM(graph.SBMConfig{N: 300, M: 1800, Communities: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng, err := New(ctx, g, testOptions(), Config{Policy: PolicyIncremental, ResidualBudget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	removed := g.Edges()[:30]
	before := eng.Embedding()
	meanBefore := 0.0
	for _, e := range removed {
		meanBefore += before.Score(int(e.U), int(e.V))
	}
	ups := make([]EdgeUpdate, len(removed))
	for i, e := range removed {
		ups[i] = EdgeUpdate{U: e.U, V: e.V, Op: OpRemove}
	}
	if _, err := eng.ApplyUpdates(ctx, ups); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != ModeIncremental {
		t.Fatalf("mode %q, want incremental", st.Mode)
	}
	after := eng.Embedding()
	meanAfter := 0.0
	for _, e := range removed {
		meanAfter += after.Score(int(e.U), int(e.V))
	}
	if meanAfter >= meanBefore {
		t.Fatalf("mean score over removed edges did not drop: %.5f -> %.5f",
			meanBefore/float64(len(removed)), meanAfter/float64(len(removed)))
	}
}

func TestRefreshCancellation(t *testing.T) {
	g, arriving, _ := evolvingFixture(t, 200, 1200, 80)
	eng, err := New(context.Background(), g, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyUpdates(context.Background(), inserts(arriving)); err != nil {
		t.Fatal(err)
	}
	before := eng.Embedding()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Refresh(cancelled); err == nil {
		t.Fatal("expected cancellation error")
	}
	if eng.Embedding() != before {
		t.Fatal("cancelled refresh must not install a new embedding")
	}
	if eng.Pending() == 0 {
		t.Fatal("cancelled refresh must keep updates pending for retry")
	}
	// Retry with a live context succeeds.
	if _, err := eng.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	g, _, _ := evolvingFixture(t, 120, 600, 20)
	ctx := context.Background()
	bad := []Config{
		{Policy: Policy(9)},
		{ResidualBudget: -1},
		{StalenessThreshold: 2},
		{PushRmax: 7},
		{WarmKrylovIters: -2},
	}
	for _, cfg := range bad {
		if _, err := New(ctx, g, testOptions(), cfg); err == nil {
			t.Fatalf("config %+v accepted, want error", cfg)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("expected parse error")
	}
	for _, name := range []string{"full", "incremental", "staleness"} {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != name {
			t.Fatalf("round trip %q -> %q", name, p.String())
		}
	}
}

// TestNoOpUpdatesDoNotTouch: updates skipped as already-present (or
// absent, for removals) must not mark rows touched or charge the
// residual budget — a batch of no-ops leaves Refresh with nothing to do.
func TestNoOpUpdatesDoNotTouch(t *testing.T) {
	g, _, _ := evolvingFixture(t, 150, 800, 30)
	ctx := context.Background()
	eng, err := New(ctx, g, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	existing := g.Edges()[:25]
	ups := make([]EdgeUpdate, 0, len(existing)+1)
	for _, e := range existing {
		ups = append(ups, EdgeUpdate{U: e.U, V: e.V, Op: OpInsert}) // all present
	}
	ups = append(ups, EdgeUpdate{U: 0, V: 0, Op: OpRemove}) // self-loop no-op
	applied, err := eng.ApplyUpdates(ctx, ups)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 0 {
		t.Fatalf("applied %d, want 0", applied)
	}
	if eng.Pending() != 0 || eng.Staleness() != 0 {
		t.Fatalf("pending=%d staleness=%g after no-op batch", eng.Pending(), eng.Staleness())
	}
	st, err := eng.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != ModeSkipped || st.TouchedNodes != 0 {
		t.Fatalf("stats %+v, want skipped with no touched rows", st)
	}

	// Mixed batch: one real edge among the no-ops touches only its own
	// endpoints.
	var fresh EdgeUpdate
	for u := int32(0); u < int32(g.N); u++ {
		if !g.HasEdge(int(u), int(u+1)) && u+1 < int32(g.N) {
			fresh = EdgeUpdate{U: u, V: u + 1, Op: OpInsert}
			break
		}
	}
	mixed := append(append([]EdgeUpdate{}, ups[:10]...), fresh)
	applied, err = eng.ApplyUpdates(ctx, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("applied %d, want 1", applied)
	}
	st, err = eng.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 // both endpoints, forward side
	if !g.Directed {
		want = 4
	}
	if st.Mode != ModeIncremental || st.TouchedNodes != want {
		t.Fatalf("stats %+v, want incremental touching %d rows", st, want)
	}
}

// TestHubRowSurvivesIncrementalRefresh: a source whose degree exceeds
// 1/PushRmax would make the vanilla forward push terminate without a
// single push (its unit residual is below the degree-scaled threshold),
// collapsing the projected row to zero. The engine caps the per-source
// threshold, so hub rows must stay alive and keep ranking their
// neighborhood above non-neighbors.
func TestHubRowSurvivesIncrementalRefresh(t *testing.T) {
	// A star: hub 0 connected to everyone (degree n-1 = 1499 > 1/rmax at
	// the default rmax 1e-3), plus a ring so other nodes have degree > 1.
	n := 1500
	edges := make([]graph.Edge, 0, 2*n)
	for v := int32(1); v < int32(n); v++ {
		edges = append(edges, graph.Edge{U: 0, V: v})
	}
	for v := int32(1); v < int32(n)-1; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1})
	}
	g, err := graph.New(n, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng, err := New(ctx, g, testOptions(), Config{Policy: PolicyIncremental, ResidualBudget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	// Remove one hub edge: the hub's forward row is recomputed by push.
	if _, err := eng.ApplyUpdates(ctx, []EdgeUpdate{{U: 0, V: 7, Op: OpRemove}}); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != ModeIncremental {
		t.Fatalf("mode %q, want incremental", st.Mode)
	}
	emb := eng.Embedding()
	norm := 0.0
	for _, x := range emb.X.Row(0) {
		norm += x * x
	}
	if norm == 0 {
		t.Fatal("hub forward row collapsed to zero after incremental refresh")
	}
	// The hub must still score its (remaining) neighbors above zero on
	// average — a zeroed or garbage row would not.
	mean := 0.0
	for v := 1; v <= 20; v++ {
		if v == 7 {
			continue
		}
		mean += emb.Score(0, v)
	}
	if mean <= 0 {
		t.Fatalf("hub no longer scores its neighborhood: mean %g", mean)
	}
}

// cancelAfterCtx reports cancellation only from the nth Err() call on, so
// tests can abort ApplyUpdates deterministically between op-runs.
type cancelAfterCtx struct {
	context.Context
	calls, after int
}

func (c *cancelAfterCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestApplyUpdatesPartialBatchStaysPending: when a multi-run batch is cut
// short mid-way, the changes already committed must be counted as pending
// so a Pending()-gated refresh loop still absorbs them.
func TestApplyUpdatesPartialBatchStaysPending(t *testing.T) {
	g, arriving, _ := evolvingFixture(t, 150, 800, 40)
	eng, err := New(context.Background(), g, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Two runs: an insert run that succeeds, then a remove run the
	// context cancels before it starts.
	ups := []EdgeUpdate{
		{U: arriving[0].U, V: arriving[0].V, Op: OpInsert},
		{U: arriving[1].U, V: arriving[1].V, Op: OpInsert},
		{U: g.Edges()[0].U, V: g.Edges()[0].V, Op: OpRemove},
	}
	ctx := &cancelAfterCtx{Context: context.Background(), after: 1}
	applied, err := eng.ApplyUpdates(ctx, ups)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if applied != 2 {
		t.Fatalf("applied %d, want the 2 committed inserts", applied)
	}
	if eng.Pending() != 2 {
		t.Fatalf("pending %d after partial batch, want 2", eng.Pending())
	}
	// The committed changes are refreshable.
	st, err := eng.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode == ModeSkipped {
		t.Fatal("refresh skipped the partially applied batch")
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending %d after refresh, want 0", eng.Pending())
	}
}
