package nrp

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestEmbedCtxCancelDuringFactorization is the acceptance test for
// cooperative cancellation: on a 100k-node graph, cancelling the context at
// the first factorization progress event must surface ctx.Err() promptly —
// within seconds of the cancel, far under the full embedding time.
func TestEmbedCtxCancelDuringFactorization(t *testing.T) {
	g, err := GenSBM(SBMConfig{N: 100000, M: 500000, Communities: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Dim = 64

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt atomic.Value // time.Time of the cancel call
	emb, stats, err := EmbedCtx(ctx, g, opt, WithProgress(func(ev ProgressEvent) {
		if ev.Phase == PhaseFactorize && cancelledAt.Load() == nil {
			cancelledAt.Store(time.Now())
			cancel()
		}
	}))
	returned := time.Now()

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if emb != nil {
		t.Fatal("cancelled run returned an embedding")
	}
	if stats == nil {
		t.Fatal("cancelled run returned nil stats")
	}
	// The phase ran at least one iteration before the cancel, and the
	// stats must say so even on the error path.
	if stats.KrylovIters < 1 || stats.Factorize.Steps < 1 {
		t.Fatalf("cancelled factorization lost its iteration count: %+v", stats.Factorize)
	}
	at, ok := cancelledAt.Load().(time.Time)
	if !ok {
		t.Fatal("no factorize progress event fired before completion")
	}
	// The abort must land at the next iteration boundary — seconds at this
	// scale, versus tens of seconds for a full k=64 run on 100k nodes.
	if lag := returned.Sub(at); lag > 10*time.Second {
		t.Fatalf("cancellation took %v to surface", lag)
	}
}

func TestEmbedCtxPreCancelled(t *testing.T) {
	g, err := GenSBM(SBMConfig{N: 300, M: 1500, Communities: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := DefaultOptions()
	opt.Dim = 16
	if _, _, err := EmbedCtx(ctx, g, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, _, err := EmbedPPRCtx(ctx, g, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("EmbedPPRCtx: want context.Canceled, got %v", err)
	}
}

func TestLearnWeightsCtxCancelled(t *testing.T) {
	g, err := GenSBM(SBMConfig{N: 300, M: 1500, Communities: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Dim = 16
	emb, _, err := EmbedPPRCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := LearnWeightsCtx(ctx, g, emb, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestEmbedAttributedCtxCancelled(t *testing.T) {
	g, err := GenSBM(SBMConfig{N: 200, M: 1000, Communities: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := GenAttributes(g, 8, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultAttributedOptions()
	opt.Dim = 16
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := EmbedAttributedCtx(ctx, g, attrs, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestEmbedCtxStatsAndProgress(t *testing.T) {
	g, err := GenSBM(SBMConfig{N: 400, M: 2400, Communities: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Dim = 16
	var events []ProgressEvent
	emb, stats, err := EmbedCtx(context.Background(), g, opt, WithProgress(func(ev ProgressEvent) {
		events = append(events, ev)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if emb == nil || stats == nil {
		t.Fatal("nil embedding or stats")
	}
	if stats.KrylovIters <= 0 {
		t.Fatalf("KrylovIters = %d", stats.KrylovIters)
	}
	if stats.AchievedRank <= 0 || stats.AchievedRank > opt.Dim/2 {
		t.Fatalf("AchievedRank = %d", stats.AchievedRank)
	}
	if stats.PPR.Steps != opt.L1-1 {
		t.Fatalf("PPR steps = %d, want %d", stats.PPR.Steps, opt.L1-1)
	}
	// Early stopping (Options.ReweightTol) may converge before the ℓ₂
	// epoch cap; at least two epochs always run so the residual sequence
	// witnesses a decay.
	if stats.Reweight.Steps < 2 || stats.Reweight.Steps > opt.L2 {
		t.Fatalf("Reweight steps = %d, want in [2,%d]", stats.Reweight.Steps, opt.L2)
	}
	if len(stats.ReweightResiduals) != stats.Reweight.Steps {
		t.Fatalf("%d residuals for %d epochs", len(stats.ReweightResiduals), stats.Reweight.Steps)
	}
	if stats.Total <= 0 {
		t.Fatalf("Total = %v", stats.Total)
	}
	// Later epochs should move weights less than the first: the residual
	// sequence witnesses coordinate-descent convergence.
	first, last := stats.ReweightResiduals[0], stats.ReweightResiduals[len(stats.ReweightResiduals)-1]
	if !(last < first) {
		t.Fatalf("residuals did not decay: first=%v last=%v", first, last)
	}

	seen := map[Phase]int{}
	for _, ev := range events {
		seen[ev.Phase]++
		if ev.Step <= 0 || ev.Step > ev.Total {
			t.Fatalf("bad event %+v", ev)
		}
	}
	for _, ph := range []Phase{PhaseFactorize, PhasePPR, PhaseReweight} {
		if seen[ph] == 0 {
			t.Fatalf("no progress events for phase %s (saw %v)", ph, seen)
		}
	}

	var buf bytes.Buffer
	if err := stats.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"factorize", "reweight", "total", "achieved_rank"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered stats missing %q:\n%s", want, out)
		}
	}
}

func TestEmbedCtxValidatesUpFront(t *testing.T) {
	g, err := GenSBM(SBMConfig{N: 50, M: 200, Communities: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Dim = 7 // odd: invalid
	if _, _, err := EmbedCtx(context.Background(), g, opt); err == nil || !strings.Contains(err.Error(), "Dim") {
		t.Fatalf("want Dim validation error, got %v", err)
	}
	if _, _, err := EmbedPPRCtx(context.Background(), g, opt); err == nil || !strings.Contains(err.Error(), "Dim") {
		t.Fatalf("EmbedPPRCtx: want Dim validation error, got %v", err)
	}
}

// TestEmbeddingSaveLoadSaveTextRoundTrip checks Save → Load preserves
// scores exactly and SaveText re-emits the same vectors in text form.
func TestEmbeddingSaveLoadSaveTextRoundTrip(t *testing.T) {
	g, err := GenSBM(SBMConfig{N: 80, M: 350, Communities: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Dim = 8
	emb, _, err := EmbedCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}

	var bin bytes.Buffer
	if err := emb.Save(&bin); err != nil {
		t.Fatal(err)
	}
	back, err := LoadEmbedding(&bin)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N; u += 7 {
		for v := 0; v < g.N; v += 11 {
			if back.Score(u, v) != emb.Score(u, v) {
				t.Fatalf("binary round trip changed Score(%d,%d)", u, v)
			}
		}
	}

	var txtOrig, txtBack bytes.Buffer
	if err := emb.SaveText(&txtOrig); err != nil {
		t.Fatal(err)
	}
	if err := back.SaveText(&txtBack); err != nil {
		t.Fatal(err)
	}
	if txtOrig.String() != txtBack.String() {
		t.Fatal("SaveText after binary round trip differs from original")
	}
	header := strings.SplitN(txtOrig.String(), "\n", 2)[0]
	if header != "80 8" {
		t.Fatalf("SaveText header %q", header)
	}
}
