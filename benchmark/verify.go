package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/nrp-embed/nrp"
)

// neighbor is one ranked answer.
type neighbor struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// The response shapes, as a client of the HTTP API sees them.
type topkResponse struct {
	K       int `json:"k"`
	Results []struct {
		U         int        `json:"u"`
		Neighbors []neighbor `json:"neighbors"`
	} `json:"results"`
	Partial bool `json:"partial"`
}

type scoreResponse struct {
	Scores []float64 `json:"scores"`
}

type pprResponse struct {
	Scores []neighbor `json:"scores"`
}

type updateResponse struct {
	Applied int `json:"applied"`
	Pending int `json:"pending"`
}

type refreshResponse struct {
	Mode string `json:"mode"`
}

// dot is the plain left-to-right inner product the serving kernels use.
func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// bruteTopK computes, for every pool source, the exact k best targets by
// scoring all n candidates: score descending, node ascending, the source
// itself excluded. This is the ground truth the static serving workloads
// are checked against; it reads only the embedding file's matrices.
func bruteTopK(emb *nrp.Embedding, pool []int32, k, workers int) [][]neighbor {
	n := emb.N()
	truth := make([][]neighbor, len(pool))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pool); i += workers {
				u := int(pool[i])
				xu := emb.Forward(u)
				best := make([]neighbor, 0, k+1)
				for v := 0; v < n; v++ {
					if v == u {
						continue
					}
					s := dot(xu, emb.Backward(v))
					if len(best) == k && s <= best[k-1].Score {
						continue // ties keep the lower node id, which came first
					}
					j := len(best)
					best = append(best, neighbor{})
					for j > 0 && best[j-1].Score < s {
						best[j] = best[j-1]
						j--
					}
					best[j] = neighbor{v, s}
					if len(best) > k {
						best = best[:k]
					}
				}
				truth[i] = best
			}
		}(w)
	}
	wg.Wait()
	return truth
}

// closeEnough compares two scores that should be the same inner product.
// The tolerance admits a kernel that sums in another order (unrolled or
// vectorised), not a different answer: scores here are ~1e-3 and distinct
// ranks differ by far more than one part in 1e9.
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// checker decides whether a response answers its request correctly.
type checker interface {
	check(r *request, status int, body []byte) error
}

// exactChecker holds the static serving workloads to the brute-forced
// ground truth: every returned score must equal both the truth's score at
// that rank and the embedding's own inner product for the returned node,
// so a routed merge has to equal the single-node exact answer.
type exactChecker struct {
	emb   *nrp.Embedding
	pool  []int32
	truth [][]neighbor
}

func (c *exactChecker) checkRanking(pi int, u int, got []neighbor) error {
	want := c.truth[pi]
	if len(got) != len(want) {
		return fmt.Errorf("source %d: %d neighbors, want %d", u, len(got), len(want))
	}
	xu := c.emb.Forward(u)
	for i, nb := range got {
		switch {
		case nb.Node < 0 || nb.Node >= c.emb.N():
			return fmt.Errorf("source %d rank %d: node %d out of range", u, i, nb.Node)
		case nb.Node == u:
			return fmt.Errorf("source %d rank %d: returned the source itself", u, i)
		case slices.ContainsFunc(got[:i], func(prev neighbor) bool { return prev.Node == nb.Node }):
			return fmt.Errorf("source %d rank %d: node %d repeated", u, i, nb.Node)
		case !closeEnough(nb.Score, want[i].Score):
			return fmt.Errorf("source %d rank %d: score %v, exact answer has %v (node %d)", u, i, nb.Score, want[i].Score, want[i].Node)
		case !closeEnough(nb.Score, dot(xu, c.emb.Backward(nb.Node))):
			return fmt.Errorf("source %d rank %d: score %v is not X_u.Y_%d", u, i, nb.Score, nb.Node)
		}
	}
	return nil
}

func (c *exactChecker) check(r *request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", r.Method, r.Path, status, body)
	}
	switch r.Kind {
	case opTopK, opBatch:
		var resp topkResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Partial {
			return fmt.Errorf("%s: partial answer", r.Path)
		}
		if len(resp.Results) != len(r.Srcs) {
			return fmt.Errorf("%s: %d results for %d sources", r.Path, len(resp.Results), len(r.Srcs))
		}
		for j, pi := range r.Srcs {
			u := int(c.pool[pi])
			if resp.Results[j].U != u {
				return fmt.Errorf("%s: result %d is for source %d, want %d", r.Path, j, resp.Results[j].U, u)
			}
			if err := c.checkRanking(int(pi), u, resp.Results[j].Neighbors); err != nil {
				return err
			}
		}
	case opScore:
		var resp scoreResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Scores) != len(r.Pairs) {
			return fmt.Errorf("score: %d scores for %d pairs", len(resp.Scores), len(r.Pairs))
		}
		for j, p := range r.Pairs {
			if want := c.emb.Score(int(p[0]), int(p[1])); !closeEnough(resp.Scores[j], want) {
				return fmt.Errorf("score pair (%d,%d): %v, want %v", p[0], p[1], resp.Scores[j], want)
			}
		}
	default:
		return fmt.Errorf("no ground truth for %s on a static server", r.Kind)
	}
	return nil
}

// shapeChecker is the live workload's check. The served embedding moves
// with every refresh, so answers are held to their shape: k results, best
// first, no self, ids in range; PPR mass at most 1.
type shapeChecker struct {
	n    int
	pool []int32
	// pendingMax is the largest update backlog any /v1/update answer
	// reported (the traced run's live.pending_max).
	pendingMax atomic.Int64
}

func (c *shapeChecker) ranking(u int, got []neighbor, k int, allowSelf, exactK bool) error {
	if len(got) == 0 || len(got) > k || (exactK && len(got) != k) {
		return fmt.Errorf("source %d: %d results for k=%d", u, len(got), k)
	}
	for i, nb := range got {
		switch {
		case nb.Node < 0 || nb.Node >= c.n:
			return fmt.Errorf("source %d rank %d: node %d out of range", u, i, nb.Node)
		case !allowSelf && nb.Node == u:
			return fmt.Errorf("source %d rank %d: returned the source itself", u, i)
		case i > 0 && nb.Score > got[i-1].Score:
			return fmt.Errorf("source %d rank %d: scores not descending", u, i)
		}
	}
	return nil
}

func (c *shapeChecker) check(r *request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", r.Method, r.Path, status, body)
	}
	switch r.Kind {
	case opTopK, opBatch:
		var resp topkResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Results) != len(r.Srcs) {
			return fmt.Errorf("%s: %d results for %d sources", r.Path, len(resp.Results), len(r.Srcs))
		}
		for j, pi := range r.Srcs {
			if err := c.ranking(int(c.pool[pi]), resp.Results[j].Neighbors, topK, false, true); err != nil {
				return err
			}
		}
	case opScore:
		var resp scoreResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Scores) != len(r.Pairs) {
			return fmt.Errorf("score: %d scores for %d pairs", len(resp.Scores), len(r.Pairs))
		}
		for _, s := range resp.Scores {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				return fmt.Errorf("score: non-finite value")
			}
		}
	case opPPR:
		var resp pprResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		// A seed with few reachable nodes has fewer than k candidates, and
		// the seed itself carries the restart mass.
		if err := c.ranking(int(r.Srcs[0]), resp.Scores, topK, true, false); err != nil {
			return err
		}
		mass := 0.0
		for _, nb := range resp.Scores {
			mass += nb.Score
		}
		if mass > 1+1e-9 {
			return fmt.Errorf("ppr from %d: mass %v exceeds 1", r.Srcs[0], mass)
		}
	case opUpdate:
		var resp updateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Applied < 0 || resp.Applied > len(r.Pairs) {
			return fmt.Errorf("update: applied %d of %d", resp.Applied, len(r.Pairs))
		}
		for p := int64(resp.Pending); ; {
			cur := c.pendingMax.Load()
			if p <= cur || c.pendingMax.CompareAndSwap(cur, p) {
				break
			}
		}
	case opRefresh:
		var resp refreshResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Mode == "" {
			return fmt.Errorf("refresh: no mode in %.200s", body)
		}
	}
	return nil
}
