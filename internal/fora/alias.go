package fora

import "github.com/nrp-embed/nrp/internal/splitmix"

// aliasTable samples from a discrete distribution in O(1) per draw using
// Vose's alias method. The walk phase draws millions of start nodes from
// the residual distribution left by forward push; a linear or binary
// cumulative search would make start sampling the bottleneck, while the
// alias table costs O(support) to build once per query and two table reads
// per draw. Buffers are retained and reused across queries via the engine
// workspace pool, so steady-state queries build tables with zero
// allocation.
type aliasTable struct {
	prob  []float64 // acceptance threshold per slot
	alias []int32   // fallback slot when the draw rejects
	// small/large are the work stacks of Vose's construction, kept to
	// reuse their capacity.
	small, large []int32
}

// build initializes the table over weights w (w[i] >= 0, sum > 0). Slot i
// corresponds to index i of w; sample returns such an index.
func (t *aliasTable) build(w []float64) {
	n := len(w)
	t.prob = append(t.prob[:0], w...)
	if cap(t.alias) < n {
		t.alias = make([]int32, n)
	}
	t.alias = t.alias[:n]
	t.small, t.large = t.small[:0], t.large[:0]

	sum := 0.0
	for _, x := range w {
		sum += x
	}
	scale := float64(n) / sum
	for i := range t.prob {
		t.prob[i] *= scale
		if t.prob[i] < 1 {
			t.small = append(t.small, int32(i))
		} else {
			t.large = append(t.large, int32(i))
		}
	}
	for len(t.small) > 0 && len(t.large) > 0 {
		s := t.small[len(t.small)-1]
		t.small = t.small[:len(t.small)-1]
		l := t.large[len(t.large)-1]
		t.alias[s] = l
		// Donate the slack of slot s from slot l's mass.
		t.prob[l] -= 1 - t.prob[s]
		if t.prob[l] < 1 {
			t.large = t.large[:len(t.large)-1]
			t.small = append(t.small, l)
		}
	}
	// Float round-off can leave stragglers on either stack; they are all
	// (numerically) exactly 1.
	for _, i := range t.small {
		t.prob[i] = 1
		t.alias[i] = i
	}
	for _, i := range t.large {
		t.prob[i] = 1
		t.alias[i] = i
	}
}

// sample draws a slot index using two uniforms from rng. Safe for
// concurrent use by multiple readers once built.
func (t *aliasTable) sample(rng *splitmix.RNG) int32 {
	i := rng.Intn(len(t.prob))
	if rng.Float64() < t.prob[i] {
		return int32(i)
	}
	return t.alias[i]
}
