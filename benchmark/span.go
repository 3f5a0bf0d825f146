package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// harness around the call (in-program tracing is a later change). IDs are
// indices into the recorder's slice plus one; Parent 0 means a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span belongs to: the name up to the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps spans in memory; they are written out only when the run
// ends. Safe for concurrent use: the in-process servers of a traced run
// record from their own goroutines.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its id.
func (r *recorder) start(name string, parent, req int) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration { return r.endAt(id, time.Now()) }

// endAt closes a span at a moment the caller observed itself.
func (r *recorder) endAt(id int, at time.Time) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = at.Sub(r.epoch).Nanoseconds()
	return r.spans[id-1].dur()
}

// add records a span whose interval is already known, e.g. a phase the
// library timed itself and reported in its stats.
func (r *recorder) add(name string, parent, req int, start time.Time, d time.Duration) int {
	s := start.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: s, End: s + d.Nanoseconds()})
	return id
}

// time runs fn inside a span.
func (r *recorder) time(name string, parent, req int, fn func() error) (time.Duration, error) {
	id := r.start(name, parent, req)
	err := fn()
	return r.end(id), err
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) write(path string) error {
	raw, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns, per span id-1, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other (a fan-out) and may stick out of the parent (clock skew between
// goroutines is impossible here, but a child can outlive a parent that
// returned early); covered time is the union of the children clipped to
// the parent.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ s, e int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].s < ivs[b].s })
		covered, reach := int64(0), s.Start
		for _, k := range ivs {
			lo, hi := max(k.s, reach), min(k.e, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerSelf sums self time by layer over the given spans.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.layer()] += self[i]
	}
	return out
}
