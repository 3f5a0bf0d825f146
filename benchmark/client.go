package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// newHTTPClient caps connections at conns: the generator never holds more
// than nproc of them, so it cannot take more cores from the servers than a
// box of that size has (and, as README.md records, request coalescing
// never forms a round).
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// loadClient sends pre-generated requests to one base URL and checks every
// answer.
type loadClient struct {
	hc   *http.Client
	base string
	chk  checker
	// decorate, when set, edits each outgoing request; the traced replay
	// (one sender) uses it to name the request's root span in a header.
	decorate func(*http.Request)

	errMu    sync.Mutex
	firstErr error // the first failed operation, for the run's report
}

// do sends r and returns the moment the full body had arrived, and whether
// the answer was correct. buf is the caller's scratch space for the body.
func (c *loadClient) do(r *request, buf *bytes.Buffer) (done time.Time, ok bool) {
	err := func() error {
		var body io.Reader
		if r.Body != nil {
			body = bytes.NewReader(r.Body)
		}
		req, err := http.NewRequest(r.Method, c.base+r.Path, body)
		if err != nil {
			return err
		}
		if r.Body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.decorate != nil {
			c.decorate(req)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		done = time.Now()
		if err != nil {
			return err
		}
		return c.chk.check(r, resp.StatusCode, buf.Bytes())
	}()
	if done.IsZero() {
		done = time.Now()
	}
	if err != nil {
		c.errMu.Lock()
		if c.firstErr == nil {
			c.firstErr = err
			fmt.Fprintln(os.Stderr, "benchmark: failed operation:", err)
		}
		c.errMu.Unlock()
	}
	return done, err == nil
}

// closedLoop runs `clients` callers, each sending its next single-source
// query only after the previous answer arrived, for dur. It returns every
// operation's latency in ms, how many failed, and the wall time they took.
func (c *loadClient) closedLoop(reqs []request, clients int, dur time.Duration) (latMs []float64, failed int, elapsed time.Duration) {
	perClient := make([][]float64, clients)
	var nFailed atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(dur)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i, sent := w*len(reqs)/clients, time.Now(); sent.Before(deadline); i++ {
				done, ok := c.do(&reqs[i%len(reqs)], &buf)
				if !ok {
					nFailed.Add(1)
				}
				perClient[w] = append(perClient[w], float64(done.Sub(sent))/float64(time.Millisecond))
				sent = time.Now()
			}
		}(w)
	}
	wg.Wait()
	for _, l := range perClient {
		latMs = append(latMs, l...)
	}
	return latMs, int(nFailed.Load()), time.Since(begin)
}

// outcome is what the open loop records per request.
type outcome struct {
	lat time.Duration // completion minus the time the request was due
	lag time.Duration // actual send minus the time the request was due
	ok  bool
}

// heavy reports whether a class is anything but a sub-millisecond read
// (batches, ppr, updates, refreshes): those go out on their own lane of the
// open loop.
func (k opKind) heavy() bool { return k != opTopK && k != opScore }

// openLoop sends reqs on their pre-generated schedule from `senders`
// goroutines, whatever the server's pace. A request is timed from when it
// was due, not from when a sender got to it, so a stall is charged to every
// request it delayed; how late the generator itself ran is in lag.
//
// The senders (never more than nproc, each with one connection) form two
// lanes: one sender takes the heavy classes, the rest the light ones. With
// two connections shared by all classes, the light requests' tail was the
// generator's own: p99 equalled the p99 of lag, set by how often both
// connections sat in a 20 ms batch at once, and with updates among the
// reads a live run's read p99 still moved 2x from run to run. Two lanes
// are two kinds of caller, readers and the rest, each with its own
// connections; what a batch or a refresh in service costs a read then
// shows as server-side latency, which is the interaction the workloads
// exist to show.
func (c *loadClient) openLoop(reqs []request, senders int) []outcome {
	out := make([]outcome, len(reqs))
	lightSenders, heavySenders := senders, 0
	if senders > 1 {
		lightSenders, heavySenders = senders-1, 1
	}
	var light, heavy []int // indices into reqs, in due order
	for i, r := range reqs {
		if r.Kind.heavy() && heavySenders > 0 {
			heavy = append(heavy, i)
		} else {
			light = append(light, i)
		}
	}
	var wg sync.WaitGroup
	begin := time.Now()
	lane := func(idx []int, n int) {
		next := new(atomic.Int64)
		for s := 0; s < n; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for {
					j := int(next.Add(1)) - 1
					if j >= len(idx) {
						return
					}
					i := idx[j]
					due := begin.Add(reqs[i].Due)
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
					sent := time.Now()
					done, ok := c.do(&reqs[i], &buf)
					out[i] = outcome{lat: done.Sub(due), lag: sent.Sub(due), ok: ok}
				}
			}()
		}
	}
	lane(light, lightSenders)
	lane(heavy, heavySenders)
	wg.Wait()
	return out
}

// phaseStats is an open-loop phase reduced to what the metrics need.
type phaseStats struct {
	lat       [numOps][][]float64 // per class, per window, latencies in ms
	lagMs     []float64
	attempted int
	failed    int
	sloOps    int // operations with a latency limit (topk, ppr)
	sloMissed int
}

// sloLimits are the latency limits behind client.slo_miss_ratio; a failed
// or refused request misses.
type sloLimits struct{ topk, ppr time.Duration }

func reduce(reqs []request, out []outcome, window time.Duration, windows int, slo sloLimits) phaseStats {
	var ps phaseStats
	for k := range ps.lat {
		ps.lat[k] = make([][]float64, windows)
	}
	for i, r := range reqs {
		o := out[i]
		ps.attempted++
		if !o.ok {
			ps.failed++
		}
		w := min(int(r.Due/window), windows-1)
		ps.lat[r.Kind][w] = append(ps.lat[r.Kind][w], float64(o.lat)/float64(time.Millisecond))
		ps.lagMs = append(ps.lagMs, float64(o.lag)/float64(time.Millisecond))
		limit := time.Duration(0)
		switch r.Kind {
		case opTopK:
			limit = slo.topk
		case opPPR:
			limit = slo.ppr
		}
		if limit > 0 {
			ps.sloOps++
			if !o.ok || o.lat > limit {
				ps.sloMissed++
			}
		}
	}
	return ps
}

func (ps *phaseStats) p(kind opKind, q float64) float64 { return windowMedian(ps.lat[kind], q) }

func (ps *phaseStats) sloMissRatio() float64 {
	if ps.sloOps == 0 {
		return 0
	}
	return float64(ps.sloMissed) / float64(ps.sloOps)
}
