package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/nrp-embed/nrp/internal/telemetry"
)

// env is what one run works with: where the checkout is, where the built
// binaries and scratch files live, how many cores it may use, and every
// child process it has started.
type env struct {
	root    string // checkout root (holds go.mod and cmd/)
	bin     string // nrp, nrpserve, nrprouter built from root
	work    string // this run's scratch directory, removed on exit
	nproc   int    // cap on GOMAXPROCS, sender goroutines and connections
	threads int    // -threads / -shards handed to the programs: min(nproc, 4)
	// trackCommands counts run-to-completion programs toward peak memory,
	// not only servers: set on the build workload, whose subject they are.
	trackCommands bool

	mu       sync.Mutex
	children []*child
	peakKB   atomic.Int64 // max VmHWM over every tracked child in the current epoch
	epochsMB []float64    // that maximum for each finished epoch

	rec *recorder // the traced run's spans; nil with tracing off
}

// buildBinaries compiles the shipped programs into e.bin. It runs before
// any clock starts: compile time is in no metric.
func (e *env) buildBinaries() error {
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator),
		"./cmd/nrp", "./cmd/nrpserve", "./cmd/nrprouter")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build in %s: %w\n%s", e.root, err, out)
	}
	return nil
}

func (e *env) path(name string) string { return filepath.Join(e.work, name) }

// child is one started process. Peak memory is read from /proc's VmHWM
// while the child runs, not from rusage: on Linux a child's ru_maxrss
// starts at the forking parent's resident size (the counter survives
// exec), so with a harness holding a graph every small child would report
// the harness's memory.
type child struct {
	env    *env
	cmd    *exec.Cmd
	name   string
	exited chan struct{} // closed when Wait has returned
	err    error         // Wait's result, valid after exited
	tail   *tailBuffer
}

var vmHWM = regexp.MustCompile(`VmHWM:\s+(\d+) kB`)

func readPeakKB(pid int) int64 {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	m := vmHWM.FindSubmatch(raw)
	if m == nil {
		return 0
	}
	kb, _ := strconv.ParseInt(string(m[1]), 10, 64) // the regexp admits digits only
	return kb
}

func (e *env) notePeak(kb int64) {
	for {
		cur := e.peakKB.Load()
		if kb <= cur || e.peakKB.CompareAndSwap(cur, kb) {
			return
		}
	}
}

// endEpoch closes one repetition of the work that sets peak memory (a
// set-up, a build leg). peak_rss_mb is the median over epochs of the
// largest child in each: where the garbage collector's timing lets a peak
// land differs from run to run, and a maximum over repetitions would
// report the unluckiest.
func (e *env) endEpoch() {
	e.epochsMB = append(e.epochsMB, float64(e.peakKB.Swap(0))/1024)
}

// closePeak ends the last epoch and returns peak_rss_mb.
func (e *env) closePeak() float64 {
	e.endEpoch()
	return median(e.epochsMB)
}

// start launches a program with stderr piped to onLine (and kept in a
// small tail for error reports) and, if track is set, watches its memory
// until it exits.
func (e *env) start(name string, args []string, onLine func(string), track bool) (*child, error) {
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.Dir = e.work
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c := &child{env: e, cmd: cmd, name: name, exited: make(chan struct{}), tail: &tailBuffer{}}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	e.mu.Lock()
	e.children = append(e.children, c)
	e.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			c.tail.add(sc.Text())
			if onLine != nil {
				onLine(sc.Text())
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // a line over 1 MiB stops the scanner; keep the pipe drained
	}()
	go func() {
		<-drained // Wait closes the pipe, so read it dry first
		c.err = cmd.Wait()
		close(c.exited)
	}()
	if !track {
		return c, nil
	}
	go func() {
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			e.notePeak(readPeakKB(cmd.Process.Pid))
			select {
			case <-c.exited:
				return
			case <-t.C:
			}
		}
	}()
	return c, nil
}

// run executes one of the built programs to completion and returns its
// wall time. Its memory counts toward peak_rss_mb on the build workload
// only: on the serving workloads the metric is the serving processes'
// footprint (the fixture's FORA embed alone moves 110 to 160 MB from run
// to run with the garbage collector's timing, which no bound could hold).
func (e *env) run(name string, args ...string) (time.Duration, error) {
	begin := time.Now()
	c, err := e.start(name, args, nil, e.trackCommands)
	if err != nil {
		return 0, err
	}
	<-c.exited
	wall := time.Since(begin)
	if c.err != nil {
		return wall, fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), c.err, c.tail)
	}
	return wall, nil
}

// stop ends a child: SIGTERM, a grace period for the drain, then SIGKILL.
// It returns once the process has been waited for.
func (c *child) stop() {
	select {
	case <-c.exited:
		return
	default:
	}
	c.env.notePeak(readPeakKB(c.cmd.Process.Pid))
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if the child has already exited
	select {
	case <-c.exited:
	case <-time.After(3 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
}

// stopAll ends every child still running; main calls it on every exit path
// and from the signal handler.
func (e *env) stopAll() {
	e.mu.Lock()
	cs := append([]*child(nil), e.children...)
	e.mu.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// tailBuffer keeps the last lines of a child's stderr.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 20 {
		t.lines = t.lines[len(t.lines)-20:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// server is a started nrpserve or nrprouter that answers on base.
type server struct {
	*child
	base string // http://127.0.0.1:port
}

var listening = regexp.MustCompile(`msg=listening addr=(\S+)`)

// serve starts a server program on 127.0.0.1:0, learns the port from its
// "listening" log line and waits until /v1/healthz answers 200.
func (e *env) serve(hc *http.Client, name string, args ...string) (*server, error) {
	addr := make(chan string, 1)
	var once sync.Once
	args = append(args, "-addr", "127.0.0.1:0", "-drain", "1s")
	c, err := e.start(name, args, func(line string) {
		if m := listening.FindStringSubmatch(line); m != nil {
			once.Do(func() { addr <- m[1] })
		}
	}, true)
	if err != nil {
		return nil, err
	}
	s := &server{child: c}
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-c.exited:
		return nil, fmt.Errorf("%s %s exited before listening: %v\n%s", name, strings.Join(args, " "), c.err, c.tail)
	case <-time.After(120 * time.Second):
		c.stop()
		return nil, fmt.Errorf("%s did not start listening within 120s\n%s", name, c.tail)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("%s healthz not ok within 10s (last error: %v)", name, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scrape fetches a Prometheus text page and sums every sample whose name
// (label set ignored) equals one of names.
func scrape(hc *http.Client, base string, names ...string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	samples, err := telemetry.ParseText(string(raw))
	if err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", base, err)
	}
	out := make(map[string]float64, len(names))
	for series, v := range samples {
		if name, _, _ := strings.Cut(series, "{"); slices.Contains(names, name) {
			out[name] += v
		}
	}
	return out, nil
}
