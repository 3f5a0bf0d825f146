// Command nrprouter is the stateless scatter-gather front for a sharded
// nrpserve fleet: N processes each booted with -shard i/N over the same
// index snapshot, answering top-k queries over disjoint node-range
// slices.
//
// Usage:
//
//	nrprouter -shards http://h0:8080,http://h1:8080,http://h2:8080
//	          [-addr :8090] [-timeout 2s] [-hedge-after 500ms]
//	          [-health-interval 2s] [-boot-timeout 30s] [-drain 10s]
//
// At boot the router polls every shard's /v1/healthz until all answer
// (or -boot-timeout), then validates that the advertised slices form a
// complete partition of the node space — a fleet booted with mismatched
// -shard flags is a deployment error and is rejected loudly. From then
// on it serves:
//
//	GET  /v1/healthz   fleet status: ok or degraded, per-shard rotation state
//	GET  /v1/topk?u=42&k=10
//	POST /v1/topk      {"us":[1,2,3],"k":10}
//	POST /v1/score     {"pairs":[[0,1],[2,3]]}   (forwarded round-robin)
//	GET  /metrics      Prometheus text exposition
//
// /v1/topk fans out to every healthy shard with the full k, merges the
// exact scores and truncates — bit-identical to a single unsharded
// server for the exact and pruned backends. Shard calls run under
// -timeout with a hedged second attempt after -hedge-after; a shard that
// still fails drops out of rotation (the -health-interval probe loop
// restores it) and responses degrade gracefully with "partial": true
// rather than failing — watch nrp_router_degraded and
// nrp_router_partial_responses_total.
//
// On SIGINT/SIGTERM the router stops accepting connections and drains
// in-flight fan-outs for up to -drain before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/nrp-embed/nrp/internal/router"
	"github.com/nrp-embed/nrp/internal/serve"
)

// defaultLogLevel seeds the -log-level flag; the test harness lowers it
// to "error" so e2e tests stay quiet.
var defaultLogLevel = "info"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nrprouter:", err)
		os.Exit(1)
	}
}

type bootConfig struct {
	rt     *router.Router
	addr   string
	drain  time.Duration
	logger *slog.Logger
}

// newRouterFromFlags parses args and boots the router (including shard
// discovery and partition validation); separated from run so tests can
// drive the handler without binding a port.
func newRouterFromFlags(ctx context.Context, args []string) (*bootConfig, error) {
	fs := flag.NewFlagSet("nrprouter", flag.ContinueOnError)
	var (
		shardList  = fs.String("shards", "", "comma-separated shard base URLs (required)")
		addr       = fs.String("addr", ":8090", "listen address")
		timeout    = fs.Duration("timeout", 2*time.Second, "per-attempt shard request timeout")
		hedgeAfter = fs.Duration("hedge-after", 0, "delay before a hedged second shard attempt (default timeout/4, negative disables)")
		healthIntv = fs.Duration("health-interval", 2*time.Second, "background shard health probe period")
		bootWait   = fs.Duration("boot-timeout", 30*time.Second, "how long to wait for all shards at boot")
		drain      = fs.Duration("drain", 10*time.Second, "in-flight request drain window on shutdown")
		maxK       = fs.Int("max-k", 1000, "largest k a request may ask for")
		maxBatch   = fs.Int("max-batch", 1024, "largest batch of sources or pairs per request")
		logFormat  = fs.String("log-format", "text", "structured log format: text or json")
		logLevel   = fs.String("log-level", defaultLogLevel, "minimum log level: debug, info, warn or error")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	logger, err := serve.NewLogger(*logFormat, *logLevel)
	if err != nil {
		return nil, err
	}
	if *shardList == "" {
		fs.Usage()
		return nil, fmt.Errorf("-shards is required")
	}
	var urls []string
	for _, u := range strings.Split(*shardList, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			urls = append(urls, u)
		}
	}
	start := time.Now()
	rt, err := router.New(ctx, router.Config{
		Shards:         urls,
		Timeout:        *timeout,
		HedgeAfter:     *hedgeAfter,
		HealthInterval: *healthIntv,
		BootTimeout:    *bootWait,
		MaxK:           *maxK,
		MaxBatch:       *maxBatch,
		Logger:         logger,
	})
	if err != nil {
		return nil, err
	}
	logger.Info("shard fleet validated", "shards", len(urls),
		"wall", time.Since(start).Round(time.Millisecond))
	return &bootConfig{rt: rt, addr: *addr, drain: *drain, logger: logger}, nil
}

func run(ctx context.Context, args []string) error {
	cfg, err := newRouterFromFlags(ctx, args)
	if err != nil {
		return err
	}
	// The health loop runs under its own cancelable context so it is
	// stopped (and joined) even when Serve returns an error without the
	// signal context ever firing.
	loopCtx, stopLoop := context.WithCancel(ctx)
	defer stopLoop()
	healthDone := make(chan struct{})
	go func() {
		defer close(healthDone)
		cfg.rt.Run(loopCtx)
	}()
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	cfg.logger.Info("listening", "addr", ln.Addr().String(), "drain", cfg.drain)
	err = serve.Serve(ctx, ln, cfg.rt.Handler(), cfg.drain)
	stopLoop()
	<-healthDone
	return err
}
