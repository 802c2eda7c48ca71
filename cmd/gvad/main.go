// Command gvad (GrammarViz Anomaly Daemon) serves grammar-based anomaly
// detection over HTTP.
//
// Usage:
//
//	gvad [-addr :8080] [-cache 64] [-cache-shards 8] [-max-concurrent N]
//	     [-queue M] [-budget-capacity T] [-max-batch 64]
//
// Endpoints:
//
//	POST /v1/analyze        JSON anomaly query: density | rra | hotsax | besteffort | ensemble
//	POST /v1/analyze/batch  request set fanned across the worker pool with
//	                        per-item outcomes (one failing item degrades
//	                        itself, not the batch)
//	POST /v1/stream             open a durable streaming session (id + resume token)
//	POST /v1/stream/{id}/append feed a chunk of points, receive new words +
//	                            closing-window anomaly scores
//	GET  /v1/stream/{id}        session state summary
//	DELETE /v1/stream/{id}      close the session and delete its state
//	GET  /healthz           liveness probe
//	GET  /metrics           Prometheus text-format metrics (request counters,
//	                        latency histogram, cache/coalesce counters by
//	                        kind="detector"|"ensemble", budget stats, and
//	                        gvad_mem_* heap gauges sampled at scrape)
//	GET  /debug/pprof/      net/http/pprof profiles — only with -pprof
//
// Example:
//
//	gvad -addr :8080 &
//	curl -s localhost:8080/v1/analyze -H 'X-Tenant: team-a' -d '{
//	  "mode": "besteffort", "window": 120, "paa": 4, "alphabet": 4,
//	  "k": 3, "timeout_ms": 2000, "series": [ ... ]
//	}'
//
// Repeated queries against the same series and options are served from a
// sharded LRU detector cache (the induced grammar is reused; ensemble
// results have a cache of their own), and concurrent identical cache
// misses coalesce into a single build. Admission charges each request a
// cost (series length × mode weight) against a tenant-keyed token budget
// woken in proportional fair-share order — the only admission path;
// overload is shed with 429/503 carrying a Retry-After.
//
// With -state-dir set, streaming sessions are durable: every append chunk
// is written to a per-session write-ahead log (fsync policy from -fsync)
// before the detector sees it, snapshots compact the log once it outgrows
// the checkpoint by -compact-factor, and on boot every session found in
// the state directory is restored from snapshot + log replay. Sessions
// whose state is corrupt are quarantined (renamed aside with a .corrupt
// suffix and counted in gvad_sessions_quarantined_total) rather than
// failing boot. On SIGINT/SIGTERM the daemon marks itself draining
// (work endpoints answer 503 + Retry-After: 1), waits -drain-notice for
// load balancers to notice, checkpoints dirty sessions, then drains
// in-flight requests before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"grammarviz/internal/memlog"
	"grammarviz/internal/server"
	"grammarviz/internal/worker"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		cacheSize      = flag.Int("cache", 64, "detector cache capacity (entries)")
		cacheShards    = flag.Int("cache-shards", 0, "detector cache shards, rounded to a power of two (0 = 8, -1 = 1)")
		maxConcurrent  = flag.Int("max-concurrent", 0, "concurrent analyses (0 = GOMAXPROCS)")
		queue          = flag.Int("queue", 0, "admission wait-queue bound (0 = the larger of 64 and 2x max-concurrent, -1 = none)")
		budgetCapacity = flag.Int64("budget-capacity", 0, "admission cost capacity in tokens (0 = max-concurrent x default slot cost)")
		maxBatch       = flag.Int("max-batch", 64, "most requests accepted in one /v1/analyze/batch call")
		defTimeout     = flag.Duration("default-timeout", 30*time.Second, "budget for requests that name none (-1s = none)")
		maxTimeout     = flag.Duration("max-timeout", 5*time.Minute, "cap on per-request budgets (-1s = uncapped)")
		maxSeries      = flag.Int("max-series", 2_000_000, "longest accepted series in points (-1 = uncapped)")
		drain          = flag.Duration("drain", 30*time.Second, "shutdown grace period for in-flight requests")
		enablePprof    = flag.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/")

		stateDir      = flag.String("state-dir", "", "directory for durable streaming sessions (empty = memory-only)")
		fsync         = flag.String("fsync", "always", "session WAL fsync policy: always | interval | off")
		fsyncInterval = flag.Duration("fsync-interval", 100*time.Millisecond, "flush period for -fsync interval")
		sessionTTL    = flag.Duration("session-ttl", 15*time.Minute, "evict sessions idle this long (durable ones restore on next touch; -1s = never)")
		maxSessions   = flag.Int("max-sessions", 1024, "most concurrently open streaming sessions")
		compactFactor = flag.Int("compact-factor", 4, "compact a session WAL once it outgrows the snapshot this many times")
		segmentBytes  = flag.Int64("segment-bytes", 4<<20, "rotate session WAL segments at this size")
		drainNotice   = flag.Duration("drain-notice", 0, "after a shutdown signal, keep answering 503s this long before checkpointing (lets load balancers notice)")
	)
	flag.Parse()
	policy, err := memlog.ParseSyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gvad:", err)
		os.Exit(2)
	}
	cfg := server.Config{
		CacheSize:      *cacheSize,
		CacheShards:    *cacheShards,
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *queue,
		BudgetCapacity: *budgetCapacity,
		MaxBatch:       *maxBatch,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		MaxSeriesLen:   *maxSeries,
		EnablePprof:    *enablePprof,
		StateDir:       *stateDir,
		SessionTTL:     *sessionTTL,
		MaxSessions:    *maxSessions,
		FsyncPolicy:    policy,
		FsyncInterval:  *fsyncInterval,
		SegmentBytes:   *segmentBytes,
		CompactFactor:  *compactFactor,
		WriteDelay:     walWriteDelay(),
	}
	if err := run(*addr, cfg, *drain, *drainNotice); err != nil {
		fmt.Fprintln(os.Stderr, "gvad:", err)
		os.Exit(1)
	}
}

// walWriteDelay reads GVAD_WAL_WRITE_DELAY_MS, a crash-test hook that
// widens the torn-write window between a WAL record's header and payload
// so a SIGKILL can land in the middle of an append. Unset in production.
func walWriteDelay() func() {
	ms := os.Getenv("GVAD_WAL_WRITE_DELAY_MS")
	if ms == "" {
		return nil
	}
	d, err := strconv.Atoi(ms)
	if err != nil || d <= 0 {
		return nil
	}
	return func() { time.Sleep(time.Duration(d) * time.Millisecond) }
}

func run(addr string, cfg server.Config, drain, drainNotice time.Duration) error {
	logger := log.New(os.Stderr, "gvad: ", log.LstdFlags)
	cfg.Logf = logger.Printf
	srv := server.New(cfg)
	if cfg.EnablePprof {
		logger.Printf("pprof enabled at /debug/pprof/")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Recover durable sessions BEFORE accepting traffic: a client that
	// resumes against a half-recovered daemon would see 404s for sessions
	// that are about to come back.
	if cfg.StateDir != "" {
		restored, quarantined, err := srv.RecoverSessions(ctx)
		if err != nil {
			return fmt.Errorf("recover sessions: %w", err)
		}
		if restored > 0 || quarantined > 0 {
			logger.Printf("recovered %d session(s), quarantined %d", restored, quarantined)
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logger.Printf("listening on %s (GOMAXPROCS=%d)", ln.Addr(), runtime.GOMAXPROCS(0))

	// Both the accept loop and the drain watcher run on a worker.Group —
	// the same panic-containment and sibling-cancellation discipline the
	// analysis pipeline uses (and that gvadlint's nobarego pass enforces).
	// The group context ends when a signal arrives (parent cancelled) or
	// when Serve fails (sibling error cancels the group); the watcher then
	// drains in-flight requests, after which Serve returns and Wait
	// delivers the first real error.
	g, gctx := worker.WithContext(ctx)
	g.Go(func() error { return srv.Serve(ln) })
	g.Go(func() error { return srv.RunSessionJanitor(gctx, time.Minute) })
	g.Go(func() error {
		<-gctx.Done()
		if ctx.Err() == nil {
			return nil // Serve failed on its own; nothing to drain
		}
		// Shutdown order matters: mark draining first so every new
		// request gets a clean 503 + Retry-After while we wind down,
		// give load balancers a moment to notice, checkpoint every
		// dirty session while the process is still healthy, and only
		// then close the listener and wait out in-flight requests.
		srv.StartDraining()
		if drainNotice > 0 {
			logger.Printf("draining: rejecting new work for %s before checkpoint", drainNotice)
			time.Sleep(drainNotice)
		}
		if err := srv.CheckpointSessions(context.Background()); err != nil {
			logger.Printf("checkpoint on shutdown: %v", err)
		}
		logger.Printf("shutting down, draining in-flight requests (up to %s)", drain)
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return nil
	})
	err = g.Wait()
	srv.CloseSessions()
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		logger.Printf("drained cleanly")
	}
	return nil
}
