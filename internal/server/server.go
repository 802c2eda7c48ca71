// Package server implements gvad's HTTP API: POST /v1/analyze and
// POST /v1/analyze/batch answering density/RRA/HOTSAX/best-effort anomaly
// queries with per-request deadlines, GET /healthz, and GET /metrics in
// the Prometheus text format.
//
// Five properties make it a service rather than a CLI wrapper:
//
//   - Detector caching: analyses are keyed by grammarviz.Fingerprint
//     (series bits + grammar-relevant options), so repeated queries
//     against the same series reuse the induced grammar instead of
//     re-running discretization and Sequitur. Ensemble results are
//     cached the same way under grammarviz.EnsembleFingerprint. Each
//     cache is sharded N ways by key prefix so concurrent requests do
//     not serialize on one LRU lock.
//   - Request coalescing: concurrent identical queries that miss the
//     cache share a single induction (internal/coalesce); a cancelled
//     waiter detaches without killing the shared flight.
//   - Admission control: requests are admitted against a tenant-keyed
//     cost budget (internal/budget) where cost is estimated from series
//     length × mode, so heavy work is charged proportionally and one hot
//     tenant cannot starve the rest; overload is shed with 429/503
//     carrying a Retry-After derived from the queue depth.
//   - Batching: /v1/analyze/batch fans a request set across the worker
//     pool with per-item admission and per-item outcomes, so one failing
//     item degrades itself, not the batch.
//   - Containment: each analysis runs inside an internal/worker group, so
//     a panic surfaces as a 500 response, never a crash; deadlines map
//     onto the DiscordsBestEffort degradation ladder, so a slow query
//     returns a partial or fallback answer instead of an error.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"grammarviz"
	"grammarviz/internal/budget"
	"grammarviz/internal/discord"
	"grammarviz/internal/memlog"
	"grammarviz/internal/metrics"
	"grammarviz/internal/modes"
	"grammarviz/internal/timeseries"
	"grammarviz/internal/worker"
)

// Config tunes the daemon. The zero value selects sane defaults; see each
// field. Fields that must distinguish "unset" from "none" use -1 for
// none.
type Config struct {
	// CacheSize is the detector cache capacity in entries (default 64),
	// divided evenly across CacheShards.
	CacheSize int
	// CacheShards is the number of independently locked detector-cache
	// shards, rounded up to a power of two (default 8; -1 selects 1).
	CacheShards int
	// MaxConcurrent sizes the default BudgetCapacity and the Retry-After
	// estimate (default GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for admission beyond capacity;
	// overflow is shed with 429. The default is a deep queue (64, or
	// 2*MaxConcurrent if larger): fair-share wake order prevents
	// head-of-line starvation and per-request deadlines bound the wait, so
	// queueing converts would-be sheds into slightly later answers instead
	// of burning CPU on reject/retry cycles. -1 disables queueing.
	MaxQueue int
	// BudgetCapacity is the admission pool in cost tokens (series points
	// × mode weight); default MaxConcurrent × budget.DefaultSlotCost.
	BudgetCapacity int64
	// MaxBatch caps the items of one /v1/analyze/batch request
	// (default 64).
	MaxBatch int
	// DefaultTimeout applies to requests that name no timeout_ms
	// (default 30s; -1 means no default).
	DefaultTimeout time.Duration
	// MaxTimeout caps every request's budget (default 5m; -1 uncapped).
	MaxTimeout time.Duration
	// MaxSeriesLen rejects longer series with 400 (default 2,000,000
	// points; -1 uncapped).
	MaxSeriesLen int
	// MaxBodyBytes caps the request body (default 64 MiB).
	MaxBodyBytes int64
	// EnablePprof mounts net/http/pprof's handlers under GET
	// /debug/pprof/ (CPU, heap, allocs, goroutine, ...). Off by default:
	// profiles expose internals and cost CPU, so production deployments
	// opt in explicitly (gvad -pprof).
	EnablePprof bool
	// Logf, when set, receives one line per shed or failed request.
	Logf func(format string, args ...any)

	// StateDir is where streaming sessions persist (one subdirectory per
	// session holding a checkpoint snapshot plus a write-ahead memlog).
	// Empty disables durability: sessions live in memory only and idle
	// eviction closes them outright.
	StateDir string
	// SessionTTL evicts sessions idle for longer (checkpoint-then-drop,
	// restorable on next touch). Default 15m; -1 disables eviction.
	SessionTTL time.Duration
	// MaxSessions bounds concurrently open sessions (default 1024).
	MaxSessions int
	// FsyncPolicy selects when session WAL appends reach stable storage
	// (default memlog.SyncAlways).
	FsyncPolicy memlog.SyncPolicy
	// FsyncInterval is the SyncInterval flush period (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates session WAL segments at this size (default
	// 4 MiB).
	SegmentBytes int64
	// CompactFactor triggers snapshot compaction once a session's WAL
	// exceeds this multiple of its snapshot size (default 4).
	CompactFactor int
	// WriteDelay, when set, is injected between a WAL record's header and
	// payload writes — the crash-test hook that widens the torn-write
	// window.
	WriteDelay func()
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 64
	}
	switch {
	case c.CacheShards == 0:
		c.CacheShards = 8
	case c.CacheShards < 0:
		c.CacheShards = 1
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = max(64, 2*c.MaxConcurrent)
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.BudgetCapacity <= 0 {
		c.BudgetCapacity = int64(c.MaxConcurrent) * budget.DefaultSlotCost
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	switch {
	case c.DefaultTimeout == 0:
		c.DefaultTimeout = 30 * time.Second
	case c.DefaultTimeout < 0:
		c.DefaultTimeout = 0
	}
	switch {
	case c.MaxTimeout == 0:
		c.MaxTimeout = 5 * time.Minute
	case c.MaxTimeout < 0:
		c.MaxTimeout = 0
	}
	switch {
	case c.MaxSeriesLen == 0:
		c.MaxSeriesLen = 2_000_000
	case c.MaxSeriesLen < 0:
		c.MaxSeriesLen = 0
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	switch {
	case c.SessionTTL == 0:
		c.SessionTTL = 15 * time.Minute
	case c.SessionTTL < 0:
		c.SessionTTL = 0
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	return c
}

// errQueueFull is returned by admission when both the capacity and the
// wait queue are exhausted — the load-shedding signal behind 429.
var errQueueFull = errors.New("server: analysis capacity and wait queue full")

// Server is the gvad HTTP service. Create one with New; it is safe for
// concurrent use.
type Server struct {
	cfg Config

	// Ensemble results get their own memo: the keys (EnsembleFingerprint:
	// series + member count + sampler seed) live in a different namespace
	// than detector fingerprints, and the cached values are final fused
	// results rather than reusable detectors.
	detectors *memo[*grammarviz.Detector]
	ensembles *memo[*grammarviz.EnsembleResult]

	adm  *budget.Controller
	http *http.Server
	mux  *http.ServeMux

	sup      *sessionSupervisor
	draining atomic.Bool

	reg            *metrics.Registry
	requests       *metrics.CounterVec
	latency        *metrics.Histogram
	distCalls      *metrics.Counter
	inflight       *metrics.Gauge
	queueDepth     *metrics.Gauge
	budgetCapacity *metrics.Gauge
	budgetInUse    *metrics.Gauge
	budgetTenants  *metrics.Gauge
	heapAlloc      *metrics.Gauge
	heapSys        *metrics.Gauge
	totalAlloc     *metrics.Gauge
	mallocs        *metrics.Gauge
	gcCycles       *metrics.Gauge

	sessionsActive      *metrics.Gauge
	sessionsRestored    *metrics.Counter
	sessionsQuarantined *metrics.Counter
	sessionsEvicted     *metrics.Counter
	sessionsTorn        *metrics.Counter
	checkpointBytes     *metrics.Gauge

	// testHookAnalyze, when set, runs inside the containment group before
	// the analysis — tests use it to inject panics.
	testHookAnalyze func(*AnalyzeRequest)
	// testHookStreamAppend, when set, runs inside the session append's
	// containment group — tests use it to inject panics into one session.
	testHookStreamAppend func(sessionID string)
}

// New builds a Server from cfg (zero value: defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	byKind := func(name, help string) *metrics.CounterVec { return reg.NewCounterVec(name, help, "kind") }
	mm := memoMetrics{
		hits:      byKind("gvad_cache_hits_total", "Analyze requests served from a cache, by kind (detector: grammar induction skipped; ensemble: fused result reused)."),
		misses:    byKind("gvad_cache_misses_total", "Analyze requests that had to build a new cache entry, by kind (detector induction or ensemble run)."),
		evictions: byKind("gvad_cache_evictions_total", "Entries evicted from a cache, by kind (summed across shards)."),
		shared:    byKind("gvad_coalesce_shared_total", "Analyze requests that joined another request's in-flight build instead of running their own, by kind."),
	}
	s := &Server{
		cfg:       cfg,
		detectors: newMemo[*grammarviz.Detector](cfg, mm, "detector"),
		ensembles: newMemo[*grammarviz.EnsembleResult](cfg, mm, "ensemble"),
		adm:       budget.New(budget.Config{Capacity: cfg.BudgetCapacity, MaxQueue: cfg.MaxQueue}),
		reg:       reg,

		requests: reg.NewCounterVec("gvad_requests_total",
			"Analyze requests by mode and outcome (ok|partial|fallback|invalid|rejected|timeout|panic|error).",
			"mode", "outcome"),
		latency: reg.NewHistogram("gvad_request_duration_seconds",
			"Wall-clock latency of admitted analyze requests.", nil),
		distCalls: reg.NewCounter("gvad_distance_calls_total",
			"Distance-function calls made by discord searches (the paper's efficiency metric)."),
		inflight: reg.NewGauge("gvad_inflight_requests",
			"Analyze requests currently admitted and running."),
		queueDepth: reg.NewGauge("gvad_queue_depth",
			"Analyze requests waiting for admission, sampled at scrape."),
		budgetCapacity: reg.NewGauge("gvad_budget_capacity_tokens",
			"Total admission cost capacity in tokens (series points x mode weight)."),
		budgetInUse: reg.NewGauge("gvad_budget_in_use_tokens",
			"Admission cost tokens currently held by running analyses, sampled at scrape."),
		budgetTenants: reg.NewGauge("gvad_budget_active_tenants",
			"Tenants currently holding admitted cost, sampled at scrape."),
		heapAlloc: reg.NewGauge("gvad_mem_heap_alloc_bytes",
			"Bytes of live heap objects (runtime.MemStats.HeapAlloc), sampled at scrape."),
		heapSys: reg.NewGauge("gvad_mem_heap_sys_bytes",
			"Heap memory obtained from the OS (runtime.MemStats.HeapSys), sampled at scrape."),
		totalAlloc: reg.NewGauge("gvad_mem_total_alloc_bytes",
			"Cumulative bytes allocated since process start (runtime.MemStats.TotalAlloc)."),
		mallocs: reg.NewGauge("gvad_mem_mallocs",
			"Cumulative heap objects allocated since process start (runtime.MemStats.Mallocs)."),
		gcCycles: reg.NewGauge("gvad_mem_gc_cycles",
			"Completed GC cycles since process start (runtime.MemStats.NumGC)."),

		sessionsActive: reg.NewGauge("gvad_sessions_active",
			"Streaming sessions currently open (resident or evicted-but-restorable)."),
		sessionsRestored: reg.NewCounter("gvad_sessions_restored_total",
			"Streaming sessions restored from snapshot + log replay (boot recovery and post-eviction touches)."),
		sessionsQuarantined: reg.NewCounter("gvad_sessions_quarantined_total",
			"Streaming sessions whose state failed recovery with corruption and was renamed aside."),
		sessionsEvicted: reg.NewCounter("gvad_sessions_evicted_total",
			"Streaming sessions checkpointed and dropped from memory by the idle janitor."),
		sessionsTorn: reg.NewCounter("gvad_sessions_torn_total",
			"Session recoveries that dropped a torn final log record (crash mid-write)."),
		checkpointBytes: reg.NewGauge("gvad_checkpoint_bytes",
			"Size of the most recently written session checkpoint frame."),
	}
	s.sup = &sessionSupervisor{sessions: make(map[string]*streamSession)}
	s.budgetCapacity.Set(cfg.BudgetCapacity)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/analyze/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/stream", s.handleStreamOpen)
	mux.HandleFunc("POST /v1/stream/{id}/append", s.handleStreamAppend)
	mux.HandleFunc("GET /v1/stream/{id}", s.handleStreamGet)
	mux.HandleFunc("GET /v1/stream/{id}/anomalies", s.handleStreamAnomalies)
	mux.HandleFunc("DELETE /v1/stream/{id}", s.handleStreamDelete)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	metricsHandler := reg.Handler()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		s.sampleMemStats()
		s.sampleAdmission()
		metricsHandler.ServeHTTP(w, r)
	})
	if cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	return s
}

// Handler returns the root handler (useful for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. It returns nil after a
// clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	err := s.http.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown stops accepting new connections and drains in-flight requests,
// waiting until they complete or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.http.Shutdown(ctx)
}

// requestWeight is the admission cost multiplier for one validated
// request: the mode weight from internal/modes (the table shared with
// cmd/gva, so serving and CLI cannot drift on pricing), except ensemble
// mode, whose cost scales with the member count — an ensemble is ~members
// density-weight inductions fanned out over the same series.
func requestWeight(req *AnalyzeRequest) int64 {
	if req.Mode == ModeEnsemble {
		members := req.Members
		if members <= 0 {
			members = grammarviz.DefaultEnsembleMembers
		}
		return int64(members) * modes.Weight(ModeDensity)
	}
	return modes.Weight(req.Mode)
}

// admit claims admission for a request of n points at the given cost
// weight on behalf of tenant. It returns a release function, errQueueFull
// when capacity and queue are saturated, or ctx's error if the deadline
// passes while queued.
func (s *Server) admit(ctx context.Context, tenant string, n int, weight int64) (release func(), err error) {
	rel, err := s.adm.Acquire(ctx, tenant, budget.Cost(n, weight))
	if err != nil {
		if errors.Is(err, budget.ErrSaturated) {
			return nil, errQueueFull
		}
		return nil, err
	}
	s.inflight.Inc()
	return func() {
		s.inflight.Dec()
		rel()
	}, nil
}

// retryAfterSecs estimates when a shed client should retry: one second
// of baseline backoff plus roughly one second per MaxConcurrent requests
// already queued ahead of it, capped at 30.
func (s *Server) retryAfterSecs() int {
	secs := 1 + s.adm.QueueDepth()/s.cfg.MaxConcurrent
	if secs > 30 {
		secs = 30
	}
	return secs
}

// sampleAdmission refreshes the admission gauges. It runs per /metrics
// scrape, like sampleMemStats.
func (s *Server) sampleAdmission() {
	s.queueDepth.Set(int64(s.adm.QueueDepth()))
	st := s.adm.Stats()
	s.budgetInUse.Set(st.InUse)
	s.budgetTenants.Set(int64(st.ActiveTenants))
}

// sampleMemStats refreshes the gvad_mem_* gauges from the runtime. It runs
// once per /metrics scrape: ReadMemStats briefly stops the world, so the
// cost is paid at scrape frequency, never on the request path.
func (s *Server) sampleMemStats() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.heapAlloc.Set(int64(m.HeapAlloc))
	s.heapSys.Set(int64(m.HeapSys))
	s.totalAlloc.Set(int64(m.TotalAlloc))
	s.mallocs.Set(int64(m.Mallocs))
	s.gcCycles.Set(int64(m.NumGC))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Draining is reported first (and as 503) so load balancers pull the
	// instance before the listener closes and in-flight work drains.
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// resolveTenant picks the request's tenant: the body field wins, the
// X-Tenant header is the fallback, and anonymous traffic shares the
// "default" tenant (one budget bucket, so unidentified load cannot
// impersonate many tenants).
func resolveTenant(r *http.Request, bodyTenant string) string {
	if bodyTenant != "" {
		return bodyTenant
	}
	if h := r.Header.Get("X-Tenant"); h != "" {
		return h
	}
	return "default"
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	var req AnalyzeRequest
	if status, err := s.decodeRequest(w, r, &req); err != nil {
		s.requests.With("unknown", "invalid").Inc()
		writeError(w, status, fmt.Errorf("decode request: %w", err))
		return
	}
	if err := req.validate(s.cfg.MaxSeriesLen); err != nil {
		s.requests.With(modeLabel(req.Mode), "invalid").Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, status, err := s.serveOne(r.Context(), &req, resolveTenant(r, req.Tenant))
	if err != nil {
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, status, resp)
}

// serveOne runs one validated request end to end — per-request deadline,
// admission, containment, metrics — and returns the response or the
// (status, error) pair to write. It is shared by the single and batch
// endpoints.
func (s *Server) serveOne(ctx context.Context, req *AnalyzeRequest, tenant string) (*AnalyzeResponse, int, error) {
	if d := req.budget(s.cfg.DefaultTimeout, s.cfg.MaxTimeout); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	release, err := s.admit(ctx, tenant, len(req.Series), requestWeight(req))
	if err != nil {
		if errors.Is(err, errQueueFull) {
			s.requests.With(req.Mode, "rejected").Inc()
			s.cfg.Logf("shed %s request (tenant %s): %v", req.Mode, tenant, err)
			return nil, http.StatusTooManyRequests, errors.New("server saturated, retry later")
		}
		s.requests.With(req.Mode, "timeout").Inc()
		return nil, http.StatusServiceUnavailable, fmt.Errorf("timed out waiting for admission: %w", err)
	}
	defer release()

	start := time.Now()
	var resp *AnalyzeResponse
	g, gctx := worker.WithContext(ctx)
	g.Go(func() error {
		if s.testHookAnalyze != nil {
			s.testHookAnalyze(req)
		}
		var err error
		resp, err = s.analyze(gctx, req)
		return err
	})
	err = g.Wait()
	elapsed := time.Since(start)
	s.latency.Observe(elapsed.Seconds())

	if err != nil {
		status, outcome := classifyError(err)
		s.requests.With(req.Mode, outcome).Inc()
		s.cfg.Logf("%s request failed (%s): %v", req.Mode, outcome, err)
		return nil, status, err
	}
	resp.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	s.distCalls.Add(uint64(max(resp.DistanceCalls, 0)))
	s.requests.With(req.Mode, outcomeOf(resp)).Inc()
	return resp, http.StatusOK, nil
}

// analyze runs one validated request under ctx. It is called inside a
// worker group, so a panic anywhere below becomes a *PanicError in the
// handler instead of a crash.
func (s *Server) analyze(ctx context.Context, req *AnalyzeRequest) (*AnalyzeResponse, error) {
	series := req.Series
	if req.Interpolate && timeseries.HasNaN(series) {
		var err error
		if series, err = grammarviz.Interpolate(series); err != nil {
			return nil, err
		}
	}

	resp := &AnalyzeResponse{
		Mode: req.Mode,
		N:    len(series),
	}

	if req.Mode == ModeEnsemble {
		// Parameter-free: window/paa/alphabet are neither needed nor
		// reported — the sampled member parameterizations are in the result.
		opts := grammarviz.EnsembleOptions{Members: req.Members, Seed: req.Seed, Workers: req.Workers}
		res, hit, err := s.ensembles.get(ctx, grammarviz.EnsembleFingerprint(series, opts),
			func(ctx context.Context) (*grammarviz.EnsembleResult, error) {
				return grammarviz.EnsembleDensityCtx(ctx, series, opts)
			})
		if err != nil {
			return nil, err
		}
		resp.Algorithm = "ensemble density"
		resp.CacheHit = hit
		resp.Ensemble = res
		resp.EnsembleAnomalies = res.Anomalies(0.3)
		return resp, nil
	}

	if req.Mode == ModeHOTSAX {
		discords, calls, err := grammarviz.HOTSAXDiscordsCtx(ctx, series, req.Window, req.PAA, req.Alphabet, req.K, req.Seed)
		if err != nil {
			return nil, err
		}
		resp.Algorithm = "HOTSAX"
		resp.Window, resp.PAA, resp.Alphabet = req.Window, req.PAA, req.Alphabet
		resp.Discords = discords
		resp.DistanceCalls = calls
		return resp, nil
	}

	opts := grammarviz.Options{
		Window: req.Window, PAA: req.PAA, Alphabet: req.Alphabet,
		Seed: req.Seed, Workers: req.Workers,
	}
	if req.Window == 0 {
		suggested, err := grammarviz.SuggestOptions(series)
		if err != nil {
			return nil, fmt.Errorf("parameter auto-selection: %w", err)
		}
		suggested.Seed, suggested.Workers = req.Seed, req.Workers
		opts = suggested
	}
	resp.Window, resp.PAA, resp.Alphabet = opts.Window, opts.PAA, opts.Alphabet

	// The fingerprint covers the series bits and every option that
	// influences the grammar, so equal keys mean byte-identical detectors.
	det, hit, err := s.detectors.get(ctx, grammarviz.Fingerprint(series, opts),
		func(ctx context.Context) (*grammarviz.Detector, error) {
			return grammarviz.NewCtx(ctx, series, opts)
		})
	if err != nil {
		return nil, err
	}
	resp.CacheHit = hit

	switch req.Mode {
	case ModeRRA:
		res, err := det.DiscordsCtx(ctx, req.K)
		if err != nil {
			return nil, err
		}
		resp.Algorithm = "RRA"
		resp.Discords = res.Discords
		resp.DistanceCalls = res.DistCalls
	case ModeBestEffort:
		res, err := det.DiscordsBestEffort(ctx, req.K)
		if err != nil {
			return nil, err
		}
		resp.Algorithm = "RRA (best-effort)"
		resp.Discords = res.Discords
		resp.DistanceCalls = res.DistCalls
		resp.Partial = res.Partial
		resp.Fallback = res.Fallback
	case ModeDensity:
		if req.Threshold == nil || *req.Threshold < 0 {
			resp.Algorithm = "density global minima"
			resp.Anomalies = det.GlobalMinima()
		} else {
			resp.Algorithm = "density threshold"
			resp.Anomalies = det.DensityAnomalies(*req.Threshold, req.MinLen)
		}
	}
	return resp, nil
}

// classifyError maps an analysis error to an HTTP status and a metrics
// outcome label.
func classifyError(err error) (status int, outcome string) {
	var pe *worker.PanicError
	switch {
	case errors.As(err, &pe):
		return http.StatusInternalServerError, "panic"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, grammarviz.ErrInvalidValue),
		errors.Is(err, grammarviz.ErrShortSeries):
		return http.StatusBadRequest, "invalid"
	case errors.Is(err, discord.ErrNoCandidates),
		errors.Is(err, grammarviz.ErrNoEnsembleMembers):
		return http.StatusUnprocessableEntity, "error"
	default:
		return http.StatusInternalServerError, "error"
	}
}

func outcomeOf(resp *AnalyzeResponse) string {
	switch {
	case resp.Fallback:
		return "fallback"
	case resp.Partial:
		return "partial"
	default:
		return "ok"
	}
}

// modeLabel bounds the cardinality of the mode label: anything not in the
// known set is reported as "unknown".
func modeLabel(mode string) string {
	//gvad:modes Serving
	switch mode {
	case ModeRRA, ModeBestEffort, ModeDensity, ModeHOTSAX, ModeEnsemble:
		return mode
	default:
		return "unknown"
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}
