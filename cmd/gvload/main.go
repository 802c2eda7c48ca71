// Command gvload is a synthetic many-tenant load generator for gvad. It
// models the traffic shape the serving layer must survive: a zipfian
// tenant mix (a few hot tenants, a long tail) where a configurable share
// of queries are exact duplicates of a tenant's canonical series (the
// coalescing / cache-hit opportunity) and the rest rotate through a pool
// of distinct series per tenant (the induction-miss churn).
//
// Usage:
//
//	gvload -self -duration 5s -concurrency 64 -tenants 16 -zipf 1.2 \
//	       -dup 0.9 -uniques 8 -series 4000 -window 60 -paa 4 -alphabet 4
//
// With -self it starts an in-process gvad on a loopback listener and
// drives that (the configuration CI's `make loadtest` smoke uses); with
// -addr it drives an already-running daemon. The report — request and
// status counts, sustained ok-req/s, latency percentiles, and the
// server's gvad_cache_*/gvad_coalesce_*/gvad_budget_* counters scraped
// from /metrics — is written as JSON to stdout (or -out), which is the
// format BENCH_3.json records.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"grammarviz/internal/modes"
	"grammarviz/internal/server"
	"grammarviz/internal/worker"
)

type config struct {
	Addr        string  `json:"addr,omitempty"`
	Self        bool    `json:"self"`
	Duration    string  `json:"duration"`
	Concurrency int     `json:"concurrency"`
	Tenants     int     `json:"tenants"`
	ZipfS       float64 `json:"zipf_s"`
	DupRate     float64 `json:"dup_rate"`
	Uniques     int     `json:"uniques"`
	SeriesLen   int     `json:"series_len"`
	Window      int     `json:"window"`
	PAA         int     `json:"paa"`
	Alphabet    int     `json:"alphabet"`
	Mode        string  `json:"mode"`
	K           int     `json:"k"`
	TimeoutMS   int64   `json:"timeout_ms"`
	Batch       int     `json:"batch"`
	Seed        int64   `json:"seed"`

	// Self-server knobs (only meaningful with -self).
	Cache         int `json:"cache,omitempty"`
	CacheShards   int `json:"cache_shards,omitempty"`
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	Queue         int `json:"queue,omitempty"`
}

// report is gvload's JSON output; BENCH_3.json stores these verbatim.
type report struct {
	Config    config  `json:"config"`
	ElapsedS  float64 `json:"elapsed_s"`
	Requests  int64   `json:"requests"`
	OK        int64   `json:"ok"`
	Degraded  int64   `json:"degraded"` // 200 with partial/fallback set
	CacheHits int64   `json:"cache_hits_reported"`
	Shed      int64   `json:"shed"` // 429 + 503
	Errors    int64   `json:"errors"`

	// OKPerSec counts items answered 200 per second — for batch runs each
	// batch item counts once, so single and batch runs are comparable.
	OKPerSec float64 `json:"ok_per_sec"`

	StatusCounts map[string]int64   `json:"status_counts"`
	LatencyMS    latencySummary     `json:"latency_ms"`
	Server       map[string]float64 `json:"server_metrics,omitempty"`
}

type latencySummary struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

func main() {
	var (
		cfg  config
		dur  = flag.Duration("duration", 5*time.Second, "load duration")
		out  = flag.String("out", "", "write the JSON report here instead of stdout")
		addr = flag.String("addr", "", "target gvad base URL (e.g. http://localhost:8080); empty requires -self")
	)
	flag.BoolVar(&cfg.Self, "self", false, "start an in-process gvad on a loopback listener and drive it")
	flag.IntVar(&cfg.Concurrency, "concurrency", 64, "concurrent client workers")
	flag.IntVar(&cfg.Tenants, "tenants", 16, "distinct tenants")
	flag.Float64Var(&cfg.ZipfS, "zipf", 1.2, "zipf skew across tenants (>1; 1 tenant disables)")
	flag.Float64Var(&cfg.DupRate, "dup", 0.9, "probability a query repeats the tenant's canonical series")
	flag.IntVar(&cfg.Uniques, "uniques", 8, "distinct non-canonical series per tenant")
	flag.IntVar(&cfg.SeriesLen, "series", 4000, "points per series")
	flag.IntVar(&cfg.Window, "window", 60, "SAX window")
	flag.IntVar(&cfg.PAA, "paa", 4, "SAX word length")
	flag.IntVar(&cfg.Alphabet, "alphabet", 4, "SAX alphabet")
	flag.StringVar(&cfg.Mode, "mode", modes.Density,
		"analyze mode ("+strings.Join(modes.Serving, "|")+")")
	flag.IntVar(&cfg.K, "k", 2, "discords per query (discord modes)")
	flag.Int64Var(&cfg.TimeoutMS, "timeout-ms", 10_000, "per-request budget sent in the body")
	flag.IntVar(&cfg.Batch, "batch", 0, "items per POST /v1/analyze/batch request (0 = single /v1/analyze)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed for tenant mix and series generation")
	flag.IntVar(&cfg.Cache, "cache", 64, "self-server: detector cache capacity")
	flag.IntVar(&cfg.CacheShards, "cache-shards", 0, "self-server: cache shard count (0 = server default)")
	flag.IntVar(&cfg.MaxConcurrent, "max-concurrent", 0, "self-server: concurrent analyses (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.Queue, "queue", 0, "self-server: wait-queue bound (0 = server default)")
	flag.Parse()
	cfg.Addr = *addr
	cfg.Duration = dur.String()

	if err := run(cfg, *dur, *out); err != nil {
		fmt.Fprintln(os.Stderr, "gvload:", err)
		os.Exit(1)
	}
}

func run(cfg config, dur time.Duration, out string) error {
	if !cfg.Self && cfg.Addr == "" {
		return fmt.Errorf("either -addr or -self is required")
	}
	if cfg.Tenants < 1 || cfg.Concurrency < 1 || cfg.Uniques < 1 {
		return fmt.Errorf("tenants, concurrency and uniques must all be >= 1")
	}

	base := cfg.Addr
	var srv *server.Server
	if cfg.Self {
		srv = server.New(server.Config{
			CacheSize:     cfg.Cache,
			CacheShards:   cfg.CacheShards,
			MaxConcurrent: cfg.MaxConcurrent,
			MaxQueue:      cfg.Queue,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		base = "http://" + ln.Addr().String()
		sg, _ := worker.WithContext(context.Background())
		sg.Go(func() error { return srv.Serve(ln) })
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(sctx)
			_ = sg.Wait()
		}()
	}
	base = strings.TrimRight(base, "/")

	bodies := buildBodies(cfg)
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Concurrency * 2,
		MaxIdleConnsPerHost: cfg.Concurrency * 2,
	}}

	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()

	workers := make([]*loadWorker, cfg.Concurrency)
	g, gctx := worker.WithContext(ctx)
	start := time.Now()
	for i := range workers {
		w := &loadWorker{
			cfg:    cfg,
			base:   base,
			client: client,
			bodies: bodies,
			rng:    rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			counts: map[int]int64{},
		}
		workers[i] = w
		g.Go(func() error { return w.loop(gctx) })
	}
	err := g.Wait()
	elapsed := time.Since(start)
	// The deadline ending the run surfaces as context.DeadlineExceeded —
	// that is the normal exit, not a failure.
	if err != nil && gctx.Err() == nil {
		return err
	}

	rep := summarize(cfg, workers, elapsed)
	if scraped, err := scrapeServerMetrics(client, base); err == nil {
		rep.Server = scraped
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

// tenantName returns the stable name of tenant i ("t00", "t01", ...).
func tenantName(i int) string { return fmt.Sprintf("t%02d", i) }

// buildBodies pre-marshals every request body the run can send: one
// canonical series per tenant (variant 0, the duplicate-query target) and
// cfg.Uniques rotating distinct series (variants 1..Uniques). Marshaling
// up front keeps the measurement loop allocating and measuring only the
// HTTP round trip.
func buildBodies(cfg config) [][][]byte {
	bodies := make([][][]byte, cfg.Tenants)
	for t := 0; t < cfg.Tenants; t++ {
		bodies[t] = make([][]byte, cfg.Uniques+1)
		for v := 0; v <= cfg.Uniques; v++ {
			seed := cfg.Seed + int64(t)*1_000_003 + int64(v)*7907
			req := map[string]any{
				"series":     syntheticSeries(cfg.SeriesLen, seed),
				"mode":       cfg.Mode,
				"window":     cfg.Window,
				"paa":        cfg.PAA,
				"alphabet":   cfg.Alphabet,
				"k":          cfg.K,
				"timeout_ms": cfg.TimeoutMS,
				"tenant":     tenantName(t),
			}
			b, err := json.Marshal(req)
			if err != nil {
				panic(err) // static request shape; cannot fail
			}
			bodies[t][v] = b
		}
	}
	return bodies
}

// syntheticSeries builds a noisy sine with a planted frequency burst —
// the same family the repository's tests and benchmarks use.
func syntheticSeries(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	period := 40 + rng.Float64()*20
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = math.Sin(2*math.Pi*float64(i)/period) + rng.NormFloat64()*0.05
	}
	at, length := n/3+rng.Intn(n/3), n/50+4
	for i := at; i < at+length && i < n; i++ {
		ts[i] = math.Sin(4*math.Pi*float64(i)/period) + rng.NormFloat64()*0.05
	}
	return ts
}

type loadWorker struct {
	cfg    config
	base   string
	client *http.Client
	bodies [][][]byte
	rng    *rand.Rand

	requests  int64
	ok        int64
	degraded  int64
	cacheHits int64
	latencies []float64 // ms, 200s only
	counts    map[int]int64
}

// itemOutcome is the per-item slice of a response the summary cares
// about; both /v1/analyze responses and batch item responses carry it.
type itemOutcome struct {
	Partial  bool `json:"partial"`
	Fallback bool `json:"fallback"`
	CacheHit bool `json:"cache_hit"`
}

type batchOutcome struct {
	Results []struct {
		Status   int          `json:"status"`
		Response *itemOutcome `json:"response"`
	} `json:"results"`
}

func (w *loadWorker) loop(ctx context.Context) error {
	var zipf *rand.Zipf
	if w.cfg.Tenants > 1 && w.cfg.ZipfS > 1 {
		zipf = rand.NewZipf(w.rng, w.cfg.ZipfS, 1, uint64(w.cfg.Tenants-1))
	}
	for ctx.Err() == nil {
		tenant := 0
		if zipf != nil {
			tenant = int(zipf.Uint64())
		}
		if w.cfg.Batch > 0 {
			w.sendBatch(ctx, tenant)
		} else {
			w.sendOne(ctx, tenant)
		}
	}
	return ctx.Err()
}

// pickBody selects the canonical duplicate with probability DupRate, a
// rotating unique series otherwise.
func (w *loadWorker) pickBody(tenant int) []byte {
	v := 0
	if w.rng.Float64() >= w.cfg.DupRate {
		v = 1 + w.rng.Intn(w.cfg.Uniques)
	}
	return w.bodies[tenant][v]
}

func (w *loadWorker) sendOne(ctx context.Context, tenant int) {
	status, body, ms, err := w.post(ctx, "/v1/analyze", tenant, w.pickBody(tenant))
	if err != nil {
		if ctx.Err() == nil {
			w.counts[-1]++
			w.requests++
		}
		return
	}
	w.requests++
	w.counts[status]++
	if status == http.StatusOK {
		w.ok++
		w.latencies = append(w.latencies, ms)
		var o itemOutcome
		if json.Unmarshal(body, &o) == nil {
			if o.Partial || o.Fallback {
				w.degraded++
			}
			if o.CacheHit {
				w.cacheHits++
			}
		}
	}
}

func (w *loadWorker) sendBatch(ctx context.Context, tenant int) {
	var buf bytes.Buffer
	buf.WriteString(`{"tenant":"` + tenantName(tenant) + `","requests":[`)
	for i := 0; i < w.cfg.Batch; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(w.pickBody(tenant))
	}
	buf.WriteString(`]}`)
	status, body, ms, err := w.post(ctx, "/v1/analyze/batch", tenant, buf.Bytes())
	if err != nil {
		if ctx.Err() == nil {
			w.counts[-1]++
			w.requests += int64(w.cfg.Batch)
		}
		return
	}
	w.requests += int64(w.cfg.Batch)
	if status != http.StatusOK {
		w.counts[status] += int64(w.cfg.Batch)
		return
	}
	var out batchOutcome
	if err := json.Unmarshal(body, &out); err != nil {
		w.counts[-1] += int64(w.cfg.Batch)
		return
	}
	perItem := ms / float64(max(1, len(out.Results)))
	for _, item := range out.Results {
		w.counts[item.Status]++
		if item.Status == http.StatusOK {
			w.ok++
			w.latencies = append(w.latencies, perItem)
			if item.Response != nil {
				if item.Response.Partial || item.Response.Fallback {
					w.degraded++
				}
				if item.Response.CacheHit {
					w.cacheHits++
				}
			}
		}
	}
}

func (w *loadWorker) post(ctx context.Context, path string, tenant int, body []byte) (status int, respBody []byte, ms float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenantName(tenant))
	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, out, float64(time.Since(start).Microseconds()) / 1000, nil
}

func summarize(cfg config, workers []*loadWorker, elapsed time.Duration) *report {
	rep := &report{Config: cfg, ElapsedS: elapsed.Seconds(), StatusCounts: map[string]int64{}}
	var lat []float64
	for _, w := range workers {
		rep.Requests += w.requests
		rep.OK += w.ok
		rep.Degraded += w.degraded
		rep.CacheHits += w.cacheHits
		lat = append(lat, w.latencies...)
		for status, n := range w.counts {
			key := strconv.Itoa(status)
			if status == -1 {
				key = "transport_error"
			}
			rep.StatusCounts[key] += n
			switch status {
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				rep.Shed += n
			case http.StatusOK:
			case -1:
				rep.Errors += n
			default:
				rep.Errors += n
			}
		}
	}
	if rep.ElapsedS > 0 {
		rep.OKPerSec = float64(rep.OK) / rep.ElapsedS
	}
	sort.Float64s(lat)
	q := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	rep.LatencyMS = latencySummary{P50: q(0.50), P90: q(0.90), P99: q(0.99), Max: q(1)}
	return rep
}

// scrapeServerMetrics pulls the gvad_cache_*, gvad_coalesce_* and
// gvad_budget_* families off /metrics so the report carries the server's
// own view of the run (inductions skipped, evictions, tokens).
func scrapeServerMetrics(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "gvad_cache_") &&
			!strings.HasPrefix(line, "gvad_coalesce_") &&
			!strings.HasPrefix(line, "gvad_budget_") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out, nil
}
