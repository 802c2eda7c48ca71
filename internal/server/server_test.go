package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"grammarviz"
)

// testSeries builds a noisy sine with a planted frequency-burst anomaly —
// the same shape the library's own tests use.
func testSeries(n int, period float64, at, length int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = math.Sin(2*math.Pi*float64(i)/period) + rng.NormFloat64()*0.02
	}
	for i := at; i < at+length && i < n; i++ {
		ts[i] = math.Sin(4*math.Pi*float64(i)/period) + rng.NormFloat64()*0.02
	}
	return ts
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postAnalyze posts req and returns the HTTP status with the raw body.
func postAnalyze(t *testing.T, url string, req AnalyzeRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func decodeAnalyze(t *testing.T, body []byte) AnalyzeResponse {
	t.Helper()
	var out AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode response %s: %v", body, err)
	}
	return out
}

// scrapeMetric fetches /metrics and returns the value of the exactly
// named series line (including any label set), or -1 if absent.
func scrapeMetric(t *testing.T, url, series string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("unparsable metric line %q: %v", line, err)
			}
			return v
		}
	}
	return -1
}

// TestAnalyzeMatchesLibrary is the equivalence end of the e2e acceptance
// criterion: for every mode, the values coming back over HTTP are exactly
// (bit-for-bit, via JSON's round-trippable float encoding) what a direct
// library call returns for the same series and options.
func TestAnalyzeMatchesLibrary(t *testing.T) {
	series := testSeries(900, 45, 500, 60, 1)
	// One worker on both sides: a parallel RRA search finds the same
	// discords, but its distance-call count depends on how the workers'
	// cutoffs interleave, and this test compares that count exactly.
	opts := grammarviz.Options{Window: 45, PAA: 4, Alphabet: 4, Seed: 1, Workers: 1}
	det, err := grammarviz.New(series, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})

	base := AnalyzeRequest{Series: series, Window: 45, PAA: 4, Alphabet: 4, K: 2, Seed: 1, Workers: 1}

	t.Run("rra", func(t *testing.T) {
		req := base
		req.Mode = ModeRRA
		status, body := postAnalyze(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		got := decodeAnalyze(t, body)
		want, calls, err := det.DiscordsWithStats(2)
		if err != nil {
			t.Fatal(err)
		}
		if got.DistanceCalls != calls {
			t.Errorf("distance calls = %d, want %d", got.DistanceCalls, calls)
		}
		if got.Partial || got.Fallback {
			t.Errorf("exact query flagged partial=%v fallback=%v", got.Partial, got.Fallback)
		}
		if len(got.Discords) != len(want) {
			t.Fatalf("%d discords, want %d", len(got.Discords), len(want))
		}
		for i := range want {
			if got.Discords[i] != want[i] {
				t.Errorf("discord %d = %+v, want %+v", i, got.Discords[i], want[i])
			}
		}
	})

	t.Run("besteffort-unbounded-equals-exact", func(t *testing.T) {
		req := base
		req.Mode = ModeBestEffort
		status, body := postAnalyze(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		got := decodeAnalyze(t, body)
		want, _, err := det.DiscordsWithStats(2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Partial || got.Fallback {
			t.Errorf("unbounded best-effort degraded: %+v", got)
		}
		for i := range want {
			if got.Discords[i] != want[i] {
				t.Errorf("discord %d = %+v, want %+v", i, got.Discords[i], want[i])
			}
		}
	})

	t.Run("density", func(t *testing.T) {
		req := base
		req.Mode = ModeDensity
		status, body := postAnalyze(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		got := decodeAnalyze(t, body)
		want := det.GlobalMinima()
		if len(got.Anomalies) != len(want) {
			t.Fatalf("%d anomalies, want %d", len(got.Anomalies), len(want))
		}
		for i := range want {
			if got.Anomalies[i] != want[i] {
				t.Errorf("anomaly %d = %+v, want %+v", i, got.Anomalies[i], want[i])
			}
		}

		thr := 2
		req.Threshold = &thr
		status, body = postAnalyze(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("threshold status %d: %s", status, body)
		}
		got = decodeAnalyze(t, body)
		wantThr := det.DensityAnomalies(2, 0)
		if len(got.Anomalies) != len(wantThr) {
			t.Fatalf("threshold: %d anomalies, want %d", len(got.Anomalies), len(wantThr))
		}
		for i := range wantThr {
			if got.Anomalies[i] != wantThr[i] {
				t.Errorf("threshold anomaly %d = %+v, want %+v", i, got.Anomalies[i], wantThr[i])
			}
		}
	})

	t.Run("hotsax", func(t *testing.T) {
		req := base
		req.Mode = ModeHOTSAX
		status, body := postAnalyze(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		got := decodeAnalyze(t, body)
		// The server serves hotsax through HOTSAXDiscordsCtx (the coded
		// MINDIST-pruned path), so the byte-for-byte baseline is the same
		// entry point: identical discords, and a DistanceCalls count that
		// reflects the pruning.
		want, calls, err := grammarviz.HOTSAXDiscordsCtx(context.Background(), series, 45, 4, 4, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.DistanceCalls != calls {
			t.Errorf("distance calls = %d, want %d", got.DistanceCalls, calls)
		}
		for i := range want {
			if got.Discords[i] != want[i] {
				t.Errorf("discord %d = %+v, want %+v", i, got.Discords[i], want[i])
			}
		}
	})
}

// TestCacheHitSkipsInduction is the caching end of the acceptance
// criterion: the second identical query is served from the detector cache
// — asserted through the cache-hit counter on /metrics, the response's
// cache_hit field, and the cache's own statistics.
func TestCacheHitSkipsInduction(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	series := testSeries(900, 45, 500, 60, 1)
	req := AnalyzeRequest{Series: series, Mode: ModeRRA, Window: 45, PAA: 4, Alphabet: 4, K: 2}

	status, body := postAnalyze(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d: %s", status, body)
	}
	if got := decodeAnalyze(t, body); got.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if v := scrapeMetric(t, ts.URL, `gvad_cache_misses_total{kind="detector"}`); v != 1 {
		t.Errorf("gvad_cache_misses_total = %v, want 1", v)
	}
	if v := scrapeMetric(t, ts.URL, `gvad_cache_hits_total{kind="detector"}`); v != 0 {
		t.Errorf("gvad_cache_hits_total = %v, want 0", v)
	}

	status, body = postAnalyze(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("second request: status %d: %s", status, body)
	}
	if got := decodeAnalyze(t, body); !got.CacheHit {
		t.Error("second identical request missed the cache")
	}
	if v := scrapeMetric(t, ts.URL, `gvad_cache_hits_total{kind="detector"}`); v != 1 {
		t.Errorf("gvad_cache_hits_total = %v, want 1 (induction not skipped)", v)
	}
	if v := scrapeMetric(t, ts.URL, `gvad_cache_misses_total{kind="detector"}`); v != 1 {
		t.Errorf("gvad_cache_misses_total = %v, want 1 (detector rebuilt)", v)
	}
	if cs := s.detectors.cache.Stats(); cs.Hits != 1 || cs.Misses != 1 || cs.Len != 1 {
		t.Errorf("cache stats = %+v", cs)
	}

	// A different mode over the same series and options must also hit: the
	// fingerprint keys on the analysis inputs, not the query.
	req.Mode = ModeDensity
	if status, body = postAnalyze(t, ts.URL, req); status != http.StatusOK {
		t.Fatalf("density request: status %d: %s", status, body)
	}
	if got := decodeAnalyze(t, body); !got.CacheHit {
		t.Error("density query over a cached series missed the cache")
	}
}

// TestDeadlineReturnsDegraded is the degradation end of the acceptance
// criterion: a request whose budget cannot cover the exact search comes
// back 200 with Partial or Fallback set — never an error.
func TestDeadlineReturnsDegraded(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	series := testSeries(40000, 100, 20000, 150, 7)

	// Warm the detector cache with the distance-free density mode, so the
	// tiny budget below is spent inside the discord search (the ladder's
	// domain), not grammar induction.
	warm := AnalyzeRequest{Series: series, Mode: ModeDensity, Window: 100, PAA: 4, Alphabet: 4}
	status, body := postAnalyze(t, ts.URL, warm)
	if status != http.StatusOK {
		t.Fatalf("warm request: status %d: %s", status, body)
	}

	req := warm
	req.Mode = ModeBestEffort
	req.K = 5
	req.TimeoutMS = 1
	req.Workers = 1
	status, body = postAnalyze(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("deadline-bound request errored: status %d: %s", status, body)
	}
	got := decodeAnalyze(t, body)
	if !got.CacheHit {
		t.Error("deadline-bound request missed the warmed cache")
	}
	if !got.Partial && !got.Fallback {
		t.Fatalf("1ms budget over 40000 points completed exactly?! %+v", got)
	}
	if got.Fallback {
		for _, d := range got.Discords {
			if d.Distance != -1 || d.NNStart != -1 {
				t.Errorf("fallback discord carries distance evidence: %+v", d)
			}
		}
	}
	if v := scrapeMetric(t, ts.URL, `gvad_requests_total{mode="besteffort",outcome="partial"}`); got.Partial && !got.Fallback && v != 1 {
		t.Errorf("partial outcome counter = %v, want 1", v)
	}
	if v := scrapeMetric(t, ts.URL, `gvad_requests_total{mode="besteffort",outcome="fallback"}`); got.Fallback && v != 1 {
		t.Errorf("fallback outcome counter = %v, want 1", v)
	}
}

// TestShutdownDrainsUnderLoad is the lifecycle end of the acceptance
// criterion: Shutdown while requests are in flight lets every one of them
// complete with 200, and no goroutine outlives the drain (the -race run
// of this test is the leak check).
func TestShutdownDrainsUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := New(Config{MaxConcurrent: 2, MaxQueue: 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	client := &http.Client{}
	const inFlight = 6
	statuses := make([]int, inFlight)
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds → distinct series → every request induces its
			// own detector, keeping the slots busy.
			req := AnalyzeRequest{
				Series: testSeries(3000, 60, 1500, 80, int64(i+1)),
				Mode:   ModeBestEffort, Window: 60, PAA: 4, Alphabet: 4, K: 2,
			}
			body, _ := json.Marshal(req)
			resp, err := client.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				statuses[i] = -1
				return
			}
			defer resp.Body.Close()
			var out AnalyzeResponse
			if json.NewDecoder(resp.Body).Decode(&out) == nil {
				statuses[i] = resp.StatusCode
			}
		}(i)
	}

	// Shut down only once every request is inside the server — holding a
	// slot, queued for one, or already answered. Shutting down earlier
	// would race the TCP accept and refuse connections instead of testing
	// the drain.
	inServer := func() int {
		done := s.requests.With(ModeBestEffort, "ok").Value() +
			s.requests.With(ModeBestEffort, "partial").Value() +
			s.requests.With(ModeBestEffort, "fallback").Value()
		return int(s.inflight.Value()) + s.adm.QueueDepth() + int(done)
	}
	for admitDeadline := time.Now().Add(10 * time.Second); inServer() < inFlight; {
		if time.Now().After(admitDeadline) {
			t.Fatalf("only %d of %d requests reached the server", inServer(), inFlight)
		}
		time.Sleep(2 * time.Millisecond)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after clean shutdown", err)
	}
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Errorf("in-flight request %d finished with status %d, want 200", i, st)
		}
	}

	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle after drain: %d running, baseline %d",
		runtime.NumGoroutine(), baseline)
}

// TestAdmissionControl exercises both shedding paths of the cost-budget
// admission white-box: with capacity occupied, a queue-less server sheds
// with 429 immediately, and a queued request that outlives its budget
// gets 503 — each carrying a Retry-After hint.
func TestAdmissionControl(t *testing.T) {
	series := testSeries(300, 30, 150, 30, 1)
	req := AnalyzeRequest{Series: series, Mode: ModeRRA, Window: 30, PAA: 4, Alphabet: 4, K: 1}

	// postRaw exposes the response headers postAnalyze hides.
	postRaw := func(t *testing.T, url string, r AnalyzeRequest) *http.Response {
		t.Helper()
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	assertRetryAfter := func(t *testing.T, resp *http.Response) {
		t.Helper()
		h := resp.Header.Get("Retry-After")
		if h == "" {
			t.Fatalf("%d response carries no Retry-After header", resp.StatusCode)
		}
		if secs, err := strconv.Atoi(h); err != nil || secs < 1 || secs > 30 {
			t.Errorf("Retry-After = %q, want an integer in 1..30", h)
		}
	}

	// occupy fills the server's admission budget completely and returns
	// the release.
	occupy := func(t *testing.T, s *Server) func() {
		t.Helper()
		release, err := s.adm.Acquire(context.Background(), "occupier", s.adm.Capacity())
		if err != nil {
			t.Fatal(err)
		}
		return release
	}

	t.Run("budget", func(t *testing.T) {
		t.Run("queue-full-sheds-429", func(t *testing.T) {
			s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1})
			defer occupy(t, s)()
			resp := postRaw(t, ts.URL, req)
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("status = %d, want 429", resp.StatusCode)
			}
			assertRetryAfter(t, resp)
			if v := scrapeMetric(t, ts.URL, `gvad_requests_total{mode="rra",outcome="rejected"}`); v != 1 {
				t.Errorf("rejected counter = %v, want 1", v)
			}
		})

		t.Run("queued-past-deadline-503", func(t *testing.T) {
			s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 4})
			defer occupy(t, s)()
			r := req
			r.TimeoutMS = 50
			resp := postRaw(t, ts.URL, r)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("status = %d, want 503", resp.StatusCode)
			}
			assertRetryAfter(t, resp)
		})
	})
}

// TestPanicContained injects a panic into the analysis path and checks
// the containment contract: the caller sees a 500, the daemon lives on.
func TestPanicContained(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.testHookAnalyze = func(*AnalyzeRequest) { panic("injected failure") }
	series := testSeries(300, 30, 150, 30, 1)
	req := AnalyzeRequest{Series: series, Mode: ModeRRA, Window: 30, PAA: 4, Alphabet: 4, K: 1}
	status, body := postAnalyze(t, ts.URL, req)
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d (%s), want 500", status, body)
	}
	if !strings.Contains(string(body), "injected failure") {
		t.Errorf("error body does not carry the panic value: %s", body)
	}
	if v := scrapeMetric(t, ts.URL, `gvad_requests_total{mode="rra",outcome="panic"}`); v != 1 {
		t.Errorf("panic outcome counter = %v, want 1", v)
	}

	// The daemon survived: clear the hook and serve a real request.
	s.testHookAnalyze = nil
	if status, body := postAnalyze(t, ts.URL, req); status != http.StatusOK {
		t.Fatalf("post-panic request: status %d: %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic = %d", resp.StatusCode)
	}
}

// TestValidation checks that malformed requests are rejected up front
// with 400 and a descriptive message, before occupying a slot.
func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSeriesLen: 1000})
	series := testSeries(300, 30, 150, 30, 1)
	cases := []struct {
		name string
		req  AnalyzeRequest
		frag string
	}{
		{"empty series", AnalyzeRequest{Mode: ModeRRA, Window: 30, PAA: 4, Alphabet: 4}, "series is required"},
		{"unknown mode", AnalyzeRequest{Series: series, Mode: "psychic", Window: 30, PAA: 4, Alphabet: 4}, "unknown mode"},
		{"negative k", AnalyzeRequest{Series: series, Mode: ModeRRA, Window: 30, PAA: 4, Alphabet: 4, K: -2}, "k must be"},
		{"paa over window", AnalyzeRequest{Series: series, Mode: ModeRRA, Window: 30, PAA: 31, Alphabet: 4}, "must not exceed window"},
		{"bad alphabet", AnalyzeRequest{Series: series, Mode: ModeRRA, Window: 30, PAA: 4, Alphabet: 1}, "alphabet"},
		{"window over series", AnalyzeRequest{Series: series, Mode: ModeRRA, Window: 600, PAA: 4, Alphabet: 4}, "exceeds series length"},
		{"hotsax needs window", AnalyzeRequest{Series: series, Mode: ModeHOTSAX}, "explicit window"},
		{"series over cap", AnalyzeRequest{Series: testSeries(1500, 30, 700, 30, 1), Mode: ModeRRA, Window: 30, PAA: 4, Alphabet: 4}, "server cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postAnalyze(t, ts.URL, tc.req)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d (%s), want 400", status, body)
			}
			if !strings.Contains(string(body), tc.frag) {
				t.Errorf("error %s does not mention %q", body, tc.frag)
			}
		})
	}

	t.Run("non-json body", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader("not json"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
}

// TestMetricsExposition spot-checks the scrape body a Prometheus
// collector would ingest.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	series := testSeries(300, 30, 150, 30, 1)
	req := AnalyzeRequest{Series: series, Mode: ModeRRA, Window: 30, PAA: 4, Alphabet: 4, K: 1}
	if status, body := postAnalyze(t, ts.URL, req); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"# TYPE gvad_requests_total counter",
		fmt.Sprintf("gvad_requests_total{mode=%q,outcome=%q} 1", "rra", "ok"),
		"# TYPE gvad_request_duration_seconds histogram",
		"gvad_request_duration_seconds_count 1",
		`gvad_request_duration_seconds_bucket{le="+Inf"} 1`,
		"# TYPE gvad_inflight_requests gauge",
		"gvad_inflight_requests 0",
		"gvad_distance_calls_total",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("scrape missing %q:\n%s", frag, out)
		}
	}
}

// TestAutoSelect checks the window-0 path: parameters come back filled in
// and match the library's own suggestion.
func TestAutoSelect(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	series := testSeries(900, 45, 500, 60, 1)
	req := AnalyzeRequest{Series: series, Mode: ModeDensity}
	status, body := postAnalyze(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	got := decodeAnalyze(t, body)
	want, err := grammarviz.SuggestOptions(series)
	if err != nil {
		t.Fatal(err)
	}
	if got.Window != want.Window || got.PAA != want.PAA || got.Alphabet != want.Alphabet {
		t.Errorf("auto-selected (%d,%d,%d), library suggests (%d,%d,%d)",
			got.Window, got.PAA, got.Alphabet, want.Window, want.PAA, want.Alphabet)
	}
}
