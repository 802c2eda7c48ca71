package server

// Tests for the multi-tenant serving layer: request coalescing, the
// sharded detector cache, the batch endpoint, and tenant-keyed cost
// budgets. The single-request correctness suite lives in server_test.go.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"grammarviz"
	"grammarviz/internal/budget"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescedInduction: N concurrent identical requests observe exactly
// one induction. The induce hook holds the first flight open until every
// caller has joined it, making the join count deterministic; the
// cache-miss counter (incremented once per actual induction) is the
// "exactly one" assertion.
func TestCoalescedInduction(t *testing.T) {
	const n = 8
	s, ts := newTestServer(t, Config{MaxConcurrent: n, MaxQueue: 2 * n})

	series := testSeries(900, 45, 500, 60, 1)
	opts := grammarviz.Options{Window: 45, PAA: 4, Alphabet: 4}
	key := grammarviz.Fingerprint(series, opts)

	gate := make(chan struct{})
	s.detectors.testHookInduce = func() { <-gate }

	req := AnalyzeRequest{Series: series, Mode: ModeDensity, Window: 45, PAA: 4, Alphabet: 4}
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i] = postAnalyze(t, ts.URL, req)
		}(i)
	}
	// Release the flight only once all n requests are attached to it, so
	// exactly n-1 of them joined a flight they did not start.
	waitFor(t, "all callers to join the flight", func() bool { return s.detectors.flights.Waiting(key) == n })
	close(gate)
	wg.Wait()

	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, st, bodies[i])
		}
	}
	if v := s.detectors.misses.Value(); v != 1 {
		t.Errorf("inductions = %d, want exactly 1 for %d concurrent identical requests", v, n)
	}
	if v := s.detectors.shared.Value(); v != n-1 {
		t.Errorf("gvad_coalesce_shared_total = %d, want %d", v, n-1)
	}
	if v := s.detectors.hits.Value(); v != 0 {
		t.Errorf("cache hits = %d during a single coalesced flight, want 0", v)
	}

	// Every response is byte-identical to the others — a joiner's answer
	// is indistinguishable from the inducer's. elapsed_ms is per-request
	// wall clock, so normalize it before comparing.
	norm := func(raw []byte) []byte {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("decode response %s: %v", raw, err)
		}
		delete(m, "elapsed_ms")
		delete(m, "cache_hit") // false for the inducer, true for joiners
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := norm(bodies[0])
	for i := 1; i < n; i++ {
		if got := norm(bodies[i]); !bytes.Equal(got, first) {
			t.Errorf("response %d diverged from response 0:\n%s\n%s", i, got, first)
		}
	}

	// The flight is gone and a later identical request is a plain cache
	// hit, not a new induction.
	if got := s.detectors.flights.Inflight(); got != 0 {
		t.Errorf("flights in progress after drain = %d, want 0", got)
	}
	status, body := postAnalyze(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("follow-up request: status %d: %s", status, body)
	}
	if got := decodeAnalyze(t, body); !got.CacheHit {
		t.Error("follow-up request missed the cache")
	}
	if v := s.detectors.misses.Value(); v != 1 {
		t.Errorf("inductions after follow-up = %d, want still 1", v)
	}
}

// TestMemoCountersByKind: detector and ensemble traffic land in separate
// kind-labelled series — an ensemble cache hit must not read as a
// detector hit, nor a detector miss as an ensemble miss.
func TestMemoCountersByKind(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	series := testSeries(900, 45, 500, 60, 3)
	ens := AnalyzeRequest{Series: series, Mode: ModeEnsemble, Members: 4, Seed: 1}
	for i := 0; i < 2; i++ { // one ensemble miss, then one ensemble hit
		if status, body := postAnalyze(t, ts.URL, ens); status != http.StatusOK {
			t.Fatalf("ensemble request %d: status %d: %s", i, status, body)
		}
	}
	det := AnalyzeRequest{Series: series, Mode: ModeDensity, Window: 45, PAA: 4, Alphabet: 4}
	if status, body := postAnalyze(t, ts.URL, det); status != http.StatusOK {
		t.Fatalf("detector request: status %d: %s", status, body)
	}
	for series, want := range map[string]float64{
		`gvad_cache_hits_total{kind="ensemble"}`:      1,
		`gvad_cache_misses_total{kind="ensemble"}`:    1,
		`gvad_cache_hits_total{kind="detector"}`:      0,
		`gvad_cache_misses_total{kind="detector"}`:    1,
		`gvad_cache_evictions_total{kind="detector"}`: 0,
		`gvad_coalesce_shared_total{kind="ensemble"}`: 0,
	} {
		if got := scrapeMetric(t, ts.URL, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// TestConfigDefaults pins the defaults withDefaults derives from
// MaxConcurrent: the admission queue is the larger of 64 and twice the
// concurrency, and the budget holds one default slot per concurrent
// analysis.
func TestConfigDefaults(t *testing.T) {
	for _, tc := range []struct {
		maxConcurrent, maxQueue int
		wantQueue               int
	}{
		{maxConcurrent: 1, wantQueue: 64},
		{maxConcurrent: 32, wantQueue: 64},
		{maxConcurrent: 40, wantQueue: 80},
		{maxConcurrent: 40, maxQueue: 5, wantQueue: 5},
		{maxConcurrent: 40, maxQueue: -1, wantQueue: 0},
	} {
		c := Config{MaxConcurrent: tc.maxConcurrent, MaxQueue: tc.maxQueue}.withDefaults()
		if c.MaxQueue != tc.wantQueue {
			t.Errorf("MaxConcurrent %d, MaxQueue %d: default queue = %d, want %d",
				tc.maxConcurrent, tc.maxQueue, c.MaxQueue, tc.wantQueue)
		}
		if want := int64(tc.maxConcurrent) * budget.DefaultSlotCost; c.BudgetCapacity != want {
			t.Errorf("MaxConcurrent %d: BudgetCapacity = %d, want %d", tc.maxConcurrent, c.BudgetCapacity, want)
		}
	}
}

// TestCancelledWaiterDoesNotKillFlight: a waiter whose deadline expires
// mid-flight detaches with its own timeout error while the remaining
// participant still receives the induced detector.
func TestCancelledWaiterDoesNotKillFlight(t *testing.T) {
	const n = 3
	s, ts := newTestServer(t, Config{MaxConcurrent: n, MaxQueue: 2 * n})
	series := testSeries(900, 45, 500, 60, 2)
	key := grammarviz.Fingerprint(series, grammarviz.Options{Window: 45, PAA: 4, Alphabet: 4})

	gate := make(chan struct{})
	s.detectors.testHookInduce = func() { <-gate }

	patient := AnalyzeRequest{Series: series, Mode: ModeDensity, Window: 45, PAA: 4, Alphabet: 4}
	impatient := patient
	impatient.TimeoutMS = 80

	results := make(chan struct {
		timeoutMS int64
		status    int
		body      []byte
	}, n)
	post := func(r AnalyzeRequest) {
		status, body := postAnalyze(t, ts.URL, r)
		results <- struct {
			timeoutMS int64
			status    int
			body      []byte
		}{r.TimeoutMS, status, body}
	}
	go post(patient)
	go post(impatient)
	go post(patient)
	waitFor(t, "all callers to join the flight", func() bool { return s.detectors.flights.Waiting(key) == n })

	// The impatient waiter detaches on its own deadline; the flight keeps
	// exactly the two patient participants.
	waitFor(t, "impatient waiter to detach", func() bool { return s.detectors.flights.Waiting(key) == n-1 })
	close(gate)

	var ok, timedOut int
	for i := 0; i < n; i++ {
		r := <-results
		switch {
		case r.status == http.StatusOK:
			ok++
		case r.status == http.StatusGatewayTimeout && r.timeoutMS > 0:
			timedOut++
		default:
			t.Errorf("unexpected outcome: timeout_ms=%d status=%d body=%s", r.timeoutMS, r.status, r.body)
		}
	}
	if ok != n-1 || timedOut != 1 {
		t.Errorf("ok=%d timedOut=%d, want %d ok and 1 timeout", ok, timedOut, n-1)
	}
	if v := s.detectors.misses.Value(); v != 1 {
		t.Errorf("inductions = %d, want 1 (detachment must not restart the flight)", v)
	}
}

// shardIndex mirrors the sharded cache's documented selector — the
// fingerprint's leading hex nibbles — so the test can construct a
// workload that provably touches every shard.
func shardIndex(fp string, shards int) int {
	v, err := strconv.ParseUint(fp[:8], 16, 32)
	if err != nil {
		panic("fingerprint is not hex: " + fp)
	}
	return int(v) & (shards - 1)
}

// TestShardEvictionTotalsMatchSingleLRU drives the identical HTTP
// workload through an 8-shard server and a single-shard server sized to
// the same total capacity. The workload is constructed so every shard
// overflows, which pins both caches at full occupancy — making the
// sharded eviction total provably equal the single-LRU total, and the
// aggregate counters equal the sum over ShardStats.
func TestShardEvictionTotalsMatchSingleLRU(t *testing.T) {
	const shards = 8
	opts := grammarviz.Options{Window: 30, PAA: 4, Alphabet: 4}

	// Collect distinct series until every shard has at least two keys
	// (two adds into a one-entry shard force at least one eviction there).
	perShard := make([]int, shards)
	var workload [][]float64
	covered := 0
	for seed := int64(1); covered < shards; seed++ {
		series := testSeries(300, 30, 150, 30, seed)
		idx := shardIndex(grammarviz.Fingerprint(series, opts), shards)
		if perShard[idx] >= 2 {
			continue
		}
		perShard[idx]++
		if perShard[idx] == 2 {
			covered++
		}
		workload = append(workload, series)
	}

	run := func(cacheShards int) *Server {
		s, ts := newTestServer(t, Config{CacheSize: shards, CacheShards: cacheShards})
		for _, series := range workload {
			req := AnalyzeRequest{Series: series, Mode: ModeDensity, Window: 30, PAA: 4, Alphabet: 4}
			if status, body := postAnalyze(t, ts.URL, req); status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
		}
		return s
	}
	sharded := run(shards)
	single := run(1)

	var sum struct{ hits, misses, evictions uint64 }
	for _, st := range sharded.detectors.cache.ShardStats() {
		sum.hits += st.Hits
		sum.misses += st.Misses
		sum.evictions += st.Evictions
	}
	agg := sharded.detectors.cache.Stats()
	if agg.Hits != sum.hits || agg.Misses != sum.misses || agg.Evictions != sum.evictions {
		t.Errorf("aggregate %+v does not sum shard counters %+v", agg, sum)
	}

	ss := single.detectors.cache.Stats()
	if agg.Evictions != ss.Evictions {
		t.Errorf("sharded evictions = %d, single-LRU evictions = %d on the same workload (len %d vs %d)",
			agg.Evictions, ss.Evictions, agg.Len, ss.Len)
	}
	if agg.Len != shards || ss.Len != shards {
		t.Errorf("occupancy sharded=%d single=%d, want both pinned at capacity %d", agg.Len, ss.Len, shards)
	}
	if agg.Hits+agg.Misses != ss.Hits+ss.Misses {
		t.Errorf("lookup totals diverged: sharded %d, single %d", agg.Hits+agg.Misses, ss.Hits+ss.Misses)
	}
	if got, want := sharded.detectors.evictions.Value(), uint64(len(workload)-shards); got != want {
		t.Errorf("gvad_cache_evictions_total = %d, want %d (distinct inductions - occupancy)", got, want)
	}
}

// postBatch posts a batch request and returns the HTTP status with the
// decoded response (when 200).
func postBatch(t *testing.T, url string, req BatchRequest) (int, *BatchResponse, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/analyze/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, buf.Bytes()
	}
	var out BatchResponse
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("decode batch response %s: %v", buf.Bytes(), err)
	}
	return resp.StatusCode, &out, buf.Bytes()
}

// TestBatchPartialFailure: a batch mixing valid and invalid items returns
// 200 with per-item outcomes — the invalid item carries its own 400 and
// message, and the valid items' results match the single endpoint's.
func TestBatchPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	series := testSeries(900, 45, 500, 60, 1)
	valid := AnalyzeRequest{Series: series, Mode: ModeDensity, Window: 45, PAA: 4, Alphabet: 4}
	invalid := AnalyzeRequest{Mode: ModeRRA, Window: 30, PAA: 4, Alphabet: 4} // no series
	discords := AnalyzeRequest{Series: series, Mode: ModeRRA, Window: 45, PAA: 4, Alphabet: 4, K: 2}

	status, batch, raw := postBatch(t, ts.URL, BatchRequest{
		Tenant:   "team-a",
		Requests: []AnalyzeRequest{valid, invalid, discords},
	})
	if status != http.StatusOK {
		t.Fatalf("batch status = %d: %s", status, raw)
	}
	if batch.OK != 2 || batch.Failed != 1 || len(batch.Results) != 3 {
		t.Fatalf("ok=%d failed=%d results=%d, want 2/1/3", batch.OK, batch.Failed, len(batch.Results))
	}
	for i, item := range batch.Results {
		if item.Index != i {
			t.Errorf("result %d carries index %d", i, item.Index)
		}
	}
	if got := batch.Results[1]; got.Status != http.StatusBadRequest || got.Response != nil ||
		!bytes.Contains([]byte(got.Error), []byte("series is required")) {
		t.Errorf("invalid item = %+v, want a self-contained 400", got)
	}

	// The valid items match what /v1/analyze answers for the same request.
	singleStatus, singleBody := postAnalyze(t, ts.URL, discords)
	if singleStatus != http.StatusOK {
		t.Fatalf("single status %d: %s", singleStatus, singleBody)
	}
	want := decodeAnalyze(t, singleBody)
	got := batch.Results[2].Response
	if got == nil || got.Algorithm != want.Algorithm || len(got.Discords) != len(want.Discords) {
		t.Fatalf("batch item response %+v diverges from single response %+v", got, want)
	}
	for i := range want.Discords {
		if got.Discords[i] != want.Discords[i] {
			t.Errorf("discord %d = %+v, want %+v", i, got.Discords[i], want.Discords[i])
		}
	}
}

// TestBatchValidation covers the batch-shape rejections: empty sets and
// sets beyond MaxBatch are 400s for the whole batch (there is nothing
// meaningful to partially serve).
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2})
	series := testSeries(300, 30, 150, 30, 1)
	item := AnalyzeRequest{Series: series, Mode: ModeDensity, Window: 30, PAA: 4, Alphabet: 4}

	if status, _, body := postBatch(t, ts.URL, BatchRequest{}); status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d (%s), want 400", status, body)
	}
	over := BatchRequest{Requests: []AnalyzeRequest{item, item, item}}
	if status, _, body := postBatch(t, ts.URL, over); status != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d (%s), want 400", status, body)
	}
	if status, batch, body := postBatch(t, ts.URL, BatchRequest{Requests: []AnalyzeRequest{item, item}}); status != http.StatusOK || batch.OK != 2 {
		t.Errorf("full-width batch: status %d (%s)", status, body)
	}
}

// TestTenantFairShare drives the admission story end to end over HTTP: a
// hot tenant holds the pool and queues a backlog, then a cold tenant
// arrives last — and is admitted before the hot tenant's backlog, because
// wake order follows least admitted cost, not arrival time.
func TestTenantFairShare(t *testing.T) {
	// A 900-point density request costs 900 tokens: capacity 2048 admits
	// two at a time and queues the third, making wake order observable.
	s, ts := newTestServer(t, Config{BudgetCapacity: 2048, MaxConcurrent: 4, MaxQueue: 8})

	// Every admitted request announces its tenant, then blocks until the
	// test hands it one step token — so releases happen one at a time and
	// the grant order is deterministic.
	admitted := make(chan string, 8)
	step := make(chan struct{})
	s.testHookAnalyze = func(r *AnalyzeRequest) {
		admitted <- r.Tenant
		<-step
	}

	series := testSeries(900, 45, 500, 60, 3)
	req := AnalyzeRequest{Series: series, Mode: ModeDensity, Window: 45, PAA: 4, Alphabet: 4}
	done := make(chan string, 4)
	post := func(tenant string) {
		go func() {
			r := req
			r.Tenant = tenant
			status, body := postAnalyze(t, ts.URL, r)
			if status != http.StatusOK {
				t.Errorf("tenant %s: status %d: %s", tenant, status, body)
			}
			done <- tenant
		}()
	}

	post("hot")
	post("hot")
	for i := 0; i < 2; i++ {
		if got := <-admitted; got != "hot" {
			t.Fatalf("admission %d went to %q, want hot", i, got)
		}
	}
	post("hot") // backlog: does not fit until a release
	waitFor(t, "hot backlog queued", func() bool { return s.adm.QueueDepth() == 1 })
	post("cold") // arrives last, holds zero admitted cost
	waitFor(t, "cold tenant queued", func() bool { return s.adm.QueueDepth() == 2 })

	// First release: hot still holds 900 tokens, cold holds zero — the
	// cold tenant is woken despite queueing behind hot's backlog.
	step <- struct{}{}
	if got := <-admitted; got != "cold" {
		t.Fatalf("first wake went to %q, want the cold tenant", got)
	}
	// Second release frees enough for hot's queued request.
	step <- struct{}{}
	if got := <-admitted; got != "hot" {
		t.Fatalf("second wake went to %q, want hot's backlog", got)
	}
	// Unblock the two still-held requests and drain.
	step <- struct{}{}
	step <- struct{}{}
	for i := 0; i < 4; i++ {
		<-done
	}
}
