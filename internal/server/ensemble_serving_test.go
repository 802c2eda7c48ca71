package server

// Tests for the ensemble analyze mode and the stream anomalies endpoint:
// byte-identical scores versus the library call, caching on repeat,
// coalescing under a duplicate herd, the batch path, and the read-only
// density snapshot of a streaming session.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"grammarviz"
)

// TestEnsembleMatchesLibrary is the ensemble end of the acceptance
// criterion: the gvad ensemble mode returns byte-identical scores to the
// grammarviz.EnsembleDensity library call (JSON float encoding is
// round-trippable, so equality after decode is bit equality), and a
// repeated identical request is served from the ensemble cache.
func TestEnsembleMatchesLibrary(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	series := testSeries(900, 45, 500, 60, 1)
	req := AnalyzeRequest{Series: series, Mode: ModeEnsemble, Members: 8, Seed: 3}

	want, err := grammarviz.EnsembleDensity(series, grammarviz.EnsembleOptions{Members: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	status, body := postAnalyze(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	got := decodeAnalyze(t, body)
	if got.Algorithm != "ensemble density" {
		t.Errorf("algorithm = %q", got.Algorithm)
	}
	if got.CacheHit {
		t.Error("first request claims a cache hit")
	}
	if got.Ensemble == nil {
		t.Fatal("response carries no ensemble result")
	}
	if !reflect.DeepEqual(got.Ensemble.Score, want.Score) {
		t.Error("served scores diverge from the library call")
	}
	if !reflect.DeepEqual(got.Ensemble.Agreement, want.Agreement) {
		t.Error("served agreement diverges from the library call")
	}
	if !reflect.DeepEqual(got.Ensemble.Members, want.Members) {
		t.Error("served member list diverges from the library call")
	}
	if got.Ensemble.Used != want.Used || got.Ensemble.Used == 0 {
		t.Errorf("members_used = %d, want %d (> 0)", got.Ensemble.Used, want.Used)
	}
	if len(got.EnsembleAnomalies) == 0 {
		t.Error("no ensemble anomalies on a series with a planted anomaly")
	}

	// The repeat is a cache hit with the same payload.
	status, body2 := postAnalyze(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("repeat status %d: %s", status, body2)
	}
	got2 := decodeAnalyze(t, body2)
	if !got2.CacheHit {
		t.Error("repeated identical ensemble request missed the cache")
	}
	if !reflect.DeepEqual(got2.Ensemble, got.Ensemble) {
		t.Error("cached ensemble result diverges from the induced one")
	}
	if v := s.ensembles.misses.Value(); v != 1 {
		t.Errorf("ensemble inductions = %d, want 1", v)
	}
	if v := s.ensembles.hits.Value(); v != 1 {
		t.Errorf("cache hits = %d, want 1", v)
	}

	// A different seed is a different fingerprint, not a cache hit.
	reseeded := req
	reseeded.Seed = 4
	status, body3 := postAnalyze(t, ts.URL, reseeded)
	if status != http.StatusOK {
		t.Fatalf("reseeded status %d: %s", status, body3)
	}
	if got3 := decodeAnalyze(t, body3); got3.CacheHit {
		t.Error("different sampler seed hit the cache")
	}
}

// TestEnsembleCoalesced: a herd of concurrent identical ensemble requests
// observes exactly one fused induction — the others join its flight and
// return byte-identical bodies.
func TestEnsembleCoalesced(t *testing.T) {
	const n = 6
	s, ts := newTestServer(t, Config{MaxConcurrent: n, MaxQueue: 2 * n})
	series := testSeries(900, 45, 500, 60, 2)
	key := grammarviz.EnsembleFingerprint(series, grammarviz.EnsembleOptions{Members: 6, Seed: 1})

	gate := make(chan struct{})
	s.ensembles.testHookInduce = func() { <-gate }

	req := AnalyzeRequest{Series: series, Mode: ModeEnsemble, Members: 6, Seed: 1}
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
	waitFor(t, "all callers to join the ensemble flight", func() bool { return s.ensembles.flights.Waiting(key) == n })
	close(gate)
	wg.Wait()

	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, st, bodies[i])
		}
	}
	if v := s.ensembles.misses.Value(); v != 1 {
		t.Errorf("inductions = %d, want exactly 1 for %d concurrent identical requests", v, n)
	}
	if v := s.ensembles.shared.Value(); v != n-1 {
		t.Errorf("coalesced = %d, want %d", v, n-1)
	}

	norm := func(raw []byte) []byte {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("decode response %s: %v", raw, err)
		}
		delete(m, "elapsed_ms")
		delete(m, "cache_hit")
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := norm(bodies[0])
	for i := 1; i < n; i++ {
		if got := norm(bodies[i]); !bytes.Equal(got, first) {
			t.Errorf("response %d diverged from response 0", i)
		}
	}
}

// TestEnsembleValidationAndErrors covers the request-shape rejections and
// the typed no-valid-members failure.
func TestEnsembleValidationAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	if status, body := postAnalyze(t, ts.URL, AnalyzeRequest{
		Series: []float64{1, 2, 3}, Mode: ModeEnsemble, Members: -1,
	}); status != http.StatusBadRequest {
		t.Errorf("negative members: status %d (%s), want 400", status, body)
	}
	if status, body := postAnalyze(t, ts.URL, AnalyzeRequest{
		Series: []float64{1, 2, 3}, Mode: ModeEnsemble, Members: maxEnsembleMembers + 1,
	}); status != http.StatusBadRequest {
		t.Errorf("oversized members: status %d (%s), want 400", status, body)
	}
	// A series far below the smallest sampleable window: every member is
	// invalid, which is the typed 422, not a 500.
	if status, body := postAnalyze(t, ts.URL, AnalyzeRequest{
		Series: []float64{1, 2, 3, 4, 5}, Mode: ModeEnsemble,
	}); status != http.StatusUnprocessableEntity {
		t.Errorf("unanalyzable series: status %d (%s), want 422", status, body)
	}
}

// TestEnsembleBatch: an ensemble item rides the batch endpoint and
// matches the single endpoint's answer.
func TestEnsembleBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	series := testSeries(900, 45, 500, 60, 3)
	item := AnalyzeRequest{Series: series, Mode: ModeEnsemble, Members: 6, Seed: 2}

	status, batch, raw := postBatch(t, ts.URL, BatchRequest{Requests: []AnalyzeRequest{item}})
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, raw)
	}
	if batch.OK != 1 || batch.Failed != 0 || len(batch.Results) != 1 {
		t.Fatalf("ok=%d failed=%d results=%d, want 1/0/1", batch.OK, batch.Failed, len(batch.Results))
	}
	got := batch.Results[0].Response
	if got == nil || got.Ensemble == nil {
		t.Fatalf("batch item carries no ensemble result: %+v", batch.Results[0])
	}

	singleStatus, singleBody := postAnalyze(t, ts.URL, item)
	if singleStatus != http.StatusOK {
		t.Fatalf("single status %d: %s", singleStatus, singleBody)
	}
	want := decodeAnalyze(t, singleBody)
	if !reflect.DeepEqual(got.Ensemble.Score, want.Ensemble.Score) {
		t.Error("batch ensemble scores diverge from the single endpoint")
	}
	if !reflect.DeepEqual(got.EnsembleAnomalies, want.EnsembleAnomalies) {
		t.Error("batch ensemble anomalies diverge from the single endpoint")
	}
}

// TestStreamAnomaliesEndpoint: the session's density snapshot matches a
// library Stream fed the same points, the endpoint is read-only (no WAL
// growth), and premature or unauthenticated queries fail with their own
// statuses.
func TestStreamAnomaliesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{StateDir: t.TempDir()})
	sess := openSession(t, ts.URL, sessionOpts)
	pts := streamSeries(400, 7)

	// Before a single full window: 422, the session itself is fine.
	if status, _, _ := appendPoints(t, ts.URL, sess, pts[:10], nil); status != http.StatusOK {
		t.Fatal("short append failed")
	}
	if status, body := doJSON(t, http.MethodGet, ts.URL+"/v1/stream/"+sess.ID+"/anomalies", sess.ResumeToken, nil); status != http.StatusUnprocessableEntity {
		t.Errorf("premature anomalies: status %d (%s), want 422", status, body)
	}

	if status, _, _ := appendPoints(t, ts.URL, sess, pts[10:], nil); status != http.StatusOK {
		t.Fatal("append failed")
	}
	stateBefore, _ := getSession(t, ts.URL, sess)
	_ = stateBefore

	status, body := doJSON(t, http.MethodGet, ts.URL+"/v1/stream/"+sess.ID+"/anomalies", sess.ResumeToken, nil)
	if status != http.StatusOK {
		t.Fatalf("anomalies: status %d: %s", status, body)
	}
	var got StreamAnomaliesResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != sess.ID || got.Len != len(pts) {
		t.Errorf("id=%q len=%d, want %q/%d", got.ID, got.Len, sess.ID, len(pts))
	}

	// The library stream fed the same points answers identically.
	stream, err := grammarviz.NewStream(grammarviz.Options{
		Window: sessionOpts.Window, PAA: sessionOpts.PAA, Alphabet: sessionOpts.Alphabet,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range pts {
		if _, _, err := stream.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	wantDensity, err := stream.RuleDensity()
	if err != nil {
		t.Fatal(err)
	}
	wantAnoms, err := stream.Anomalies()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Density, wantDensity) {
		t.Error("served density diverges from the library stream")
	}
	if !reflect.DeepEqual(got.Anomalies, wantAnoms) {
		t.Error("served anomalies diverge from the library stream")
	}

	// Read-only: polling anomalies grows no WAL bytes.
	_, s1 := getSession(t, ts.URL, sess)
	doJSON(t, http.MethodGet, ts.URL+"/v1/stream/"+sess.ID+"/anomalies", sess.ResumeToken, nil)
	_, s2 := getSession(t, ts.URL, sess)
	if s2.LogBytes != s1.LogBytes {
		t.Errorf("anomalies query grew the WAL: %d -> %d bytes", s1.LogBytes, s2.LogBytes)
	}

	// Wrong token: 403. Unknown session: 404.
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/stream/"+sess.ID+"/anomalies", "wrong", nil); status != http.StatusForbidden {
		t.Errorf("wrong token: status %d, want 403", status)
	}
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/stream/ffffffffffffffffffffffffffffffff/anomalies", sess.ResumeToken, nil); status != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", status)
	}
}
