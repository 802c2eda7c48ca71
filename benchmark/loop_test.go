package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// nopScenario accepts every 200 response.
type nopScenario struct{ scenario }

func (nopScenario) check(*op, []byte) error { return nil }

// TestOpenLoopTimesFromDueTime: a server that stalls once for 300ms
// blocks both connections, so the requests due during the stall cannot
// even be sent. Timed from their due times they report the wait; timed
// from when they were sent they would look fast.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var mu sync.Mutex
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	c := &client{http: newHTTPClient(), base: srv.URL, sc: nopScenario{}}
	defer c.http.CloseIdleConnections()

	const rate = 100 // one request every 10ms
	ops := make([]*op, 60)
	for i := range ops {
		ops[i] = &op{method: http.MethodGet, path: "/", items: 1}
	}
	p := c.openLoop(ops, rate)
	if len(p.failures) > 0 {
		t.Fatal(p.failures[0])
	}
	lat := p.latencies()
	// Request 10 was due 100ms in, 200ms before the stall ended.
	if lat[10] < 150 {
		t.Errorf("request due during the stall reports %.1fms, want the ~200ms it waited", lat[10])
	}
	// Request 20 was due at 200ms, still behind the stall.
	if lat[20] < 50 {
		t.Errorf("request due late in the stall reports %.1fms, want the ~100ms it waited", lat[20])
	}
	// Long after the stall the schedule has caught up.
	if lat[55] > 100 {
		t.Errorf("request due after recovery reports %.1fms; the backlog should have drained", lat[55])
	}
}
