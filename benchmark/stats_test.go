package main

import (
	"math"
	"testing"
)

// tailPercentile is the rule behind each workload's fixed tail: the
// highest of p99, p98, p95 and p90 that leaves at least ten of n samples
// beyond it (p90 when none does).
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.99, 0.98, 0.95} {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0.90
}

// TestFixedTailPercentiles: each workload's tail is the rule's choice for
// the samples its open loop takes at 25 seconds, except where the rule's
// p99 did not repeat within the bound and the tail steps down to p95.
func TestFixedTailPercentiles(t *testing.T) {
	steppedDown := map[string]float64{"serve-hot": 0.95, "stream-durable": 0.95}
	for _, w := range workloads {
		n := int(w.rate * 25 * w.open)
		want := tailPercentile(n)
		if p, ok := steppedDown[w.name]; ok {
			want = p
		}
		if w.tail != want {
			t.Errorf("%s: tail p%g, the rule gives p%g for %d samples", w.name, 100*w.tail, 100*want, n)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5000, 0.99}, {1000, 0.99}, {999, 0.98}, {500, 0.98}, {499, 0.95},
		{200, 0.95}, {199, 0.90}, {100, 0.90},
		{99, 0.90}, // no candidate leaves ten samples beyond it: the lowest is used
	} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, p, c.want)
		}
		if beyond := c.n - rank(p, c.n); c.n >= 100 && beyond < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, 100*p, beyond)
		}
	}
}

func TestFailuresCountAsInfinite(t *testing.T) {
	// 100 requests, the last 8 failed: p90 still lands on a success, p95
	// on a failure, so the tail reports "missed every limit".
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
		if i >= 92 {
			xs[i] = math.Inf(1)
		}
	}
	if got := percentile(xs, 0.90); got != 90 {
		t.Errorf("p90 = %g, want 90", got)
	}
	if got := percentile(xs, 0.95); !math.IsInf(got, 1) {
		t.Errorf("p95 = %g, want +Inf", got)
	}
	if got := finite(percentile(xs, 0.95)); got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %g, want the largest float", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %g, want 5.5", m)
	}
}
