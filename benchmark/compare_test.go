package main

import (
	"strings"
	"testing"
)

// runs returns n values around center, alternating ±jitter.
func runs(n int, center, jitter float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = center + jitter*float64(i%3-1)
	}
	return xs
}

func TestJudgeVerdicts(t *testing.T) {
	for _, c := range []struct {
		name        string
		base, head  []float64
		lowerBetter bool
		want        string
	}{
		{"lower latency in every pair", runs(10, 100, 2), runs(10, 80, 2), true, improved},
		{"higher capacity in every pair", runs(10, 100, 2), runs(10, 120, 2), false, improved},
		{"within the bound", runs(10, 100, 2), runs(10, 104, 2), true, unchanged},
		{"worse beyond the bound", runs(10, 100, 2), runs(10, 115, 2), true, regressed},
		{"capacity lost beyond the bound", runs(10, 100, 2), runs(10, 85, 2), false, regressed},
		{"spread wider than the bound", runs(10, 100, 30), runs(10, 105, 30), true, unresolved},
		{"too few runs", runs(9, 100, 2), runs(9, 80, 2), true, unresolved},
	} {
		got, why := judge(c.base, c.head, c.lowerBetter, 0.10)
		if got != c.want {
			t.Errorf("%s: %s (%s), want %s", c.name, got, why, c.want)
		}
	}
}

func TestJudgeFailures(t *testing.T) {
	clean := []*result{{report: report{Attempted: 100}}}
	failing := []*result{{report: report{Attempted: 100, Failed: 1}}}
	if v, _ := judgeFailures(clean, failing); v != regressed {
		t.Errorf("a new failure is %s, want %s", v, regressed)
	}
	if v, _ := judgeFailures(clean, clean); v != unchanged {
		t.Errorf("no failures on either side is %s, want %s", v, unchanged)
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}}}
	mk := func(cpu string) []*result {
		var rs []*result
		for i := 0; i < minRuns; i++ {
			rs = append(rs, &result{
				Workload:   "w",
				report:     report{Attempted: 1, Metrics: map[string]metric{"latency_p50_ms": {Value: 1}}},
				Provenance: provenance{CPU: cpu, NProc: 2, Go: "go1.24.0"},
			})
		}
		return rs
	}
	if _, err := compare(sp, mk("a"), mk("b")); err == nil || !strings.Contains(err.Error(), "provenance") {
		t.Errorf("compare across CPUs: err = %v, want a provenance refusal", err)
	}
	rows, err := compare(sp, mk("a"), mk("a"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.verdict != unchanged {
			t.Errorf("%s on identical runs: %s (%s)", r.metric, r.verdict, r.why)
		}
	}
}
