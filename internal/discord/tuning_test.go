package discord

import (
	"context"
	"math"
	"testing"

	"grammarviz/internal/sax"
)

// The orderings are pure pruning heuristics: disabling them may change the
// number of distance calls but never the best discord's distance (the
// searches stay exact).
func TestRRATunedExactnessInvariant(t *testing.T) {
	ts := anomalousSine(1500, 50, 700, 50, 31)
	rs := ruleSetFor(t, ts, sax.Params{Window: 50, PAA: 5, Alphabet: 4})
	base, err := rraOf(ts, rs, 1, 31)
	if err != nil {
		t.Fatalf("RRA: %v", err)
	}
	for _, tuning := range []Tuning{
		{NoRarityOrder: true},
		{NoSameGroupFirst: true},
		{NoRarityOrder: true, NoSameGroupFirst: true},
	} {
		got, err := rraParallel(context.Background(), NewStats(ts), Candidates(rs), 1, 31, 1, tuning, nil)
		if err != nil {
			t.Fatalf("RRA with %+v: %v", tuning, err)
		}
		if math.Abs(got.Discords[0].Dist-base.Discords[0].Dist) > 1e-9 {
			t.Errorf("tuning %+v changed best distance: %v vs %v",
				tuning, got.Discords[0].Dist, base.Discords[0].Dist)
		}
	}
}

func TestHOTSAXTunedExactnessInvariant(t *testing.T) {
	ts := anomalousSine(1200, 40, 600, 40, 33)
	p := sax.Params{Window: 40, PAA: 4, Alphabet: 4}
	base, err := hotsaxOf(ts, p, 1, 33)
	if err != nil {
		t.Fatalf("HOTSAX: %v", err)
	}
	for _, tuning := range []Tuning{
		{NoRarityOrder: true},
		{NoSameGroupFirst: true},
		{NoRarityOrder: true, NoSameGroupFirst: true},
	} {
		got, err := hotsaxSearch(context.Background(), NewStats(ts), p, 1, 33, tuning)
		if err != nil {
			t.Fatalf("HOTSAX with %+v: %v", tuning, err)
		}
		if math.Abs(got.Discords[0].Dist-base.Discords[0].Dist) > 1e-9 {
			t.Errorf("tuning %+v changed best distance: %v vs %v",
				tuning, got.Discords[0].Dist, base.Discords[0].Dist)
		}
		if got.Discords[0].Interval != base.Discords[0].Interval {
			// Fixed-length search has a unique best window unless there is
			// an exact distance tie.
			t.Logf("tuning %+v picked %v vs %v at equal distance",
				tuning, got.Discords[0].Interval, base.Discords[0].Interval)
		}
	}
}

// The zero Tuning is the full algorithm: the serial oracle with a zero
// Tuning finds what the exported search finds, and its call count is the
// exported search's kernel calls plus the comparisons the pre-filter
// skipped.
func TestTuningZeroValueIsFullAlgorithm(t *testing.T) {
	ts := anomalousSine(900, 45, 450, 45, 35)
	p := sax.Params{Window: 45, PAA: 5, Alphabet: 4}
	rs := ruleSetFor(t, ts, p)
	a, err := RRAParallelStatsCodedCtx(context.Background(), NewStats(ts), rs, 2, 7, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rraParallel(context.Background(), NewStats(ts), Candidates(rs), 2, 7, 1, Tuning{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.DistCalls+a.Pruned != b.DistCalls || len(a.Discords) != len(b.Discords) {
		t.Fatalf("zero tuning differs from the exported search: %+v vs %+v", a, b)
	}
	for i := range a.Discords {
		if a.Discords[i] != b.Discords[i] {
			t.Errorf("discord %d differs", i)
		}
	}
}

// BenchmarkAblation_RRAOrdering disables RRA's two search-order heuristics
// (rarity-ordered outer loop; same-rule-first inner loop) to quantify how
// much of the Table 1 pruning each contributes.
func BenchmarkAblation_RRAOrdering(b *testing.B) {
	ds := benchDataset(b, "ecg15")
	rs := ruleSetReduced(b, ds.Series, ds.Params, sax.ReductionExact)
	cands := Candidates(rs)
	for _, tt := range []struct {
		name   string
		tuning Tuning
	}{
		{"Full", Tuning{}},
		{"NoRarityOrder", Tuning{NoRarityOrder: true}},
		{"NoSameRuleFirst", Tuning{NoSameGroupFirst: true}},
		{"Neither", Tuning{NoRarityOrder: true, NoSameGroupFirst: true}},
	} {
		b.Run(tt.name, func(b *testing.B) {
			var calls int64
			for i := 0; i < b.N; i++ {
				res, err := rraParallel(context.Background(), NewStats(ds.Series), cands, 1, 1, 1, tt.tuning, nil)
				if err != nil {
					b.Fatal(err)
				}
				calls = res.DistCalls
			}
			b.ReportMetric(float64(calls), "rra_calls/op")
		})
	}
}

// BenchmarkAblation_HOTSAXOrdering does the same for HOTSAX's magic
// orderings, reproducing the original paper's claim that the orderings are
// what makes HOTSAX beat brute force.
func BenchmarkAblation_HOTSAXOrdering(b *testing.B) {
	ds := benchDataset(b, "ecg0606")
	for _, tt := range []struct {
		name   string
		tuning Tuning
	}{
		{"Full", Tuning{}},
		{"NoWordOrder", Tuning{NoRarityOrder: true}},
		{"NoSameWordFirst", Tuning{NoSameGroupFirst: true}},
	} {
		b.Run(tt.name, func(b *testing.B) {
			var calls int64
			for i := 0; i < b.N; i++ {
				res, err := hotsaxSearch(context.Background(), NewStats(ds.Series), ds.Params, 1, 1, tt.tuning)
				if err != nil {
					b.Fatal(err)
				}
				calls = res.DistCalls
			}
			b.ReportMetric(float64(calls), "hotsax_calls/op")
		})
	}
}
