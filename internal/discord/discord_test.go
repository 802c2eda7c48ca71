package discord

import (
	"math"
	"math/rand"
	"testing"

	"grammarviz/internal/grammar"
	"grammarviz/internal/sax"
	"grammarviz/internal/sequitur"
	"grammarviz/internal/timeseries"
)

// anomalousSine builds a sine series with one structurally distorted cycle
// at [at, at+length).
func anomalousSine(n int, period float64, at, length int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = math.Sin(2*math.Pi*float64(i)/period) + rng.NormFloat64()*0.02
	}
	for i := at; i < at+length && i < n; i++ {
		// Double-frequency burst: same amplitude, different shape.
		ts[i] = math.Sin(4*math.Pi*float64(i)/period) + rng.NormFloat64()*0.02
	}
	return ts
}

func ruleSetFor(t *testing.T, ts []float64, p sax.Params) *grammar.RuleSet {
	t.Helper()
	d, err := sax.Discretize(ts, p, sax.ReductionExact)
	if err != nil {
		t.Fatalf("Discretize: %v", err)
	}
	rs, err := grammar.Build(d, sequitur.Induce(d.Strings()))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return rs
}

func TestEngineDistance(t *testing.T) {
	ts := []float64{0, 1, 0, -1, 0, 1, 0, -1, 5, 5, 5, 5}
	e := newEngine(ts)
	// Identical shapes at p=0 and q=4 → distance 0.
	if d := e.dist(0, 4, 4, math.Inf(1)); d > 1e-9 {
		t.Errorf("identical shapes dist = %v", d)
	}
	if e.Calls() != 1 {
		t.Errorf("Calls = %d, want 1", e.Calls())
	}
	// Early abandoning returns +Inf and still counts.
	d := e.dist(0, 8, 4, 0.001)
	if !math.IsInf(d, 1) {
		t.Errorf("abandoned dist = %v, want +Inf", d)
	}
	if e.Calls() != 2 {
		t.Errorf("Calls = %d, want 2", e.Calls())
	}
}

func TestEngineDistMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ts := make([]float64, 300)
	for i := range ts {
		ts[i] = rng.NormFloat64()
	}
	e := newEngine(ts)
	for trial := 0; trial < 200; trial++ {
		length := rng.Intn(50) + 2
		p := rng.Intn(len(ts) - length)
		q := rng.Intn(len(ts) - length)
		got := e.dist(p, q, length, math.Inf(1))
		pa, _ := timeseries.Subsequence(ts, p, length)
		qa, _ := timeseries.Subsequence(ts, q, length)
		za := timeseries.ZNormalize(pa, timeseries.DefaultNormThreshold)
		zb := timeseries.ZNormalize(qa, timeseries.DefaultNormThreshold)
		var sum float64
		for i := range za {
			d := za[i] - zb[i]
			sum += d * d
		}
		want := math.Sqrt(sum)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("dist(%d,%d,%d) = %v, want %v", p, q, length, got, want)
		}
	}
}

func TestBruteForceFindsPlantedAnomaly(t *testing.T) {
	at, length := 600, 60
	ts := anomalousSine(1200, 60, at, length, 1)
	res, err := bruteForceOf(ts, 60, 1)
	if err != nil {
		t.Fatalf("BruteForce: %v", err)
	}
	d := res.Discords[0]
	planted := timeseries.Interval{Start: at - 30, End: at + length + 30}
	if !d.Interval.Overlaps(planted) {
		t.Errorf("discord %v does not overlap planted anomaly %v", d.Interval, planted)
	}
	if res.DistCalls != BruteForceCallCount(1200, 60) {
		t.Errorf("DistCalls = %d, analytic = %d", res.DistCalls, BruteForceCallCount(1200, 60))
	}
}

func TestBruteForceErrors(t *testing.T) {
	if _, err := bruteForceOf([]float64{1, 2, 3}, 10, 1); err == nil {
		t.Error("oversize window should error")
	}
	if _, err := bruteForceOf([]float64{1, 2, 3}, 0, 1); err == nil {
		t.Error("zero window should error")
	}
	// Series of exactly one window: no non-self match exists.
	if _, err := bruteForceOf(make([]float64, 10), 10, 1); err != ErrNoCandidates {
		t.Errorf("err = %v, want ErrNoCandidates", err)
	}
}

func TestBruteForceCallCount(t *testing.T) {
	// Tiny case verified by hand: m=5, n=2 → 4 candidates; candidate 0
	// matches q in {2,3}, candidate 1 matches {3}, 2 matches {0},
	// 3 matches {0,1}. Total 6.
	if got := BruteForceCallCount(5, 2); got != 6 {
		t.Errorf("BruteForceCallCount(5,2) = %d, want 6", got)
	}
	if got := BruteForceCallCount(3, 5); got != 0 {
		t.Errorf("BruteForceCallCount(3,5) = %d, want 0", got)
	}
	// Cross-check against an actual run.
	ts := anomalousSine(300, 30, 150, 30, 2)
	res, err := bruteForceOf(ts, 30, 1)
	if err != nil {
		t.Fatalf("BruteForce: %v", err)
	}
	if res.DistCalls != BruteForceCallCount(300, 30) {
		t.Errorf("run = %d calls, analytic = %d", res.DistCalls, BruteForceCallCount(300, 30))
	}
}

func TestHOTSAXAgreesWithBruteForce(t *testing.T) {
	// HOTSAX is exact: same discord position and distance as brute force.
	for seed := int64(1); seed <= 3; seed++ {
		ts := anomalousSine(900, 45, 500, 45, seed)
		bf, err := bruteForceOf(ts, 45, 1)
		if err != nil {
			t.Fatalf("BruteForce: %v", err)
		}
		hs, err := hotsaxOf(ts, sax.Params{Window: 45, PAA: 3, Alphabet: 3}, 1, seed)
		if err != nil {
			t.Fatalf("HOTSAX: %v", err)
		}
		if math.Abs(bf.Discords[0].Dist-hs.Discords[0].Dist) > 1e-9 {
			t.Errorf("seed %d: HOTSAX dist %v != brute force %v", seed, hs.Discords[0].Dist, bf.Discords[0].Dist)
		}
		if bf.Discords[0].Interval != hs.Discords[0].Interval {
			// Equal-distance ties can differ in position; require equal distance.
			t.Logf("seed %d: positions differ (bf %v, hs %v) with equal distance", seed,
				bf.Discords[0].Interval, hs.Discords[0].Interval)
		}
	}
}

func TestHOTSAXFewerCallsThanBruteForce(t *testing.T) {
	ts := anomalousSine(2000, 50, 1200, 50, 7)
	bf := BruteForceCallCount(2000, 50)
	hs, err := hotsaxOf(ts, sax.Params{Window: 50, PAA: 4, Alphabet: 4}, 1, 7)
	if err != nil {
		t.Fatalf("HOTSAX: %v", err)
	}
	if hs.DistCalls >= bf/10 {
		t.Errorf("HOTSAX made %d calls, brute force %d; expected >=10x reduction", hs.DistCalls, bf)
	}
}

func TestHOTSAXErrors(t *testing.T) {
	if _, err := hotsaxOf([]float64{1, 2}, sax.Params{Window: 10, PAA: 4, Alphabet: 4}, 1, 1); err == nil {
		t.Error("oversize window should error")
	}
}

func TestRRAFindsPlantedAnomaly(t *testing.T) {
	at, length := 600, 60
	ts := anomalousSine(1200, 60, at, length, 3)
	rs := ruleSetFor(t, ts, sax.Params{Window: 60, PAA: 6, Alphabet: 4})
	res, err := rraOf(ts, rs, 1, 3)
	if err != nil {
		t.Fatalf("RRA: %v", err)
	}
	d := res.Discords[0]
	planted := timeseries.Interval{Start: at - 60, End: at + length + 60}
	if !d.Interval.Overlaps(planted) {
		t.Errorf("RRA discord %v does not overlap planted anomaly %v", d.Interval, planted)
	}
}

func TestRRAFewerCallsThanHOTSAX(t *testing.T) {
	ts := anomalousSine(3000, 60, 1500, 60, 11)
	p := sax.Params{Window: 60, PAA: 6, Alphabet: 4}
	hs, err := hotsaxOf(ts, p, 1, 11)
	if err != nil {
		t.Fatalf("HOTSAX: %v", err)
	}
	rs := ruleSetFor(t, ts, p)
	rr, err := rraOf(ts, rs, 1, 11)
	if err != nil {
		t.Fatalf("RRA: %v", err)
	}
	if rr.DistCalls >= hs.DistCalls {
		t.Errorf("RRA calls %d >= HOTSAX calls %d; Table 1 shape violated", rr.DistCalls, hs.DistCalls)
	}
}

func TestRRATopKNonOverlapping(t *testing.T) {
	ts := anomalousSine(2400, 60, 600, 60, 5)
	// Second planted anomaly.
	for i := 1800; i < 1860; i++ {
		ts[i] = 0.1
	}
	rs := ruleSetFor(t, ts, sax.Params{Window: 60, PAA: 6, Alphabet: 4})
	res, err := rraOf(ts, rs, 3, 5)
	if err != nil {
		t.Fatalf("RRA: %v", err)
	}
	if len(res.Discords) < 2 {
		t.Fatalf("found %d discords, want >= 2", len(res.Discords))
	}
	for i := 0; i < len(res.Discords); i++ {
		for j := i + 1; j < len(res.Discords); j++ {
			if res.Discords[i].Interval.Overlaps(res.Discords[j].Interval) {
				t.Errorf("discords %d and %d overlap: %v %v", i, j,
					res.Discords[i].Interval, res.Discords[j].Interval)
			}
		}
	}
	// Ranked best-first by normalized distance.
	for i := 1; i < len(res.Discords); i++ {
		if res.Discords[i].Dist > res.Discords[i-1].Dist+1e-12 {
			t.Errorf("discords not ranked: %v then %v", res.Discords[i-1].Dist, res.Discords[i].Dist)
		}
	}
}

func TestRRADeterministicForSeed(t *testing.T) {
	ts := anomalousSine(1500, 50, 700, 50, 9)
	rs := ruleSetFor(t, ts, sax.Params{Window: 50, PAA: 5, Alphabet: 4})
	a, err := rraOf(ts, rs, 2, 42)
	if err != nil {
		t.Fatalf("RRA: %v", err)
	}
	b, err := rraOf(ts, rs, 2, 42)
	if err != nil {
		t.Fatalf("RRA: %v", err)
	}
	if a.DistCalls != b.DistCalls || len(a.Discords) != len(b.Discords) {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Discords {
		if a.Discords[i] != b.Discords[i] {
			t.Errorf("discord %d differs: %+v vs %+v", i, a.Discords[i], b.Discords[i])
		}
	}
}

func TestCandidates(t *testing.T) {
	ts := anomalousSine(1200, 60, 600, 60, 13)
	rs := ruleSetFor(t, ts, sax.Params{Window: 60, PAA: 6, Alphabet: 4})
	cands := Candidates(rs)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	nOcc := 0
	for _, rec := range rs.Records {
		for _, iv := range rec.Occurrences {
			if iv.Len() >= minCandidateLen {
				nOcc++
			}
		}
	}
	if len(cands) < nOcc {
		t.Errorf("candidates %d < rule occurrences %d", len(cands), nOcc)
	}
	for _, c := range cands {
		if !c.IV.Valid(len(ts)) {
			t.Errorf("candidate %v out of bounds", c.IV)
		}
		if c.RuleID == -1 && c.Freq != 0 {
			t.Errorf("gap candidate with freq %d", c.Freq)
		}
	}
}

func TestNearestNonSelf(t *testing.T) {
	ts := anomalousSine(1200, 60, 600, 60, 17)
	rs := ruleSetFor(t, ts, sax.Params{Window: 60, PAA: 6, Alphabet: 4})
	nns := nearestNonSelfOf(ts, rs, 1)
	if len(nns) == 0 {
		t.Fatal("no NN records")
	}
	for _, d := range nns {
		if d.Dist < 0 || math.IsInf(d.Dist, 0) || math.IsNaN(d.Dist) {
			t.Errorf("bad NN distance %v for %v", d.Dist, d.Interval)
		}
		if abs(d.Interval.Start-d.NNStart) < d.Interval.Len() {
			t.Errorf("NN %d is a self match of %v", d.NNStart, d.Interval)
		}
	}
}

func TestOverlapsAny(t *testing.T) {
	found := []Discord{{Interval: timeseries.Interval{Start: 10, End: 19}}}
	if !overlapsAny(timeseries.Interval{Start: 15, End: 25}, found) {
		t.Error("overlap missed")
	}
	if overlapsAny(timeseries.Interval{Start: 20, End: 25}, found) {
		t.Error("false overlap")
	}
	if overlapsAny(timeseries.Interval{Start: 0, End: 5}, nil) {
		t.Error("empty found should not overlap")
	}
}
