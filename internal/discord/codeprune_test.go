package discord

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"grammarviz/internal/sax"
	"grammarviz/internal/timeseries"
)

// TestMINDISTCodeMatchesTableOrdering is the satellite's equivalence test:
// the coded MINDIST the pre-filter consults must agree with
// DistTable.MINDIST on the corresponding word strings — same values, hence
// the same ordering over any set of word pairs.
func TestMINDISTCodeMatchesTableOrdering(t *testing.T) {
	for _, shape := range []struct{ paa, alphabet int }{{4, 4}, {6, 5}, {8, 3}, {5, 7}} {
		codec := sax.NewWordCodec(shape.paa, shape.alphabet)
		if !codec.Fits() {
			t.Fatalf("shape %+v does not pack", shape)
		}
		dt, err := sax.NewDistTable(shape.alphabet)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := sax.NewCodeDist(dt, codec)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(shape.paa*100 + shape.alphabet)))
		word := func() string {
			b := make([]byte, shape.paa)
			for i := range b {
				b[i] = byte('a' + rng.Intn(shape.alphabet))
			}
			return string(b)
		}
		type pair struct {
			a, b string
			code float64
			str  float64
		}
		pairs := make([]pair, 200)
		for i := range pairs {
			a, b := word(), word()
			n := shape.paa * (2 + rng.Intn(40))
			code := cd.MINDISTCode(codec.PackString(a), codec.PackString(b), n)
			str, err := dt.MINDIST(a, b, n)
			if err != nil {
				t.Fatal(err)
			}
			if code != str {
				t.Fatalf("shape %+v: MINDISTCode(%q,%q,%d) = %v, DistTable.MINDIST = %v",
					shape, a, b, n, code, str)
			}
			pairs[i] = pair{a, b, code, str}
		}
		// Orderings agree pairwise because the values are identical; spot
		// check the comparison anyway so a future divergence in either path
		// fails loudly.
		for i := 1; i < len(pairs); i++ {
			if (pairs[i-1].code < pairs[i].code) != (pairs[i-1].str < pairs[i].str) {
				t.Fatalf("shape %+v: ordering of pairs %d,%d differs between coded and string MINDIST", shape, i-1, i)
			}
		}
	}
}

// TestMINDISTLowerBoundsKernel is the admissibility property the pruning
// rests on: MINDIST between two windows' SAX words never exceeds the
// distance kernel's z-normalized Euclidean distance (modulo the float
// slack the filter applies).
func TestMINDISTLowerBoundsKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ts := make([]float64, 2000)
	for i := range ts {
		ts[i] = math.Sin(float64(i)/9) + rng.NormFloat64()*0.3
	}
	for _, p := range []sax.Params{
		{Window: 64, PAA: 4, Alphabet: 4},
		{Window: 100, PAA: 7, Alphabet: 6},
		{Window: 37, PAA: 5, Alphabet: 3}, // window not a PAA multiple
	} {
		enc, err := sax.NewEncoder(p)
		if err != nil {
			t.Fatal(err)
		}
		dt, err := sax.NewDistTable(p.Alphabet)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := sax.NewCodeDist(dt, enc.Codec())
		if err != nil {
			t.Fatal(err)
		}
		e := newEngine(ts)
		for trial := 0; trial < 500; trial++ {
			i := rng.Intn(len(ts) - p.Window)
			j := rng.Intn(len(ts) - p.Window)
			ci, err := enc.EncodeCode(ts[i : i+p.Window])
			if err != nil {
				t.Fatal(err)
			}
			cj, err := enc.EncodeCode(ts[j : j+p.Window])
			if err != nil {
				t.Fatal(err)
			}
			lb := cd.MINDISTCode(ci, cj, p.Window)
			d := e.dist(i, j, p.Window, math.Inf(1))
			if lb > d*(1+pruneSlack)+1e-12 {
				t.Fatalf("%v: MINDIST %v exceeds true distance %v for windows %d,%d — bound not admissible",
					p, lb, d, i, j)
			}
		}
	}
}

// TestHOTSAXCodedEquivalence pins the coded HOTSAX contract: byte-identical
// discords, and every comparison the filter skips is exactly one kernel
// call the plain search makes (coded DistCalls + Pruned == plain
// DistCalls), with the filter actually firing.
func TestHOTSAXCodedEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		ts := anomalousSine(2400, 60, 1100, 60, seed)
		p := sax.Params{Window: 60, PAA: 4, Alphabet: 4}
		st := NewStats(ts)
		plain, err := HOTSAXStatsCtx(ctx, st, p, 3, seed)
		if err != nil {
			t.Fatalf("seed %d: plain: %v", seed, err)
		}
		coded, err := HOTSAXStatsCodedCtx(ctx, st, p, 3, seed)
		if err != nil {
			t.Fatalf("seed %d: coded: %v", seed, err)
		}
		if !reflect.DeepEqual(coded.Discords, plain.Discords) {
			t.Errorf("seed %d: coded HOTSAX discords differ:\n coded %+v\n plain %+v", seed, coded.Discords, plain.Discords)
		}
		if coded.DistCalls+coded.Pruned != plain.DistCalls {
			t.Errorf("seed %d: coded DistCalls %d + Pruned %d != plain DistCalls %d",
				seed, coded.DistCalls, coded.Pruned, plain.DistCalls)
		}
		if coded.Pruned == 0 {
			t.Errorf("seed %d: coded HOTSAX pruned nothing", seed)
		}
		if plain.Pruned != 0 {
			t.Errorf("seed %d: plain HOTSAX reports Pruned = %d, want 0", seed, plain.Pruned)
		}
	}
}

// TestRRACodedEquivalence pins the coded RRA contract across serial and
// parallel searches: byte-identical discords for every worker count, and
// on the serial search every skipped comparison is exactly one kernel
// call the plain search makes (coded DistCalls + Pruned == plain
// DistCalls). Parallel counts depend on scheduling, so only the discords
// are compared there.
func TestRRACodedEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{5, 6} {
		ts := anomalousSine(3000, 80, 1500, 80, seed)
		p := sax.Params{Window: 80, PAA: 5, Alphabet: 4}
		rs := ruleSetFor(t, ts, p)
		st := NewStats(ts)

		plain, err := rraParallel(ctx, st, Candidates(rs), 3, seed, 1, Tuning{}, nil)
		if err != nil {
			t.Fatalf("seed %d: plain: %v", seed, err)
		}
		coded, err := RRAParallelStatsCodedCtx(ctx, st, rs, 3, seed, 1, p)
		if err != nil {
			t.Fatalf("seed %d: coded serial: %v", seed, err)
		}
		if !reflect.DeepEqual(coded.Discords, plain.Discords) {
			t.Errorf("seed %d: coded serial RRA discords differ:\n coded %+v\n plain %+v", seed, coded.Discords, plain.Discords)
		}
		if coded.DistCalls+coded.Pruned != plain.DistCalls {
			t.Errorf("seed %d: coded serial DistCalls %d + Pruned %d != plain DistCalls %d",
				seed, coded.DistCalls, coded.Pruned, plain.DistCalls)
		}

		for _, workers := range []int{2, 4} {
			par, err := RRAParallelStatsCodedCtx(ctx, st, rs, 3, seed, workers, p)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if !reflect.DeepEqual(par.Discords, plain.Discords) {
				t.Errorf("seed %d workers %d: coded parallel RRA discords differ from serial plain", seed, workers)
			}
		}
	}
}

// TestCodedPrunerDisabledGracefully: a parameterization the filter cannot
// serve (non-default norm threshold) must run unfiltered, not wrong.
func TestCodedPrunerDisabledGracefully(t *testing.T) {
	ts := anomalousSine(1200, 60, 600, 60, 9)
	p := sax.Params{Window: 60, PAA: 4, Alphabet: 4, NormThreshold: 0.5}
	if cp := newCandidatePruner(ts, []Candidate{{IV: timeseries.Interval{Start: 0, End: 59}}}, p); cp != nil {
		t.Error("newCandidatePruner built a filter for a non-default norm threshold")
	}
	st := NewStats(ts)
	coded, err := HOTSAXStatsCodedCtx(context.Background(), st, p, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := HOTSAXStatsCtx(context.Background(), st, p, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coded.Discords, plain.Discords) {
		t.Error("disabled-filter coded search differs from plain search")
	}
	if coded.Pruned != 0 {
		t.Errorf("disabled filter pruned %d comparisons", coded.Pruned)
	}
}
