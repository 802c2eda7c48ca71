package discord

import (
	"context"
	"fmt"
	"testing"

	"grammarviz/internal/sax"
)

// The parallel RRA must return the same discords as the serial search for
// every seed and worker count — the determinism argument in rra_parallel.go
// made executable. DistCalls is scheduling-dependent (a stale shared cutoff
// prunes less), so it is only checked to stay within a loose band of the
// serial count.

func assertSameDiscords(t *testing.T, tag string, want, got Result) {
	t.Helper()
	if len(got.Discords) != len(want.Discords) {
		t.Fatalf("%s: %d discords, want %d", tag, len(got.Discords), len(want.Discords))
	}
	for i := range want.Discords {
		if got.Discords[i] != want.Discords[i] {
			t.Fatalf("%s: discord[%d] = %+v, want %+v", tag, i, got.Discords[i], want.Discords[i])
		}
	}
}

func TestRRAParallelMatchesSerial(t *testing.T) {
	p := sax.Params{Window: 60, PAA: 4, Alphabet: 4}
	ts := anomalousSine(2500, 120, 1300, 70, 7)
	rs := ruleSetFor(t, ts, p)
	st := NewStats(ts)

	ctx := context.Background()
	cands := Candidates(rs)
	for seed := int64(0); seed < 5; seed++ {
		want, err := rraParallel(ctx, st, cands, 3, seed, 1, Tuning{}, nil)
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		for _, workers := range []int{2, 3, 4} {
			tag := fmt.Sprintf("seed=%d workers=%d", seed, workers)
			got, err := rraParallel(ctx, st, cands, 3, seed, workers, Tuning{}, nil)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			assertSameDiscords(t, tag, want, got)
			// Comparable work: shared-cutoff staleness can cost (or, with
			// lucky scheduling, save) pruning, but not change the order of
			// magnitude.
			if got.DistCalls < want.DistCalls/5 || got.DistCalls > want.DistCalls*5 {
				t.Errorf("%s: DistCalls = %d, serial = %d (outside 5x band)",
					tag, got.DistCalls, want.DistCalls)
			}
		}
	}
}

// Workers <= 0 selects all cores; workers == 1 must take the exact serial
// path, DistCalls included.
func TestRRAParallelWorkerClamping(t *testing.T) {
	p := sax.Params{Window: 60, PAA: 4, Alphabet: 4}
	ts := anomalousSine(1500, 120, 700, 70, 3)
	rs := ruleSetFor(t, ts, p)

	ctx := context.Background()
	cands := Candidates(rs)
	want, err := rraSearchPruned(ctx, NewStats(ts), cands, 2, 1, Tuning{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	one, err := rraParallel(ctx, NewStats(ts), cands, 2, 1, 1, Tuning{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDiscords(t, "workers=1", want, one)
	if one.DistCalls != want.DistCalls {
		t.Errorf("workers=1 DistCalls = %d, want serial's %d", one.DistCalls, want.DistCalls)
	}
	auto, err := rraParallel(ctx, NewStats(ts), cands, 2, 1, 0, Tuning{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDiscords(t, "workers=0", want, auto)
}

// The parallel nearest-non-self scan shares one Stats across workers and
// must stay byte-identical to the serial scan.
func TestNearestNonSelfParallelStatsMatchesSerial(t *testing.T) {
	p := sax.Params{Window: 60, PAA: 4, Alphabet: 4}
	ts := anomalousSine(2000, 120, 900, 70, 5)
	rs := ruleSetFor(t, ts, p)
	st := NewStats(ts)

	want := nearestNonSelfOf(ts, rs, 1)
	for _, workers := range []int{1, 2, 3, 4} {
		got, err := NearestNonSelfParallelStatsCtx(context.Background(), st, rs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// One Stats shared by every search on a series must give each search
// exactly what a fresh Stats gives it.
func TestStatsSharingVariantsMatch(t *testing.T) {
	p := sax.Params{Window: 60, PAA: 4, Alphabet: 4}
	ts := anomalousSine(900, 120, 400, 70, 11)
	rs := ruleSetFor(t, ts, p)
	st := NewStats(ts)

	ctx := context.Background()
	hs1, err1 := hotsaxOf(ts, p, 1, 42)
	hs2, err2 := HOTSAXStatsCtx(ctx, st, p, 1, 42)
	if err1 != nil || err2 != nil {
		t.Fatalf("HOTSAX: %v / %v", err1, err2)
	}
	assertSameDiscords(t, "hotsax", hs1, hs2)
	if hs1.DistCalls != hs2.DistCalls {
		t.Errorf("shared-Stats HOTSAX DistCalls = %d, want %d", hs2.DistCalls, hs1.DistCalls)
	}

	bf1, err1 := bruteForceOf(ts, p.Window, 1)
	bf2, err2 := BruteForceStatsCtx(ctx, st, p.Window, 1)
	if err1 != nil || err2 != nil {
		t.Fatalf("BruteForce: %v / %v", err1, err2)
	}
	assertSameDiscords(t, "bruteforce", bf1, bf2)
	if bf1.DistCalls != bf2.DistCalls {
		t.Errorf("shared-Stats brute force DistCalls = %d, want %d", bf2.DistCalls, bf1.DistCalls)
	}

	rra1, err1 := rraOf(ts, rs, 2, 0)
	rra2, err2 := rraParallel(ctx, st, Candidates(rs), 2, 0, 1, Tuning{}, nil)
	if err1 != nil || err2 != nil {
		t.Fatalf("RRA: %v / %v", err1, err2)
	}
	assertSameDiscords(t, "rra", rra1, rra2)
	if rra1.DistCalls != rra2.DistCalls {
		t.Errorf("shared-Stats RRA DistCalls = %d, want %d", rra2.DistCalls, rra1.DistCalls)
	}
}
