package discord

import (
	"testing"

	"grammarviz/internal/sax"
)

func TestNearestNonSelfParallelMatchesSerial(t *testing.T) {
	ts := anomalousSine(2000, 50, 1000, 50, 21)
	rs := ruleSetFor(t, ts, sax.Params{Window: 50, PAA: 5, Alphabet: 4})
	serial := nearestNonSelfOf(ts, rs, 1)
	for _, workers := range []int{0, 1, 2, 4, 7} {
		got := nearestNonSelfOf(ts, rs, workers)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d results, serial %d", workers, len(got), len(serial))
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: result %d differs: %+v vs %+v", workers, i, got[i], serial[i])
			}
		}
	}
}

func TestNearestNonSelfParallelMoreWorkersThanCandidates(t *testing.T) {
	ts := anomalousSine(400, 40, 200, 40, 22)
	rs := ruleSetFor(t, ts, sax.Params{Window: 40, PAA: 4, Alphabet: 4})
	got := nearestNonSelfOf(ts, rs, 10_000)
	serial := nearestNonSelfOf(ts, rs, 1)
	if len(got) != len(serial) {
		t.Fatalf("%d vs %d results", len(got), len(serial))
	}
}
