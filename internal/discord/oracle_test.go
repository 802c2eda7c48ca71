package discord

import (
	"context"

	"grammarviz/internal/grammar"
	"grammarviz/internal/sax"
)

// Shorthands for the in-package tests: each runs one unexported search on
// fresh series statistics with a never-cancelled context and no MINDIST
// pre-filter, so its call count is the plain algorithm's.

// newEngine is a fresh distance engine over ts, for the kernel tests.
func newEngine(ts []float64) *engine { return NewStats(ts).view() }

// rraOf is the serial, uncoded RRA search — the oracle the coded and
// parallel searches are compared against.
func rraOf(ts []float64, rs *grammar.RuleSet, k int, seed int64) (Result, error) {
	return rraParallel(context.Background(), NewStats(ts), Candidates(rs), k, seed, 1, Tuning{}, nil)
}

func hotsaxOf(ts []float64, p sax.Params, k int, seed int64) (Result, error) {
	return hotsaxSearch(context.Background(), NewStats(ts), p, k, seed, Tuning{})
}

func bruteForceOf(ts []float64, window, k int) (Result, error) {
	return bruteForceSearch(context.Background(), NewStats(ts), window, k, Tuning{})
}

// nearestNonSelfOf runs the nearest-non-self scan over workers goroutines
// and re-raises a contained worker panic, which a background context
// cannot otherwise produce as an error.
func nearestNonSelfOf(ts []float64, rs *grammar.RuleSet, workers int) []Discord {
	out, err := nearestNonSelfSearch(context.Background(), NewStats(ts), rs, workers, Tuning{})
	if err != nil {
		panic(err)
	}
	return out
}
