package discord

import (
	"math/rand"
	"sort"
)

// Tuning disables individual search heuristics, for ablation studies of
// how much each ordering contributes to the pruning (Section 4.2 explains
// both intuitions). The zero value is the full algorithm.
type Tuning struct {
	// NoRarityOrder visits outer-loop candidates in random order instead
	// of ascending rule-usage frequency.
	NoRarityOrder bool
	// NoSameGroupFirst skips the inner loop's same-rule (RRA) or
	// same-word (HOTSAX) first phase.
	NoSameGroupFirst bool
	// CodePrune enables the coded MINDIST pre-filter (see codeprune.go) in
	// the HOTSAX inner loop. Unlike the other switches it never changes
	// which discords are found — only how many kernel calls it takes — so
	// it is an optimization toggle rather than an ablation, surfaced here
	// so benchmarks can measure both sides.
	CodePrune bool
	// ReferenceKernel routes every distance computation through the
	// retained per-element kernel (normalization re-derived inline per
	// call, abandonment checked per element) instead of the blocked
	// query-pinned fast path. The two are bit-identical by construction —
	// discords, distances and call counts never move — so this switch
	// exists purely for the equivalence property tests and for measuring
	// what the fast path saves.
	ReferenceKernel bool
}

// orderOuter produces the outer-loop visiting order: shuffled, then
// stably sorted by ascending frequency unless rarity ordering is disabled.
func orderOuter(n int, freqOf func(int) int, rng *rand.Rand, tuning Tuning) []int {
	outer := rng.Perm(n)
	if !tuning.NoRarityOrder {
		sort.SliceStable(outer, func(i, j int) bool { return freqOf(outer[i]) < freqOf(outer[j]) })
	}
	return outer
}
