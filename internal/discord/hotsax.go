package discord

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"grammarviz/internal/sax"
	"grammarviz/internal/timeseries"
	"grammarviz/internal/workspace"
)

// HOTSAXStatsCtx finds the top-k fixed-length discords with the HOTSAX
// heuristic (Keogh, Lin, Fu 2005) on series statistics shared with the
// caller: every window is SAX-encoded; the outer loop visits candidates in
// ascending order of their word's frequency (rare words first, shuffled
// within a frequency class), and the inner loop visits same-word positions
// first, then the rest in random order. Both orderings maximize the effect
// of the best-so-far break and of early abandoning, without sacrificing
// exactness. Every comparison reaches the distance kernel, so DistCalls is
// the paper's Table 1 count. The word length and alphabet of p drive only
// the ordering; the discord is exact for the window length p.Window.
//
// The search polls ctx at bounded intervals and, when cancelled, returns
// the discords of the fully completed top-k rounds with Partial set plus a
// ctx.Err()-wrapped error.
func HOTSAXStatsCtx(ctx context.Context, st *Stats, p sax.Params, k int, seed int64) (Result, error) {
	return hotsaxSearch(ctx, st, p, k, seed, Tuning{})
}

// HOTSAXStatsCodedCtx is HOTSAXStatsCtx with the coded MINDIST pre-filter
// enabled (see codeprune.go): the search reuses the packed word codes its
// own discretization already produced, and inner-loop comparisons whose
// MINDIST lower bound already exceeds the pruning cutoff skip the distance
// kernel. Discords are byte-identical to HOTSAXStatsCtx, and the skipped
// comparisons are counted in Result.Pruned: DistCalls + Pruned equals
// HOTSAXStatsCtx's DistCalls. When the word shape does not pack into a
// uint64 or p uses a non-default norm threshold, the search silently runs
// unfiltered.
func HOTSAXStatsCodedCtx(ctx context.Context, st *Stats, p sax.Params, k int, seed int64) (Result, error) {
	return hotsaxSearch(ctx, st, p, k, seed, Tuning{CodePrune: true})
}

func hotsaxSearch(ctx context.Context, st *Stats, p sax.Params, k int, seed int64, tuning Tuning) (Result, error) {
	ts := st.ts
	if err := p.Validate(len(ts)); err != nil {
		return Result{}, err
	}
	window := p.Window
	d, err := sax.DiscretizeCtx(ctx, ts, p, sax.ReductionNone, 1)
	if err != nil {
		return Result{}, err
	}
	words := d.Strings() // words[i] = word of the window starting at i

	// Index: word -> positions, and per-position frequency.
	index := make(map[string][]int)
	for pos, w := range words {
		index[w] = append(index[w], pos)
	}
	freq := make([]int, len(words))
	for pos, w := range words {
		freq[pos] = len(index[w])
	}

	// Outer order: ascending word frequency; positions within the same
	// frequency class are shuffled.
	rng := rand.New(rand.NewSource(seed))
	outer := orderOuter(len(words), func(i int) int { return freq[i] }, rng, tuning)

	// One shared random visiting order for every inner loop; generating a
	// fresh permutation per candidate would cost O(m) each and dominate
	// the runtime the ordering is meant to save.
	inner := rng.Perm(len(words))

	e := st.viewCtx(ctx)
	e.refKernel = tuning.ReferenceKernel
	kw := workspace.GetKernel()
	defer workspace.PutKernel(kw)
	e.scratch = kw
	if tuning.CodePrune {
		e.prune = newFixedPruner(d)
	}
	var res Result
	for found := 0; found < k; found++ {
		best := Discord{Dist: -1, RuleID: -1, NNStart: -1}
		for _, cand := range outer {
			if e.cancelled() {
				break
			}
			iv := timeseries.Interval{Start: cand, End: cand + window - 1}
			if overlapsAny(iv, res.Discords) {
				continue
			}
			sameWord := index[words[cand]]
			if tuning.NoSameGroupFirst {
				sameWord = nil
			}
			nn, nnStart := e.nearestNeighbor(cand, window, sameWord, inner, best.Dist)
			if nnStart >= 0 && nn > best.Dist {
				best = Discord{Interval: iv, Dist: nn, NNStart: nnStart, RuleID: -1}
			}
		}
		if err := e.cancelCause(); err != nil {
			res.DistCalls = e.Calls()
			res.Pruned = e.Pruned()
			res.Partial = true
			return res, fmt.Errorf("discord: hotsax cancelled after %d of %d discords: %w", len(res.Discords), k, err)
		}
		if best.NNStart < 0 {
			break
		}
		res.Discords = append(res.Discords, best)
	}
	res.DistCalls = e.Calls()
	res.Pruned = e.Pruned()
	if len(res.Discords) == 0 {
		return res, ErrNoCandidates
	}
	return res, nil
}

// nearestNeighbor runs the HOTSAX inner loop for candidate cand: same-word
// positions first, then all positions in the shared random order inner. It
// returns early with (-Inf, -2) when a distance below bestSoFar proves
// cand cannot be the discord. The candidate is pinned once — normalized
// into the engine's scratch buffer — so every neighbor comparison runs the
// query-pinned kernel.
func (e *engine) nearestNeighbor(cand, window int, sameWord, inner []int, bestSoFar float64) (float64, int) {
	e.pin(cand, window)
	nn := math.Inf(1)
	nnStart := -1
	visit := func(q int) bool {
		if e.cancelled() {
			return false // abandon; the caller checks e.cancelCause()
		}
		if abs(cand-q) < window {
			return true // self match, skip
		}
		cutoff := nn
		if bestSoFar > cutoff {
			cutoff = bestSoFar
		}
		// MINDIST pre-filter: a lower bound above the cutoff proves the
		// kernel call could neither update nn nor abandon the candidate.
		if e.prune != nil && e.prune.skip(cand, q, window, cutoff) {
			e.pruned++
			return true
		}
		d := e.pinnedDist(q, cutoff)
		if d < bestSoFar {
			return false // cand cannot beat the best-so-far discord
		}
		if d < nn {
			nn = d
			nnStart = q
		}
		return true
	}
	for _, q := range sameWord {
		if !visit(q) {
			return math.Inf(-1), -2
		}
	}
	// Random-order pass over all positions, skipping the same-word
	// positions already visited.
	skip := make(map[int]bool, len(sameWord))
	for _, q := range sameWord {
		skip[q] = true
	}
	for _, q := range inner {
		if skip[q] {
			continue
		}
		if !visit(q) {
			return math.Inf(-1), -2
		}
	}
	return nn, nnStart
}
