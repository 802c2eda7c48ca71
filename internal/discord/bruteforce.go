package discord

import (
	"context"
	"fmt"
	"math"

	"grammarviz/internal/timeseries"
	"grammarviz/internal/workspace"
)

// BruteForceStatsCtx finds the top-k fixed-length discords by exhaustive
// nested search on prebuilt series statistics: every candidate
// subsequence is compared against every non-self match. It is O(m^2)
// distance calls and exists as the exactness baseline for Table 1. Early
// abandoning inside the kernel does not reduce the call count, matching
// the paper's accounting. The nested loops poll ctx at bounded intervals
// and, when cancelled, the discords of the fully completed top-k rounds
// are returned with Partial set plus a ctx.Err()-wrapped error.
func BruteForceStatsCtx(ctx context.Context, st *Stats, window, k int) (Result, error) {
	return bruteForceSearch(ctx, st, window, k, Tuning{})
}

func bruteForceSearch(ctx context.Context, st *Stats, window, k int, tuning Tuning) (Result, error) {
	ts := st.ts
	if window <= 0 || window > len(ts) {
		return Result{}, fmt.Errorf("%w: window=%d n=%d", timeseries.ErrBadWindow, window, len(ts))
	}
	e := st.viewCtx(ctx)
	e.refKernel = tuning.ReferenceKernel
	kw := workspace.GetKernel()
	defer workspace.PutKernel(kw)
	e.scratch = kw
	var res Result
	for found := 0; found < k; found++ {
		best := Discord{Dist: -1, RuleID: -1, NNStart: -1}
		for p := 0; p+window <= len(ts); p++ {
			if e.cancelled() {
				break
			}
			iv := timeseries.Interval{Start: p, End: p + window - 1}
			if overlapsAny(iv, res.Discords) {
				continue
			}
			e.pin(p, window)
			nn := math.Inf(1)
			nnStart := -1
			for q := 0; q+window <= len(ts); q++ {
				if abs(p-q) < window {
					continue // self match
				}
				if e.cancelled() {
					nnStart = -1
					break
				}
				d := e.pinnedDist(q, nn)
				if d < nn {
					nn = d
					nnStart = q
				}
			}
			if nnStart >= 0 && nn > best.Dist {
				best = Discord{Interval: iv, Dist: nn, NNStart: nnStart, RuleID: -1}
			}
		}
		if err := e.cancelCause(); err != nil {
			res.DistCalls = e.Calls()
			res.Partial = true
			return res, fmt.Errorf("discord: brute force cancelled after %d of %d discords: %w", len(res.Discords), k, err)
		}
		if best.NNStart < 0 {
			break // no further candidate has a non-self match
		}
		res.Discords = append(res.Discords, best)
	}
	res.DistCalls = e.Calls()
	if len(res.Discords) == 0 {
		return res, ErrNoCandidates
	}
	return res, nil
}

// BruteForceCallCount returns the number of distance calls a brute-force
// top-1 search performs on a series of length m with the given window,
// without running it: each of the m-window+1 candidates is compared to
// every non-self match. The paper's Table 1 reports this number for its
// largest datasets where actually running brute force is impractical.
func BruteForceCallCount(m, window int) int64 {
	nCand := int64(m - window + 1)
	if nCand <= 0 {
		return 0
	}
	var total int64
	for p := int64(0); p < nCand; p++ {
		// q ranges over [0, nCand) with |p-q| >= window.
		lo := p - int64(window) + 1
		if lo < 0 {
			lo = 0
		}
		hi := p + int64(window) - 1
		if hi > nCand-1 {
			hi = nCand - 1
		}
		total += nCand - (hi - lo + 1)
	}
	return total
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
