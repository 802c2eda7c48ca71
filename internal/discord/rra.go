package discord

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"grammarviz/internal/grammar"
	"grammarviz/internal/timeseries"
	"grammarviz/internal/workspace"
)

// Candidate is one RRA search interval: a grammar-rule occurrence, or a
// zero-coverage gap (Freq 0).
type Candidate struct {
	IV     timeseries.Interval
	RuleID int // -1 for zero-coverage gaps
	Freq   int // the rule's usage frequency
}

// minCandidateLen is the shortest interval RRA will evaluate: comparing
// z-normalized subsequences needs at least a handful of points to be
// meaningful.
const minCandidateLen = 4

// Candidates assembles RRA's search intervals from a rule set: every rule
// occurrence, plus every maximal run of words that never made it into any
// rule ("continuous subsequences of the discretized time series that do
// not form any rule", Section 4.2) — frequency 0, considered first by the
// outer loop. Both kinds of interval span at least one window, so the
// length-normalized distance compares like with like.
func Candidates(rs *grammar.RuleSet) []Candidate {
	var cands []Candidate
	for _, rec := range rs.Records {
		for _, iv := range rec.Occurrences {
			if iv.Len() >= minCandidateLen {
				cands = append(cands, Candidate{IV: iv, RuleID: rec.ID, Freq: rec.Frequency})
			}
		}
	}
	for _, run := range rs.UncoveredWordRuns() {
		iv := rs.WordInterval(run[0], run[1])
		if iv.Len() >= minCandidateLen {
			cands = append(cands, Candidate{IV: iv, RuleID: -1, Freq: 0})
		}
	}
	return cands
}

// rraOrders bundles the seeded heuristic orderings shared by the serial
// and parallel searches: outer visiting order, same-rule occurrence lists,
// and the shared random inner order. Deriving them identically from the
// seed is what keeps the two search modes byte-identical.
type rraOrders struct {
	outer  []int
	byRule map[int][]int
	inner  []int
}

func newRRAOrders(cands []Candidate, seed int64, tuning Tuning) rraOrders {
	rng := rand.New(rand.NewSource(seed))
	o := rraOrders{
		outer: orderOuter(len(cands), func(i int) int { return cands[i].Freq }, rng, tuning),
	}
	o.byRule = make(map[int][]int)
	if !tuning.NoSameGroupFirst {
		for i, c := range cands {
			o.byRule[c.RuleID] = append(o.byRule[c.RuleID], i)
		}
	}
	o.inner = rng.Perm(len(cands)) // shared random order for the second phase
	return o
}

// rraSearchPruned is the paper's exact variable-length discord search
// (Algorithm 1) on one goroutine, a HOTSAX-style nested loop over the
// grammar-derived candidates: the outer loop in ascending rule frequency
// (zero-coverage gaps first, shuffled within a frequency class), the inner
// loop over the candidate's own rule first, then the rest in random order.
// Distance is the length-normalized Euclidean distance of Eq. 1, so
// discords of different lengths compare. Top-k re-runs the search with
// found discords' regions excluded. A nil cp runs without the MINDIST
// pre-filter.
func rraSearchPruned(ctx context.Context, st *Stats, cands []Candidate, k int, seed int64, tuning Tuning, cp *codePruner) (Result, error) {
	ord := newRRAOrders(cands, seed, tuning)
	m := len(st.ts)
	e := st.viewCtx(ctx)
	e.refKernel = tuning.ReferenceKernel
	kw := workspace.GetKernel()
	defer workspace.PutKernel(kw)
	e.scratch = kw
	e.prune = cp
	var res Result
	for found := 0; found < k; found++ {
		best := Discord{Dist: -1, RuleID: -1, NNStart: -1}
		for _, ci := range ord.outer {
			if e.cancelled() {
				break
			}
			c := cands[ci]
			if overlapsAny(c.IV, res.Discords) {
				continue
			}
			nn, nnStart := e.rraNearest(c, ci, cands, ord.byRule[c.RuleID], ord.inner, cutoffRef{fixed: best.Dist}, m)
			if nnStart >= 0 && nn > best.Dist {
				best = Discord{Interval: c.IV, Dist: nn, NNStart: nnStart, RuleID: c.RuleID, Freq: c.Freq}
			}
		}
		if err := e.cancelCause(); err != nil {
			// The round was cut short: its best-so-far is not validated
			// against the full outer order, so only the completed rounds'
			// discords are reported.
			res.DistCalls = e.Calls()
			res.Pruned = e.Pruned()
			res.Partial = true
			return res, fmt.Errorf("discord: rra cancelled after %d of %d discords: %w", len(res.Discords), k, err)
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

// cutoffRef supplies the best-so-far pruning cutoff to the inner loop:
// either a fixed value (serial search) or a monotonically rising shared
// maximum (parallel search). A stale shared value only weakens pruning —
// it never changes which candidate wins — so both sources yield identical
// discords.
type cutoffRef struct {
	shared *atomicMax
	fixed  float64
}

func (c cutoffRef) value() float64 {
	if c.shared != nil {
		return c.shared.load()
	}
	return c.fixed
}

// rraNearest runs the RRA inner loop for candidate c (index ci): same-rule
// occurrences first, then every candidate in the shared random order. It
// returns (-Inf, -2) as soon as a distance below the best-so-far cutoff
// proves c cannot be the discord. Distances are normalized by the
// candidate's length. The candidate subsequence is pinned once — its
// normalization derived a single time into the engine's scratch buffer —
// and every occurrence comparison runs the query-pinned kernel.
func (e *engine) rraNearest(c Candidate, ci int, cands []Candidate, sameRule, inner []int, bs cutoffRef, m int) (float64, int) {
	length := c.IV.Len()
	e.pin(c.IV.Start, length)
	nn := math.Inf(1)
	nnStart := -1
	scale := float64(length)

	visit := func(qi int) bool {
		if e.cancelled() {
			return false // abandon; the caller checks e.cancelCause()
		}
		if qi == ci {
			return true
		}
		q := cands[qi].IV.Start
		if abs(c.IV.Start-q) < length {
			return true // self match (Algorithm 1 line 7)
		}
		if q+length > m {
			return true // cannot extract len(p) points at q
		}
		bestSoFar := bs.value()
		cutoff := nn
		if bestSoFar > cutoff {
			cutoff = bestSoFar
		}
		// MINDIST pre-filter: when the lower bound between the two packed
		// word codes already exceeds the raw-scale cutoff, the kernel call
		// can only confirm "neither an nn update nor an abandon" — skip it.
		if e.prune != nil && e.prune.skip(ci, qi, length, cutoff*scale) {
			e.pruned++
			return true
		}
		d := e.pinnedDist(q, cutoff*scale) / scale
		if d < bestSoFar {
			return false
		}
		if d < nn {
			nn = d
			nnStart = q
		}
		return true
	}

	visited := make(map[int]bool, len(sameRule))
	for _, qi := range sameRule {
		visited[qi] = true
		if !visit(qi) {
			return math.Inf(-1), -2
		}
	}
	for _, qi := range inner {
		if visited[qi] {
			continue
		}
		if !visit(qi) {
			return math.Inf(-1), -2
		}
	}
	return nn, nnStart
}
