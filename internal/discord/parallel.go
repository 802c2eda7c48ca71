package discord

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"grammarviz/internal/grammar"
	"grammarviz/internal/worker"
	"grammarviz/internal/workspace"
)

// NearestNonSelfParallelStatsCtx computes, for every RRA candidate
// interval, the true length-normalized distance to its nearest non-self
// match (no best-so-far break) — the data behind the bottom panels of
// Figures 2 and 3. The independent per-candidate scans fan out over up to
// workers goroutines (<= 0 selects GOMAXPROCS) sharing one Stats, so the
// output is byte-identical for every worker count. A cancelled ctx returns
// a ctx.Err()-wrapped error promptly; a worker panic is recovered into a
// *worker.PanicError instead of crashing the process.
func NearestNonSelfParallelStatsCtx(ctx context.Context, st *Stats, rs *grammar.RuleSet, workers int) ([]Discord, error) {
	return nearestNonSelfSearch(ctx, st, rs, workers, Tuning{})
}

func nearestNonSelfSearch(ctx context.Context, st *Stats, rs *grammar.RuleSet, workers int, tuning Tuning) ([]Discord, error) {
	cands := Candidates(rs)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}

	byRule := make(map[int][]int)
	for i, c := range cands {
		byRule[c.RuleID] = append(byRule[c.RuleID], i)
	}

	m := len(st.ts)
	results := make([]Discord, len(cands))
	found := make([]bool, len(cands))
	scan := func(ctx context.Context, w, stride int) error {
		e := st.viewCtx(ctx)
		e.refKernel = tuning.ReferenceKernel
		kw := workspace.GetKernel()
		defer workspace.PutKernel(kw)
		e.scratch = kw
		sc := newNNScratch(len(cands))
		for ci := w; ci < len(cands); ci += stride {
			if e.cancelled() {
				return e.cancelCause()
			}
			d, ok := nearestOf(e, cands, byRule, ci, m, sc)
			if err := e.cancelCause(); err != nil {
				return err // scan cut short; its result is not recorded
			}
			if ok {
				results[ci] = d
				found[ci] = true
			}
		}
		return nil
	}
	if workers <= 1 {
		if err := scan(ctx, 0, 1); err != nil {
			return nil, fmt.Errorf("discord: nearest-non-self cancelled: %w", err)
		}
	} else {
		g, gctx := worker.WithContext(ctx)
		for w := 0; w < workers; w++ {
			w := w
			g.Go(func() error { return scan(gctx, w, workers) })
		}
		if err := g.Wait(); err != nil {
			return nil, fmt.Errorf("discord: nearest-non-self aborted: %w", err)
		}
	}

	out := make([]Discord, 0, len(cands))
	for i := range results {
		if found[i] {
			out = append(out, results[i])
		}
	}
	return out, nil
}

// nnScratch is a worker-private visited marker reused across candidates:
// seen[qi] == gen means qi was visited in the same-rule phase of the
// current candidate's scan.
type nnScratch struct {
	seen []int
	gen  int
}

func newNNScratch(n int) *nnScratch { return &nnScratch{seen: make([]int, n)} }

// nearestOf scans all candidates for the true nearest non-self match of
// candidate ci, same-rule occurrences first for early-abandoning warmth.
// The candidate is pinned once so the whole scan runs the query-pinned
// kernel.
func nearestOf(e *engine, cands []Candidate, byRule map[int][]int, ci, m int, sc *nnScratch) (Discord, bool) {
	c := cands[ci]
	length := c.IV.Len()
	e.pin(c.IV.Start, length)
	scale := float64(length)
	nn := math.Inf(1)
	nnStart := -1
	visit := func(qi int) {
		if e.cancelled() || qi == ci {
			return
		}
		q := cands[qi].IV.Start
		if abs(c.IV.Start-q) < length || q+length > m {
			return
		}
		d := e.pinnedDist(q, nn*scale) / scale
		if d < nn {
			nn = d
			nnStart = q
		}
	}
	sc.gen++
	for _, qi := range byRule[c.RuleID] {
		sc.seen[qi] = sc.gen
		visit(qi)
	}
	for qi := range cands {
		if sc.seen[qi] != sc.gen {
			visit(qi)
		}
	}
	if nnStart < 0 {
		return Discord{}, false
	}
	return Discord{Interval: c.IV, Dist: nn, NNStart: nnStart, RuleID: c.RuleID, Freq: c.Freq}, true
}
