package discord

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"grammarviz/internal/grammar"
	"grammarviz/internal/sax"
	"grammarviz/internal/worker"
	"grammarviz/internal/workspace"
)

// testHookRRAStripe, when non-nil, runs at the start of every parallel RRA
// stripe. It exists so tests can inject a panic into a worker goroutine
// and assert the panic-containment contract; never set in production.
var testHookRRAStripe func(w int)

// atomicMax is a monotonically rising float64 shared by the workers of a
// parallel search round: the best discord distance found so far. Readers
// may observe a stale (smaller) value — that only weakens pruning, never
// correctness.
type atomicMax struct{ bits atomic.Uint64 }

func newAtomicMax(v float64) *atomicMax {
	m := &atomicMax{}
	m.bits.Store(math.Float64bits(v))
	return m
}

func (m *atomicMax) load() float64 { return math.Float64frombits(m.bits.Load()) }

// raise lifts the maximum to v if v is larger. CAS on the bit pattern with
// a float comparison keeps the value monotone under contention.
func (m *atomicMax) raise(v float64) {
	for {
		old := m.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if m.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// RRAParallelStatsCodedCtx is the RRA discord search (see
// rraSearchPruned) with each top-k round's outer loop fanned out over up
// to workers goroutines (workers <= 0 selects GOMAXPROCS), on series
// statistics shared with the caller. The discords are byte-identical for
// every worker count; only DistCalls and Pruned vary with scheduling,
// because the shared best-so-far cutoff rises in a different order. With
// one worker the search runs serially and its counts are deterministic.
//
// Why the result is exact: workers share one monotonically rising cutoff —
// the largest nearest-neighbor distance completed so far this round, which
// is never above the round's final maximum. A candidate is abandoned only
// on a distance *strictly below* the cutoff, and every distance of a
// max-achieving candidate is >= the maximum, so the candidates that could
// win are always computed in full, with the serial algorithm's exact inner
// visiting order. The round winner is then chosen by replaying the serial
// outer order ("first candidate strictly above the best so far"), which
// reproduces the serial tie-breaking.
//
// The coded MINDIST pre-filter (see codeprune.go) packs each candidate
// into a SAX word code of p's shape and skips comparisons whose lower
// bound already exceeds the pruning cutoff, counting them in Pruned: on a
// serial search DistCalls + Pruned is the unfiltered search's DistCalls.
// A p that cannot drive the filter runs the search unfiltered. A
// cancelled context returns the fully completed rounds' discords with
// Partial set and a ctx.Err()-wrapped error; a worker panic becomes a
// *worker.PanicError and cancels the sibling workers.
func RRAParallelStatsCodedCtx(ctx context.Context, st *Stats, rs *grammar.RuleSet, k int, seed int64, workers int, p sax.Params) (Result, error) {
	cands := Candidates(rs)
	return rraParallel(ctx, st, cands, k, seed, workers, Tuning{}, newCandidatePruner(st.ts, cands, p))
}

func rraParallel(ctx context.Context, st *Stats, cands []Candidate, k int, seed int64, workers int, tuning Tuning, cp *codePruner) (Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers <= 1 {
		// The serial path: deterministic DistCalls as well as results.
		return rraSearchPruned(ctx, st, cands, k, seed, tuning, cp)
	}

	ord := newRRAOrders(cands, seed, tuning)
	m := len(st.ts)
	type candResult struct {
		nn      float64
		nnStart int
	}
	results := make([]candResult, len(ord.outer))
	var totalCalls, totalPruned int64
	var res Result
	for found := 0; found < k; found++ {
		cutoff := newAtomicMax(-1)
		g, gctx := worker.WithContext(ctx)
		for w := 0; w < workers; w++ {
			w := w
			g.Go(func() error {
				if testHookRRAStripe != nil {
					testHookRRAStripe(w)
				}
				e := st.viewCtx(gctx)
				e.refKernel = tuning.ReferenceKernel
				kw := workspace.GetKernel()
				defer workspace.PutKernel(kw)
				e.scratch = kw
				e.prune = cp
				defer func() {
					atomic.AddInt64(&totalCalls, e.Calls())
					atomic.AddInt64(&totalPruned, e.Pruned())
				}()
				for pos := w; pos < len(ord.outer); pos += workers {
					if e.cancelled() {
						return e.cancelCause()
					}
					ci := ord.outer[pos]
					c := cands[ci]
					if overlapsAny(c.IV, res.Discords) {
						results[pos] = candResult{nnStart: -1}
						continue
					}
					nn, nnStart := e.rraNearest(c, ci, cands, ord.byRule[c.RuleID], ord.inner, cutoffRef{shared: cutoff}, m)
					if err := e.cancelCause(); err != nil {
						return err // scan cut short; results[pos] left unset
					}
					results[pos] = candResult{nn: nn, nnStart: nnStart}
					if nnStart >= 0 {
						cutoff.raise(nn)
					}
				}
				return nil
			})
		}
		if err := g.Wait(); err != nil {
			res.DistCalls = totalCalls
			res.Pruned = totalPruned
			res.Partial = true
			return res, fmt.Errorf("discord: rra parallel aborted after %d of %d discords: %w", len(res.Discords), k, err)
		}

		// Serial-order reduction: replay the outer order so ties resolve
		// exactly as in the single-threaded loop.
		best := Discord{Dist: -1, RuleID: -1, NNStart: -1}
		for pos, ci := range ord.outer {
			r := results[pos]
			if r.nnStart >= 0 && r.nn > best.Dist {
				c := cands[ci]
				best = Discord{Interval: c.IV, Dist: r.nn, NNStart: r.nnStart, RuleID: c.RuleID, Freq: c.Freq}
			}
		}
		if best.NNStart < 0 {
			break
		}
		res.Discords = append(res.Discords, best)
	}
	res.DistCalls = totalCalls
	res.Pruned = totalPruned
	if len(res.Discords) == 0 {
		return res, ErrNoCandidates
	}
	return res, nil
}
