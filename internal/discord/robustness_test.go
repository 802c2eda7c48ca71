package discord

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"grammarviz/internal/datasets"
	"grammarviz/internal/sax"
	"grammarviz/internal/worker"
)

// countdownCtx is a context whose Err flips to context.Canceled after a
// fixed number of Err polls. It gives tests a deterministic way to cancel
// "mid-search" without racing a timer: the engine polls Err at bounded
// intervals, so the N-th poll is a reproducible point in the search.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(polls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(polls)
	return c
}

// Done returns a non-nil channel so the engine arms its polling; the
// channel never fires — cancellation is observed through Err only.
func (c *countdownCtx) Done() <-chan struct{} { return make(chan struct{}) }

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// waitForGoroutines polls until the goroutine count drops back to at most
// want, failing the test after a generous deadline. A plain instantaneous
// check would race goroutine teardown.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: %d running, want <= %d", runtime.NumGoroutine(), want)
}

func ecgRules(t *testing.T) ([]float64, *Stats, []Candidate) {
	t.Helper()
	ds, err := datasets.Generate("ecg0606")
	if err != nil {
		t.Fatalf("ecg0606: %v", err)
	}
	rs := ruleSetFor(t, ds.Series, ds.Params)
	return ds.Series, NewStats(ds.Series), Candidates(rs)
}

// TestRRAStripePanicContained injects a panic into one parallel RRA stripe
// and asserts the containment contract: the panic surfaces as an error
// carrying the panic value and a stack trace, the process survives, the
// result is marked Partial, and no worker goroutine leaks.
func TestRRAStripePanicContained(t *testing.T) {
	ds, err := datasets.Generate("ecg0606")
	if err != nil {
		t.Fatalf("ecg0606: %v", err)
	}
	rs := ruleSetFor(t, ds.Series, ds.Params)

	baseline := runtime.NumGoroutine()
	testHookRRAStripe = func(w int) {
		if w == 1 {
			panic("stripe-boom-77")
		}
	}
	defer func() { testHookRRAStripe = nil }()

	res, err := rraParallel(context.Background(), NewStats(ds.Series), Candidates(rs), 2, 1, 4, Tuning{}, nil)
	if err == nil {
		t.Fatal("injected panic did not surface as an error")
	}
	var pe *worker.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not unwrap to *worker.PanicError", err)
	}
	if pe.Value != "stripe-boom-77" {
		t.Errorf("panic value = %v, want stripe-boom-77", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack trace")
	}
	if !strings.Contains(err.Error(), "stripe-boom-77") {
		t.Errorf("error message %q does not mention the panic value", err)
	}
	if !res.Partial {
		t.Error("aborted search not marked Partial")
	}
	waitForGoroutines(t, baseline)
}

// TestNearestNonSelfCtxEquivalence checks that the exported scan with a
// background context returns byte-identical results to the serial scan,
// at one worker and at four.
func TestNearestNonSelfCtxEquivalence(t *testing.T) {
	ts := anomalousSine(800, 40, 400, 40, 7)
	rs := ruleSetFor(t, ts, sax.Params{Window: 60, PAA: 4, Alphabet: 4})

	st := NewStats(ts)
	serial := nearestNonSelfOf(ts, rs, 1)
	for _, workers := range []int{1, 4} {
		got, err := NearestNonSelfParallelStatsCtx(context.Background(), st, rs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d discords, serial %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: discord %d differs: %+v vs %+v", workers, i, got[i], serial[i])
			}
		}
	}
}

// TestRRACancellationMidSearch cancels an ecg0606 RRA search
// deterministically mid-round via a countdown context and checks the
// degradation contract: a ctx.Err()-wrapped error, Partial set, and any
// returned discords an exact prefix of the uncancelled run's.
func TestRRACancellationMidSearch(t *testing.T) {
	_, st, cands := ecgRules(t)

	full, err := rraSearchPruned(context.Background(), st, cands, 3, 1, Tuning{}, nil)
	if err != nil {
		t.Fatalf("uncancelled search: %v", err)
	}
	if len(full.Discords) == 0 {
		t.Fatal("uncancelled search found nothing; test series unusable")
	}

	// Sweep cancellation points from "immediately" to "well into the
	// search": every stop must obey the contract.
	sawCancel := false
	for _, polls := range []int64{0, 1, 5, 50, 500} {
		ctx := newCountdownCtx(polls)
		res, err := rraSearchPruned(ctx, NewStats(st.ts), cands, 3, 1, Tuning{}, nil)
		if err == nil {
			// The search finished before the countdown fired — completing
			// is always acceptable, but the result must then be the full
			// exact answer.
			if res.Partial {
				t.Fatalf("polls=%d: completed search marked Partial", polls)
			}
			if len(res.Discords) != len(full.Discords) {
				t.Fatalf("polls=%d: completed with %d discords, full run %d", polls, len(res.Discords), len(full.Discords))
			}
			continue
		}
		sawCancel = true
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("polls=%d: error %v does not wrap context.Canceled", polls, err)
		}
		if !res.Partial {
			t.Errorf("polls=%d: cancelled result not marked Partial", polls)
		}
		if len(res.Discords) >= len(full.Discords)+1 {
			t.Fatalf("polls=%d: partial run found %d discords, full run %d", polls, len(res.Discords), len(full.Discords))
		}
		for i := range res.Discords {
			if res.Discords[i] != full.Discords[i] {
				t.Errorf("polls=%d: partial discord %d = %+v, full run has %+v", polls, i, res.Discords[i], full.Discords[i])
			}
		}
	}
	if !sawCancel {
		t.Error("no countdown point observed a cancellation; widen the sweep")
	}
}

// TestRRAParallelCancelledPromptly cancels before the search starts: every
// worker must exit within its polling bound and the error must wrap the
// context's error.
func TestRRAParallelCancelledPromptly(t *testing.T) {
	_, st, _ := ecgRules(t)
	ds, _ := datasets.Generate("ecg0606")
	rs := ruleSetFor(t, ds.Series, ds.Params)

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RRAParallelStatsCodedCtx(ctx, st, rs, 3, 1, 4, ds.Params)
	if err == nil {
		t.Fatal("cancelled search returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if !res.Partial {
		t.Error("cancelled result not marked Partial")
	}
	if len(res.Discords) != 0 {
		t.Errorf("pre-cancelled search returned %d discords", len(res.Discords))
	}
	waitForGoroutines(t, baseline)
}

// TestSearchesHonorDeadline runs each search family on ecg0606 with an
// already-expired deadline: all must return promptly with a
// DeadlineExceeded-wrapped error rather than running to completion.
func TestSearchesHonorDeadline(t *testing.T) {
	ds, err := datasets.Generate("ecg0606")
	if err != nil {
		t.Fatalf("ecg0606: %v", err)
	}
	st := NewStats(ds.Series)
	rs := ruleSetFor(t, ds.Series, ds.Params)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	if _, err := RRAParallelStatsCodedCtx(ctx, st, rs, 2, 1, 1, ds.Params); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("RRA: err = %v, want DeadlineExceeded", err)
	}
	if _, err := HOTSAXStatsCtx(ctx, st, ds.Params, 2, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("HOTSAX: err = %v, want DeadlineExceeded", err)
	}
	if _, err := BruteForceStatsCtx(ctx, st, ds.Params.Window, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("BruteForce: err = %v, want DeadlineExceeded", err)
	}
	if _, err := NearestNonSelfParallelStatsCtx(ctx, st, rs, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("NearestNonSelf: err = %v, want DeadlineExceeded", err)
	}
}

// TestCtxBackgroundByteIdentical confirms the no-cancellation guarantee:
// with a background context the exported RRA search returns discords
// byte-identical to the serial, uncoded oracle at every worker count.
func TestCtxBackgroundByteIdentical(t *testing.T) {
	ds, err := datasets.Generate("ecg0606")
	if err != nil {
		t.Fatalf("ecg0606: %v", err)
	}
	st := NewStats(ds.Series)
	rs := ruleSetFor(t, ds.Series, ds.Params)

	want, err := rraOf(ds.Series, rs, 3, 1)
	if err != nil {
		t.Fatalf("serial RRA: %v", err)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		got, err := RRAParallelStatsCodedCtx(context.Background(), st, rs, 3, 1, workers, ds.Params)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Discords) != len(want.Discords) {
			t.Fatalf("workers=%d: %d discords, serial %d", workers, len(got.Discords), len(want.Discords))
		}
		for i := range got.Discords {
			if got.Discords[i] != want.Discords[i] {
				t.Fatalf("workers=%d: discord %d = %+v, serial %+v", workers, i, got.Discords[i], want.Discords[i])
			}
		}
	}
}
