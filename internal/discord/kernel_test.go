package discord

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"grammarviz/internal/datasets"
	"grammarviz/internal/grammar"
	"grammarviz/internal/sax"
	"grammarviz/internal/sequitur"
	"grammarviz/internal/workspace"
)

// The kernel rework's contract, made executable: the blocked kernel
// (dist), the query-pinned kernel (pin + pinnedDist) and the retained
// per-element reference (distReference) are one function computed three
// ways. Same bits out for every input — including the abandonment → +Inf
// cases — and the same call accounting, so every search result, distance
// and Table 1 number is untouched by the fast paths.

// bitsEqual compares float64s by representation: NaN == NaN, +Inf == +Inf,
// and -0 != +0 — stricter than ==.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestKernelVariantsBitIdentical drives the three kernels over random
// subsequence pairs with adversarial cutoffs (below, at, and above the
// exact distance; ±Inf; negative; zero) and requires bit-equality of the
// results.
func TestKernelVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	series := [][]float64{
		make([]float64, 600), // sine + noise
		make([]float64, 600), // heavy noise
		make([]float64, 600), // flat stretches (invStd 0 windows)
	}
	for i := range series[0] {
		series[0][i] = math.Sin(float64(i)/11) + rng.NormFloat64()*0.05
		series[1][i] = rng.NormFloat64() * 40
		if (i/50)%2 == 0 {
			series[2][i] = 3.25
		} else {
			series[2][i] = math.Cos(float64(i) / 5)
		}
	}
	for si, ts := range series {
		ref := NewStats(ts).view()
		ref.refKernel = true
		blocked := NewStats(ts).view()
		pinned := NewStats(ts).view()
		for trial := 0; trial < 3000; trial++ {
			length := rng.Intn(120) + 1
			p := rng.Intn(len(ts) - length)
			q := rng.Intn(len(ts) - length)
			exact := ref.distReference(p, q, length, math.Inf(1))
			cutoff := math.Inf(1)
			switch trial % 6 {
			case 0: // below the exact distance → abandonment on both sides
				cutoff = exact * 0.9
			case 1: // above → accepted on both sides
				cutoff = exact*1.1 + 1e-6
			case 2: // exactly at the boundary
				cutoff = exact
			case 3: // disabled
				cutoff = math.Inf(1)
			case 4: // nonsense negative cutoff — squared identically everywhere
				cutoff = -1
			case 5:
				cutoff = 0
			}
			want := ref.dist(p, q, length, cutoff)
			got := blocked.dist(p, q, length, cutoff)
			if !bitsEqual(want, got) {
				t.Fatalf("series %d: blocked dist(%d,%d,%d,cut=%v) = %v, reference %v",
					si, p, q, length, cutoff, got, want)
			}
			pinned.pin(p, length)
			gotPinned := pinned.pinnedDist(q, cutoff)
			if !bitsEqual(want, gotPinned) {
				t.Fatalf("series %d: pinned dist(%d,%d,%d,cut=%v) = %v, reference %v",
					si, p, q, length, cutoff, gotPinned, want)
			}
		}
		if ref.Calls() != blocked.Calls() || ref.Calls() != pinned.Calls() {
			t.Fatalf("series %d: call accounting diverged: ref=%d blocked=%d pinned=%d",
				si, ref.Calls(), blocked.Calls(), pinned.Calls())
		}
	}
}

// TestPinnedCutoffMemo exercises the memoized squared cutoff: one pin,
// many pinnedDist calls with rising, falling and repeated cutoffs must
// each match a fresh reference computation.
func TestPinnedCutoffMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ts := make([]float64, 400)
	for i := range ts {
		ts[i] = math.Sin(float64(i)/7) + rng.NormFloat64()*0.2
	}
	st := NewStats(ts)
	ref := st.view()
	ref.refKernel = true
	pinned := st.view()
	const length = 64
	p := 17
	pinned.pin(p, length)
	cutoffs := []float64{math.Inf(1), 5, 5, 2, 9, 2, 0, 5, math.Inf(1), 3}
	for qi, cutoff := range cutoffs {
		q := (qi*31 + 120) % (len(ts) - length)
		want := ref.dist(p, q, length, cutoff)
		got := pinned.pinnedDist(q, cutoff)
		if !bitsEqual(want, got) {
			t.Fatalf("cutoff %v (call %d): pinned %v, reference %v", cutoff, qi, got, want)
		}
	}
}

// truncated clips a registry dataset so the exhaustive reference searches
// of the equivalence sweep stay fast; the kernels see the same windows and
// parameters either way.
func truncated(ds *datasets.Dataset, n int) []float64 {
	if len(ds.Series) <= n {
		return ds.Series
	}
	return ds.Series[:n]
}

func ruleSetReduced(t testing.TB, ts []float64, p sax.Params, red sax.Reduction) *grammar.RuleSet {
	t.Helper()
	d, err := sax.Discretize(ts, p, red)
	if err != nil {
		t.Fatalf("Discretize: %v", err)
	}
	rs, err := grammar.Build(d, sequitur.Induce(d.Strings()))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return rs
}

func assertKernelEquivalent(t *testing.T, tag string, want, got Result) {
	t.Helper()
	if len(got.Discords) != len(want.Discords) {
		t.Fatalf("%s: %d discords, reference %d", tag, len(got.Discords), len(want.Discords))
	}
	for i := range want.Discords {
		if got.Discords[i] != want.Discords[i] || !bitsEqual(got.Discords[i].Dist, want.Discords[i].Dist) {
			t.Fatalf("%s: discord[%d] = %+v, reference %+v", tag, i, got.Discords[i], want.Discords[i])
		}
	}
	if got.DistCalls != want.DistCalls {
		t.Fatalf("%s: DistCalls = %d, reference %d", tag, got.DistCalls, want.DistCalls)
	}
}

// TestSearchKernelEquivalenceRegistry is the acceptance property: on every
// registry dataset, for HOTSAX and for RRA under all three numerosity
// reductions, the blocked+pinned fast path and the per-element reference
// kernel produce byte-identical discords, distances and call counts.
func TestSearchKernelEquivalenceRegistry(t *testing.T) {
	ctx := context.Background()
	reductions := []sax.Reduction{sax.ReductionExact, sax.ReductionNone, sax.ReductionMINDIST}
	for _, name := range datasets.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			ds, err := datasets.Generate(name)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			ts := truncated(ds, 2500)
			if err := ds.Params.Validate(len(ts)); err != nil {
				t.Skipf("params %+v invalid on truncated series: %v", ds.Params, err)
			}
			st := NewStats(ts)
			seed := int64(1)

			refHS, errRef := hotsaxSearch(ctx, st, ds.Params, 2, seed, Tuning{ReferenceKernel: true})
			fastHS, errFast := HOTSAXStatsCtx(ctx, st, ds.Params, 2, seed)
			if (errRef == nil) != (errFast == nil) {
				t.Fatalf("hotsax: err=%v, reference err=%v", errFast, errRef)
			}
			if errRef == nil {
				assertKernelEquivalent(t, "hotsax", refHS, fastHS)
			}

			for _, red := range reductions {
				rs := ruleSetReduced(t, ts, ds.Params, red)
				refRRA, errRef := rraParallel(ctx, st, Candidates(rs), 2, seed, 1, Tuning{ReferenceKernel: true}, nil)
				fastRRA, errFast := rraParallel(ctx, st, Candidates(rs), 2, seed, 1, Tuning{}, nil)
				if (errRef == nil) != (errFast == nil) {
					t.Fatalf("rra red=%v: err=%v, reference err=%v", red, errFast, errRef)
				}
				if errRef == nil {
					assertKernelEquivalent(t, "rra", refRRA, fastRRA)
				}

				// Parallel search on the fast kernel against the serial
				// reference: discords must match; DistCalls is
				// scheduling-dependent there, so only the serial pair above
				// pins the count.
				parRRA, err := rraParallel(ctx, st, Candidates(rs), 2, seed, 3, Tuning{}, nil)
				if (err == nil) != (errRef == nil) {
					t.Fatalf("rra parallel red=%v: err=%v, reference err=%v", red, err, errRef)
				}
				if errRef == nil && !reflect.DeepEqual(parRRA.Discords, refRRA.Discords) {
					t.Fatalf("rra parallel red=%v: discords differ from reference kernel", red)
				}

				refNN, errRef := nearestNonSelfSearch(ctx, st, rs, 2, Tuning{ReferenceKernel: true})
				fastNN, errFast := NearestNonSelfParallelStatsCtx(ctx, st, rs, 2)
				if (errRef == nil) != (errFast == nil) {
					t.Fatalf("nearest-non-self red=%v: err=%v, reference err=%v", red, errFast, errRef)
				}
				if !reflect.DeepEqual(refNN, fastNN) {
					t.Fatalf("nearest-non-self red=%v: fast path differs from reference kernel", red)
				}
			}
		})
	}
}

// TestBruteForceKernelEquivalence covers the third reduction-independent
// search on a pair of datasets small enough for the O(m²) reference run.
func TestBruteForceKernelEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"ecg0606", "respiration-nprs43"} {
		ds, err := datasets.Generate(name)
		if err != nil {
			t.Fatalf("generate %s: %v", name, err)
		}
		ts := truncated(ds, 1200)
		st := NewStats(ts)
		ref, errRef := bruteForceSearch(ctx, st, ds.Params.Window, 2, Tuning{ReferenceKernel: true})
		fast, errFast := BruteForceStatsCtx(ctx, st, ds.Params.Window, 2)
		if (errRef == nil) != (errFast == nil) {
			t.Fatalf("%s: err=%v, reference err=%v", name, errFast, errRef)
		}
		if errRef == nil {
			assertKernelEquivalent(t, name, ref, fast)
		}
	}
}

// TestPinnedKernelZeroAllocsWarm is the satellite's allocation gate: with
// a pooled scratch attached and the buffer grown once, pin + pinnedDist
// must not allocate — the serving path's searches run thousands of
// candidates per request.
func TestPinnedKernelZeroAllocsWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	ts := make([]float64, 2000)
	for i := range ts {
		ts[i] = math.Sin(float64(i)/13) + rng.NormFloat64()*0.1
	}
	st := NewStats(ts)
	e := st.view()
	kw := workspace.GetKernel()
	defer workspace.PutKernel(kw)
	e.scratch = kw
	const window = 128
	e.pin(0, window) // warm the buffer
	var q int
	allocs := testing.AllocsPerRun(200, func() {
		e.pin(q%(len(ts)-window), window)
		e.pinnedDist((q*37+500)%(len(ts)-window), math.Inf(1))
		e.pinnedDist((q*53+900)%(len(ts)-window), 1.0)
		q++
	})
	if allocs != 0 {
		t.Fatalf("warm pin+pinnedDist allocates %v allocs/run, want 0", allocs)
	}
	blocked := testing.AllocsPerRun(200, func() {
		e.dist(q%(len(ts)-window), (q*37+500)%(len(ts)-window), window, math.Inf(1))
		q++
	})
	if blocked != 0 {
		t.Fatalf("blocked dist allocates %v allocs/run, want 0", blocked)
	}
}

// TestSearchReleasesKernelScratch pins the pool contract end to end: a
// search returns its kernel scratch, so a second search can reuse the
// grown buffer instead of allocating a new one.
func TestSearchReleasesKernelScratch(t *testing.T) {
	ts := anomalousSine(1500, 60, 700, 60, 17)
	st := NewStats(ts)
	p := sax.Params{Window: 60, PAA: 4, Alphabet: 4}
	if _, err := HOTSAXStatsCtx(context.Background(), st, p, 1, 1); err != nil {
		t.Fatal(err)
	}
	// The pool must now hold a kernel with capacity for the window.
	kw := workspace.GetKernel()
	defer workspace.PutKernel(kw)
	if cap(kw.QNorm) < p.Window {
		// Not a hard failure — sync.Pool may drop items under GC pressure —
		// but in a single-goroutine test the checkout should find the
		// released scratch.
		t.Logf("pool returned scratch with cap %d (< window %d); GC may have intervened", cap(kw.QNorm), p.Window)
	}
}
