package discord

import (
	"context"
	"math"
	"testing"

	"grammarviz/internal/datasets"
	"grammarviz/internal/sax"
)

// The kernel benchmarks measure exactly the shape the searches execute:
// one candidate against every non-overlapping subsequence, with a
// best-so-far cutoff tightening as the scan proceeds (so early
// abandonment fires at its realistic rate, not never and not always).
// One op = one full one-vs-many scan.
//
// BENCH_5.json records these on the paper's two headline series; the
// Reference row is the pre-blocking per-element kernel kept as the
// exactness oracle, so Reference/Pinned is the surviving-kernel speedup
// quoted in README.md.

func benchSeries(b *testing.B, name string) ([]float64, int) {
	b.Helper()
	ds, err := datasets.Generate(name)
	if err != nil {
		b.Fatalf("generate %s: %v", name, err)
	}
	return ds.Series, ds.Params.Window
}

func benchScanReference(b *testing.B, name string) {
	ts, w := benchSeries(b, name)
	st := NewStats(ts)
	e := st.view()
	e.refKernel = true
	p := (len(ts) - w) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn := math.Inf(1)
		for q := 0; q+w <= len(ts); q++ {
			if q > p-w && q < p+w {
				continue
			}
			if d := e.dist(p, q, w, nn); d < nn {
				nn = d
			}
		}
	}
}

func benchScanBlocked(b *testing.B, name string) {
	ts, w := benchSeries(b, name)
	st := NewStats(ts)
	e := st.view()
	p := (len(ts) - w) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn := math.Inf(1)
		for q := 0; q+w <= len(ts); q++ {
			if q > p-w && q < p+w {
				continue
			}
			if d := e.dist(p, q, w, nn); d < nn {
				nn = d
			}
		}
	}
}

func benchScanPinned(b *testing.B, name string) {
	ts, w := benchSeries(b, name)
	st := NewStats(ts)
	e := st.view()
	p := (len(ts) - w) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.pin(p, w)
		nn := math.Inf(1)
		for q := 0; q+w <= len(ts); q++ {
			if q > p-w && q < p+w {
				continue
			}
			if d := e.pinnedDist(q, nn); d < nn {
				nn = d
			}
		}
	}
}

func BenchmarkComponent_DistKernelReference(b *testing.B) {
	b.Run("ecg0606", func(b *testing.B) { benchScanReference(b, "ecg0606") })
	b.Run("tek16", func(b *testing.B) { benchScanReference(b, "tek16") })
}

func BenchmarkComponent_DistKernelBlocked(b *testing.B) {
	b.Run("ecg0606", func(b *testing.B) { benchScanBlocked(b, "ecg0606") })
	b.Run("tek16", func(b *testing.B) { benchScanBlocked(b, "tek16") })
}

func BenchmarkComponent_DistKernelPinned(b *testing.B) {
	b.Run("ecg0606", func(b *testing.B) { benchScanPinned(b, "ecg0606") })
	b.Run("tek16", func(b *testing.B) { benchScanPinned(b, "tek16") })
}

// The Search benchmarks are the end-to-end counterpart: a full HOTSAX or
// RRA discord search (one op = one search, k=1), once on the retained
// reference kernel and once on the production pinned path. The ratio is
// the whole-search speedup the scans above translate into, with the SAX
// indexing, candidate ordering and pruning overheads included.

func benchDataset(b *testing.B, name string) *datasets.Dataset {
	b.Helper()
	ds, err := datasets.Generate(name)
	if err != nil {
		b.Fatalf("generate %s: %v", name, err)
	}
	return ds
}

func benchSearchHOTSAX(b *testing.B, name string, tuning Tuning) {
	ds := benchDataset(b, name)
	st := NewStats(ds.Series)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hotsaxSearch(ctx, st, ds.Params, 1, 1, tuning); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSearchRRA(b *testing.B, name string, tuning Tuning) {
	ds := benchDataset(b, name)
	rs := ruleSetReduced(b, ds.Series, ds.Params, sax.ReductionExact)
	st := NewStats(ds.Series)
	cands := Candidates(rs)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rraParallel(ctx, st, cands, 1, 1, 1, tuning, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComponent_SearchHOTSAX(b *testing.B) {
	for _, name := range []string{"ecg0606", "tek16"} {
		b.Run(name+"/Reference", func(b *testing.B) {
			benchSearchHOTSAX(b, name, Tuning{ReferenceKernel: true})
		})
		b.Run(name+"/Pinned", func(b *testing.B) {
			benchSearchHOTSAX(b, name, Tuning{})
		})
	}
}

func BenchmarkComponent_SearchRRA(b *testing.B) {
	for _, name := range []string{"ecg0606", "tek16"} {
		b.Run(name+"/Reference", func(b *testing.B) {
			benchSearchRRA(b, name, Tuning{ReferenceKernel: true})
		})
		b.Run(name+"/Pinned", func(b *testing.B) {
			benchSearchRRA(b, name, Tuning{})
		})
	}
}
