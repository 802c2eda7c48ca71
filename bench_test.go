package grammarviz

// This file regenerates the paper's evaluation as Go benchmarks: one
// benchmark per Table 1 row, one per figure, component benchmarks for the
// pipeline stages, and ablations of the design choices DESIGN.md calls
// out. Distance-call counts — the paper's efficiency metric — are emitted
// via b.ReportMetric as "hotsax_calls/op", "rra_calls/op" etc., so
// `go test -bench .` prints the Table 1 quantities next to ns/op.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"fmt"

	"grammarviz/internal/autoparam"
	"grammarviz/internal/core"
	"grammarviz/internal/datasets"
	"grammarviz/internal/density"
	"grammarviz/internal/discord"
	"grammarviz/internal/ensemble"
	"grammarviz/internal/experiments"
	"grammarviz/internal/grammar"
	"grammarviz/internal/hilbert"
	"grammarviz/internal/sax"
	"grammarviz/internal/sequitur"
	"grammarviz/internal/viztree"
	"grammarviz/internal/wcad"
)

// dsCache generates each synthetic dataset once per test binary.
var dsCache sync.Map

func dataset(b *testing.B, name string) *datasets.Dataset {
	b.Helper()
	if v, ok := dsCache.Load(name); ok {
		return v.(*datasets.Dataset)
	}
	ds, err := datasets.Generate(name)
	if err != nil {
		b.Fatalf("generate %s: %v", name, err)
	}
	dsCache.Store(name, ds)
	return ds
}

// benchTable1Row measures one Table 1 row: the distance-call counts of
// both search algorithms (brute force is analytic, as in the paper).
func benchTable1Row(b *testing.B, name string) {
	ds := dataset(b, name)
	var row experiments.Table1Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		row, err = experiments.RunRowOn(ds, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.BruteCalls), "brute_calls/op")
	b.ReportMetric(float64(row.HotsaxCalls), "hotsax_calls/op")
	b.ReportMetric(float64(row.RRACalls), "rra_calls/op")
	b.ReportMetric(row.ReductionPct, "reduction_%")
	b.ReportMetric(row.OverlapPct, "overlap_%")
}

func BenchmarkTable1_DailyCommute(b *testing.B)      { benchTable1Row(b, "daily-commute") }
func BenchmarkTable1_DutchPowerDemand(b *testing.B)  { benchTable1Row(b, "dutch-power-demand") }
func BenchmarkTable1_ECG0606(b *testing.B)           { benchTable1Row(b, "ecg0606") }
func BenchmarkTable1_ECG308(b *testing.B)            { benchTable1Row(b, "ecg308") }
func BenchmarkTable1_ECG15(b *testing.B)             { benchTable1Row(b, "ecg15") }
func BenchmarkTable1_ECG108(b *testing.B)            { benchTable1Row(b, "ecg108") }
func BenchmarkTable1_ECG300(b *testing.B)            { benchTable1Row(b, "ecg300") }
func BenchmarkTable1_ECG318(b *testing.B)            { benchTable1Row(b, "ecg318") }
func BenchmarkTable1_RespirationNPRS43(b *testing.B) { benchTable1Row(b, "respiration-nprs43") }
func BenchmarkTable1_RespirationNPRS44(b *testing.B) { benchTable1Row(b, "respiration-nprs44") }
func BenchmarkTable1_VideoGun(b *testing.B)          { benchTable1Row(b, "video-gun") }
func BenchmarkTable1_TEK14(b *testing.B)             { benchTable1Row(b, "tek14") }
func BenchmarkTable1_TEK16(b *testing.B)             { benchTable1Row(b, "tek16") }
func BenchmarkTable1_TEK17(b *testing.B)             { benchTable1Row(b, "tek17") }

// ---- Figures ----

// BenchmarkFigure1_RuleDensityVideo builds the rule density curve of the
// video dataset — the linear-time detector highlighted in Figure 1.
func BenchmarkFigure1_RuleDensityVideo(b *testing.B) {
	ds := dataset(b, "video-gun")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := core.Analyze(ds.Series, core.Config{Params: ds.Params, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(density.GlobalMinimaMargin(p.Density, ds.Params.Window-1)) == 0 {
			b.Fatal("no minima")
		}
	}
}

// benchDensityFigure runs the full three-panel figure pipeline (analysis,
// density minima, RRA discords, nearest-non-self distances).
func benchDensityFigure(b *testing.B, name string) {
	ds := dataset(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunDensityFigureOn(ds, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Discords) == 0 {
			b.Fatal("no discords")
		}
	}
}

func BenchmarkFigure2_ECG0606(b *testing.B)     { benchDensityFigure(b, "ecg0606") }
func BenchmarkFigure3_PowerDemand(b *testing.B) { benchDensityFigure(b, "dutch-power-demand") }

// BenchmarkFigure5_RankingECG300 compares HOTSAX and RRA top-3 rankings on
// the long ECG record.
func BenchmarkFigure5_RankingECG300(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.RunRanking("ecg300", 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		if !cmp.SameSet {
			b.Log("ranking sets diverged (paper observed order differences only)")
		}
	}
}

// BenchmarkFigure6_HilbertTransform measures the trajectory linearization
// of Figure 6 on an order-8 curve.
func BenchmarkFigure6_HilbertTransform(b *testing.B) {
	c, err := hilbert.New(8)
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]hilbert.Point, 16384)
	for i := range pts {
		pts[i] = hilbert.Point{X: float64(i % 251), Y: float64((i * 7) % 241)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hilbert.Transform(c, pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7_Trajectory runs the full commute case study.
func BenchmarkFigure7_Trajectory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunTrajectory(1)
		if err != nil {
			b.Fatal(err)
		}
		if !fig.DetourHitByDensity {
			b.Fatal("detour not found by density minima")
		}
	}
}

// BenchmarkFigure10_ParameterSweep evaluates a reduced grid of
// discretization parameters, reporting both detectors' success counts.
func BenchmarkFigure10_ParameterSweep(b *testing.B) {
	grid := experiments.SweepGrid{
		Windows:   []int{40, 120, 300},
		PAAs:      []int{3, 9, 16},
		Alphabets: []int{3, 7},
	}
	var res *experiments.SweepResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunSweep("ecg0606", grid, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.DensityHits), "density_hits")
	b.ReportMetric(float64(res.RRAHits), "rra_hits")
}

// ---- Pipeline component benchmarks ----

// BenchmarkComponent_SAXDiscretize compares the retained naive discretizer
// (Reference: O(window) per window) against the incremental prefix-sum
// encoder (O(paa) per window) and its parallel variant, on both the short
// and the long ECG record. All three produce byte-identical output — see
// internal/sax/equivalence_test.go.
func BenchmarkComponent_SAXDiscretize(b *testing.B) {
	for _, name := range []string{"ecg0606", "ecg15"} {
		ds := dataset(b, name)
		b.Run(name+"/Reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sax.DiscretizeReference(ds.Series, ds.Params, sax.ReductionExact); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/Incremental", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sax.Discretize(ds.Series, ds.Params, sax.ReductionExact); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/Parallel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sax.DiscretizeWorkers(ds.Series, ds.Params, sax.ReductionExact, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComponent_SequiturInduce measures first-touch grammar induction
// — the dominant uncached cost of an analysis now that discretization is
// incremental and repeat queries are cache hits. The Strings sub-benchmark
// is the retained reference path (string tokens); Codes is the
// integer-coded arena-backed hot path. Both induce byte-identical
// grammars (internal/sequitur equivalence tests).
func BenchmarkComponent_SequiturInduce(b *testing.B) {
	for _, name := range []string{"ecg0606", "ecg15"} {
		ds := dataset(b, name)
		d, err := sax.Discretize(ds.Series, ds.Params, sax.ReductionExact)
		if err != nil {
			b.Fatal(err)
		}
		words := d.Strings()
		b.Run(name+"/Strings", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := sequitur.Induce(words)
				if g.NumRules() == 0 {
					b.Fatal("no rules")
				}
			}
		})
		if !d.Coded {
			b.Fatalf("%s: words do not fit a packed code", name)
		}
		codec := sax.NewWordCodec(ds.Params.PAA, ds.Params.Alphabet)
		render := codec.Decode
		codes := make([]uint64, len(d.Words))
		for i := range d.Words {
			codes[i] = d.Words[i].Code
		}
		b.Run(name+"/Codes", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := sequitur.InduceCodes(codes, render)
				if g.NumRules() == 0 {
					b.Fatal("no rules")
				}
			}
		})
		// The serving path: a pooled inducer reused across analyses
		// (workspace.Get -> ResetCodes -> AppendCode* -> Grammar).
		b.Run(name+"/CodesPooled", func(b *testing.B) {
			in := sequitur.NewCodeInducer(render)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in.ResetCodes(render)
				for _, c := range codes {
					in.AppendCode(c)
				}
				if g := in.Grammar(); g.NumRules() == 0 {
					b.Fatal("no rules")
				}
			}
		})
	}
}

// BenchmarkComponent_GrammarBuild measures mapping an induced grammar's
// rule occurrences back onto series intervals.
func BenchmarkComponent_GrammarBuild(b *testing.B) {
	for _, name := range []string{"ecg0606", "ecg15"} {
		ds := dataset(b, name)
		d, err := sax.Discretize(ds.Series, ds.Params, sax.ReductionExact)
		if err != nil {
			b.Fatal(err)
		}
		g := sequitur.Induce(d.Strings())
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, err := grammar.Build(d, g)
				if err != nil {
					b.Fatal(err)
				}
				if rs.NumRules() == 0 {
					b.Fatal("no rules")
				}
			}
		})
	}
}

func BenchmarkComponent_DensityCurve(b *testing.B) {
	ds := dataset(b, "ecg15")
	p, err := core.Analyze(ds.Series, core.Config{Params: ds.Params, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve := density.Curve(p.Rules)
		if len(curve) != len(ds.Series) {
			b.Fatal("bad curve")
		}
	}
}

// BenchmarkComponent_RRA runs the production discord search (coded
// MINDIST pre-filter on) serially and fanned over 2 and 4 workers sharing
// one Stats. The discords are byte-identical at
// every worker count (internal/discord/equivalence_test.go); scaling is
// only visible on multi-core hosts.
func BenchmarkComponent_RRA(b *testing.B) {
	ds := dataset(b, "ecg15")
	p, err := core.Analyze(ds.Series, core.Config{Params: ds.Params, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	st := p.Stats()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := discord.RRAParallelStatsCodedCtx(context.Background(), st, p.Rules, 1, 1, workers, ds.Params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkComponent_HOTSAX(b *testing.B) {
	ds := dataset(b, "ecg0606")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := discord.HOTSAXStatsCtx(context.Background(), discord.NewStats(ds.Series), ds.Params, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComponent_EnsembleDensity measures the parameter-free ensemble
// detector at two fleet sizes: the per-member cost is one pooled, coded
// induction, so time should scale close to linearly in members (modulo
// the worker fan-out) and the warm path should reuse pooled workspaces
// rather than allocating induction scratch per member (see the
// AllocsPerRun regression test in internal/ensemble).
func BenchmarkComponent_EnsembleDensity(b *testing.B) {
	ds := dataset(b, "ecg0606")
	for _, members := range []int{8, 32} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			b.ReportAllocs()
			var used int
			for i := 0; i < b.N; i++ {
				res, err := ensemble.Induce(context.Background(), ds.Series, ensemble.Config{Members: members, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				used = res.Used
			}
			b.ReportMetric(float64(used), "members_used")
		})
	}
}

func BenchmarkComponent_BruteForce(b *testing.B) {
	ds := dataset(b, "ecg0606")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := discord.BruteForceStatsCtx(context.Background(), discord.NewStats(ds.Series), ds.Params.Window, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComponent_MINDIST compares the string-path MINDIST (decode +
// per-letter table walk) against the packed-code lookup-table evaluator
// (sax.CodeDist.MINDISTCode). Both return bit-identical distances
// (internal/sax/codedist_test.go); the coded form is the discord search's
// hot comparison.
func BenchmarkComponent_MINDIST(b *testing.B) {
	const paa, alphabet, n = 8, 6, 300
	codec := sax.NewWordCodec(paa, alphabet)
	dt, err := sax.NewDistTable(alphabet)
	if err != nil {
		b.Fatal(err)
	}
	cd, err := sax.NewCodeDist(dt, codec)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const pairs = 1024
	wordsA := make([]string, pairs)
	wordsB := make([]string, pairs)
	codesA := make([]uint64, pairs)
	codesB := make([]uint64, pairs)
	for i := range wordsA {
		wa := make([]byte, paa)
		wb := make([]byte, paa)
		for j := 0; j < paa; j++ {
			wa[j] = byte('a' + rng.Intn(alphabet))
			wb[j] = byte('a' + rng.Intn(alphabet))
		}
		wordsA[i], wordsB[i] = string(wa), string(wb)
		codesA[i], codesB[i] = codec.PackString(wordsA[i]), codec.PackString(wordsB[i])
	}

	var sink float64
	b.Run("String", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := dt.MINDIST(wordsA[i%pairs], wordsB[i%pairs], n)
			if err != nil {
				b.Fatal(err)
			}
			sink += d
		}
	})
	b.Run("Code", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += cd.MINDISTCode(codesA[i%pairs], codesB[i%pairs], n)
		}
	})
	_ = sink
}

func BenchmarkComponent_StreamingAppend(b *testing.B) {
	ds := dataset(b, "ecg15")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewStream(Options{Window: 300, PAA: 4, Alphabet: 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range ds.Series {
			s.Append(v)
		}
	}
	b.ReportMetric(float64(len(ds.Series)), "points/op")
}

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblation_Reduction compares the pipeline with the paper's EXACT
// numerosity reduction against no reduction: grammar size, RRA distance
// calls and wall time all degrade without it.
func BenchmarkAblation_Reduction(b *testing.B) {
	ds := dataset(b, "ecg0606")
	for _, tt := range []struct {
		name string
		red  sax.Reduction
	}{
		{"Exact", sax.ReductionExact},
		{"None", sax.ReductionNone},
		{"MINDIST", sax.ReductionMINDIST},
	} {
		b.Run(tt.name, func(b *testing.B) {
			var calls int64
			var words, size int
			for i := 0; i < b.N; i++ {
				p, err := core.Analyze(ds.Series, core.Config{Params: ds.Params, Reduction: tt.red, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := p.Discords(1)
				if err != nil && !errors.Is(err, discord.ErrNoCandidates) {
					// MINDIST reduction can collapse the word stream so far
					// that no candidate has a non-self match; that is a
					// result of the ablation, not a benchmark failure.
					b.Fatal(err)
				}
				calls = res.DistCalls
				words = len(p.Disc.Words)
				size = p.GrammarSize()
			}
			b.ReportMetric(float64(calls), "rra_calls/op")
			b.ReportMetric(float64(words), "words")
			b.ReportMetric(float64(size), "grammar_size")
		})
	}
}

// BenchmarkAblation_WindowSeed shows that the sliding-window length is
// only a seed: RRA finds the anomaly across a range of windows (the
// Section 5.2 observation), with call counts reported per window.
func BenchmarkAblation_WindowSeed(b *testing.B) {
	ds := dataset(b, "ecg0606")
	for _, w := range []int{60, 120, 240} {
		b.Run(sax.Params{Window: w, PAA: 4, Alphabet: 4}.String(), func(b *testing.B) {
			params := sax.Params{Window: w, PAA: 4, Alphabet: 4}
			var calls int64
			hits := 0
			for i := 0; i < b.N; i++ {
				p, err := core.Analyze(ds.Series, core.Config{Params: params, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := p.Discords(1)
				if err != nil {
					b.Fatal(err)
				}
				calls = res.DistCalls
				if ds.TruthHit(res.Discords[0].Interval, w) {
					hits++
				}
			}
			b.ReportMetric(float64(calls), "rra_calls/op")
			b.ReportMetric(float64(hits)/float64(b.N), "truth_hit_rate")
		})
	}
}

// ---- Related-work baselines (paper §6) ----

func BenchmarkBaseline_VizTree(b *testing.B) {
	ds := dataset(b, "ecg0606")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := viztree.Build(ds.Series, ds.Params)
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Anomalies(1)) == 0 {
			b.Fatal("no anomalies")
		}
	}
}

func BenchmarkBaseline_WCAD(b *testing.B) {
	ds := dataset(b, "ecg0606")
	params := sax.Params{Window: ds.Params.Window, PAA: 8, Alphabet: ds.Params.Alphabet}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wcad.Detect(ds.Series, params); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Extension benchmarks ----

func BenchmarkExtension_MultiscaleDensity(b *testing.B) {
	ds := dataset(b, "ecg0606")
	windows := []int{60, 120, 240}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MultiscaleDensityWorkers(ds.Series, windows, 4, 4, sax.ReductionExact, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExtension_SurpriseScore(b *testing.B) {
	ds := dataset(b, "ecg15")
	p, err := core.Analyze(ds.Series, core.Config{Params: ds.Params, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := density.Surprise(p.Density)
		if len(s) != len(ds.Series) {
			b.Fatal("bad score length")
		}
	}
}

func BenchmarkExtension_NearestNonSelfParallel(b *testing.B) {
	ds := dataset(b, "ecg0606")
	p, err := core.Analyze(ds.Series, core.Config{Params: ds.Params, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	st := p.Stats()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			// Allocations must not scale with workers x series length: the
			// workers share one Stats and allocate only per-worker counters.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nn, err := discord.NearestNonSelfParallelStatsCtx(context.Background(), st, p.Rules, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(nn) == 0 {
					b.Fatal("no NN results")
				}
			}
		})
	}
}

func BenchmarkExtension_RulePruning(b *testing.B) {
	ds := dataset(b, "ecg15")
	p, err := core.Analyze(ds.Series, core.Config{Params: ds.Params, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var kept int
	for i := 0; i < b.N; i++ {
		kept = grammar.Prune(p.Rules, 1).NumRules()
	}
	b.ReportMetric(float64(kept), "rules_kept")
	b.ReportMetric(float64(p.Rules.NumRules()), "rules_total")
}

func BenchmarkExtension_AutoParams(b *testing.B) {
	ds := dataset(b, "ecg0606")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := autoparam.Suggest(ds.Series); err != nil {
			b.Fatal(err)
		}
	}
}
