// Package core wires the paper's pipeline together: sliding-window SAX
// discretization → Sequitur grammar induction → rule-to-interval mapping →
// the two detectors (rule density curve, Section 4.1; RRA discord search,
// Section 4.2). It is the engine behind the library's public API.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"grammarviz/internal/density"
	"grammarviz/internal/discord"
	"grammarviz/internal/grammar"
	"grammarviz/internal/sax"
	"grammarviz/internal/sequitur"
	"grammarviz/internal/timeseries"
	"grammarviz/internal/workspace"
)

// induceStride bounds the cancellation latency of grammar induction: the
// context is polled once per this many appended tokens. Induction is
// amortized O(1) per token, so the latency between polls is bounded.
const induceStride = 1024

// Config selects the discretization parameters and the determinism seed
// for the heuristic orderings.
type Config struct {
	Params    sax.Params
	Reduction sax.Reduction // default ReductionExact (the paper's strategy)
	Seed      int64         // seeds the random tie-breaking in HOTSAX/RRA

	// Workers bounds the goroutines used by the parallel stages
	// (discretization, RRA, nearest-non-self): 0 selects all cores, 1
	// forces serial execution. Results are byte-identical for every value.
	Workers int
}

// Pipeline holds every intermediate product of one analysis run, so the
// detectors, the visualization, and the experiment harness can share work.
type Pipeline struct {
	TS      []float64
	Config  Config
	Disc    *sax.Discretization
	Grammar *sequitur.Grammar
	Rules   *grammar.RuleSet
	Density []int // the rule density curve

	statsOnce sync.Once
	stats     *discord.Stats
}

// Stats returns the shared per-series distance statistics (prefix sums),
// built lazily on first use and then reused by every discord search on this
// pipeline. Safe for concurrent callers.
func (p *Pipeline) Stats() *discord.Stats {
	p.statsOnce.Do(func() { p.stats = discord.NewStats(p.TS) })
	return p.stats
}

// Analyze runs discretization, grammar induction, rule mapping and density
// construction on ts. The returned Pipeline retains ts (not a copy).
func Analyze(ts []float64, cfg Config) (*Pipeline, error) {
	return AnalyzeCtx(context.Background(), ts, cfg)
}

// AnalyzeCtx is Analyze with cooperative cancellation: discretization and
// grammar induction poll ctx at bounded intervals and return a
// ctx.Err()-wrapped error when the context is cancelled or its deadline
// passes. With a never-cancelled context the pipeline is identical to
// Analyze's.
//
// Scratch state (the Sequitur inducer's symbol arena and maps, the density
// curve's difference array) is checked out of the shared workspace pool
// for the duration of the call, so steady-state analyses reuse, rather
// than reallocate, the hot path's working memory.
func AnalyzeCtx(ctx context.Context, ts []float64, cfg Config) (*Pipeline, error) {
	ws := workspace.Get()
	defer workspace.Put(ws)
	return AnalyzeCtxWS(ctx, ts, cfg, ws)
}

// AnalyzeCtxWS is AnalyzeCtx running on an explicit, caller-owned
// workspace instead of the shared pool. The returned Pipeline does not
// alias workspace memory — every retained product (grammar snapshot, rule
// set, density curve) is freshly allocated — so ws may be reused or pooled
// immediately after the call returns, even on error.
func AnalyzeCtxWS(ctx context.Context, ts []float64, cfg Config, ws *workspace.Workspace) (*Pipeline, error) {
	if err := timeseries.ValidateFinite(ts); err != nil {
		return nil, fmt.Errorf("core: %w; call timeseries.Interpolate first", err)
	}
	d, err := sax.DiscretizeCtx(ctx, ts, cfg.Params, cfg.Reduction, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: discretize: %w", err)
	}
	g, err := induceCtx(ctx, d, ws)
	if err != nil {
		return nil, fmt.Errorf("core: induce: %w", err)
	}
	rs, err := grammar.Build(d, g)
	if err != nil {
		return nil, fmt.Errorf("core: map rules: %w", err)
	}
	return &Pipeline{
		TS:      ts,
		Config:  cfg,
		Disc:    d,
		Grammar: g,
		Rules:   rs,
		Density: density.CurveWith(rs, ws.DiffScratch(rs.SeriesLen+1)),
	}, nil
}

// induceCtx runs Sequitur induction over the discretization's words on the
// workspace's pooled inducer, polling ctx every induceStride tokens. When
// the discretization carries packed word codes the integer hot path is
// used — no per-token string is built, hashed, or compared; the codec
// renders strings only when the grammar snapshot is taken. Token ids are
// assigned in first-appearance order on both paths, so the snapshot is
// byte-identical either way.
func induceCtx(ctx context.Context, d *sax.Discretization, ws *workspace.Workspace) (*sequitur.Grammar, error) {
	in := ws.Inducer
	poll := ctx.Done() != nil
	if d.Coded {
		codec := sax.NewWordCodec(d.Params.PAA, d.Params.Alphabet)
		in.ResetCodes(codec.Decode)
		for i := range d.Words {
			if poll && i&(induceStride-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			in.AppendCode(d.Words[i].Code)
		}
	} else {
		in.ResetStrings()
		for i := range d.Words {
			if poll && i&(induceStride-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			in.Append(d.Words[i].Str)
		}
	}
	return in.Grammar(), nil
}

// GlobalMinima returns the intervals where the rule density curve reaches
// its global minimum — the paper's primary approximate anomaly report.
// One window length at each end of the series is excluded: edge points are
// covered by fewer sliding windows, which depresses their density for
// reasons unrelated to anomalousness.
func (p *Pipeline) GlobalMinima() []timeseries.Interval {
	return density.GlobalMinimaMargin(p.Density, p.Config.Params.Window-1)
}

// DensityAnomalies returns the ranked density-based anomaly candidates
// with density below threshold, dropping intervals shorter than minLen
// (0 keeps all).
func (p *Pipeline) DensityAnomalies(threshold, minLen int) []density.Anomaly {
	return density.Detect(p.Density, threshold, minLen)
}

// Discords runs the RRA search for the top-k variable-length discords,
// fanned out over Config.Workers goroutines (0 = all cores). The discords
// are identical for every worker count.
func (p *Pipeline) Discords(k int) (discord.Result, error) {
	return p.DiscordsCtx(context.Background(), k)
}

// DiscordsCtx is Discords with cooperative cancellation: the search polls
// ctx at bounded intervals. On cancellation it returns the discords of the
// fully completed top-k rounds with Partial set, plus a ctx.Err()-wrapped
// error; callers that prefer a usable degraded answer over an error should
// use DiscordsBestEffort.
//
// The search runs with the coded MINDIST pre-filter: candidate word codes
// lower-bound the distance and skip kernel calls that could not change
// the result. Discords are byte-identical to the unfiltered search; only
// DistCalls drops (Result.Pruned counts the skips).
func (p *Pipeline) DiscordsCtx(ctx context.Context, k int) (discord.Result, error) {
	return discord.RRAParallelStatsCodedCtx(ctx, p.Stats(), p.Rules, k, p.Config.Seed, p.Config.Workers, p.Config.Params)
}

// DiscordsBestEffort is the degradation ladder for deadline-bound callers.
// It runs the exact RRA search under ctx and, instead of failing on a
// cancelled or expired context, steps down:
//
//  1. Search completed: the exact result, as from Discords.
//  2. At least one top-k round completed before the deadline: those
//     discords, with Partial set.
//  3. Not even one round completed: the global minima of the already-built
//     rule density curve (the paper's approximate detector, Section 4.1)
//     converted to discords with Partial and Fallback set. Fallback
//     discords carry no distance evidence: Dist and NNStart are -1.
//
// Errors other than the context's own (e.g. a contained worker panic, or
// ErrNoCandidates on a degenerate grammar) are returned unchanged — the
// ladder degrades on deadlines, not on defects.
func (p *Pipeline) DiscordsBestEffort(ctx context.Context, k int) (discord.Result, error) {
	res, err := p.DiscordsCtx(ctx, k)
	if err == nil || ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
		return res, err
	}
	if len(res.Discords) > 0 {
		res.Partial = true
		return res, nil
	}
	res.Discords = nil
	res.Partial = true
	res.Fallback = true
	for i, iv := range p.GlobalMinima() {
		if i >= k {
			break
		}
		res.Discords = append(res.Discords, discord.Discord{
			Interval: iv,
			Dist:     -1,
			NNStart:  -1,
			RuleID:   -1,
		})
	}
	return res, nil
}

// NearestNonSelf returns the true nearest-non-self-match distance of every
// rule-corresponding subsequence (the bottom panels of Figures 2 and 3).
// The scans are independent per candidate, so they run on all CPUs; the
// result is identical to a serial computation. A worker panic is re-raised
// on the caller's goroutine (use NearestNonSelfCtx to receive it as an
// error instead).
func (p *Pipeline) NearestNonSelf() []discord.Discord {
	out, err := p.NearestNonSelfCtx(context.Background())
	if err != nil {
		panic(err) // only a contained worker panic fails a background-context scan
	}
	return out
}

// NearestNonSelfCtx is NearestNonSelf with cooperative cancellation and
// panic containment (see discord.NearestNonSelfParallelStatsCtx).
func (p *Pipeline) NearestNonSelfCtx(ctx context.Context) ([]discord.Discord, error) {
	return discord.NearestNonSelfParallelStatsCtx(ctx, p.Stats(), p.Rules, p.Config.Workers)
}

// GrammarSize returns the total number of right-hand-side symbols across
// all rules — the grammar-size axis of Figure 10.
func (p *Pipeline) GrammarSize() int { return p.Rules.Size() }
