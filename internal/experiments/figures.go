package experiments

import (
	"context"
	"fmt"

	"grammarviz/internal/core"
	"grammarviz/internal/datasets"
	"grammarviz/internal/discord"
	"grammarviz/internal/timeseries"
)

// DensityFigure bundles the three panels the paper's density figures show
// (Figures 1, 2, 3, 7): the series, the rule density curve with its minima
// intervals, and the nearest-non-self-match distance of every
// rule-corresponding subsequence, plus the RRA discords for the overlays.
type DensityFigure struct {
	Dataset  *datasets.Dataset
	Pipeline *core.Pipeline
	Minima   []timeseries.Interval // density global minima (edge-trimmed)
	NN       []discord.Discord     // bottom panel: non-self NN distances
	Discords []discord.Discord     // RRA top-k
}

// RunDensityFigure regenerates the density-figure panels for the named
// dataset, reporting the top-k RRA discords.
func RunDensityFigure(name string, k int, seed int64) (*DensityFigure, error) {
	ds, err := datasets.Generate(name)
	if err != nil {
		return nil, err
	}
	return RunDensityFigureOn(ds, k, seed)
}

// RunDensityFigureOn is RunDensityFigure for a pre-generated dataset.
func RunDensityFigureOn(ds *datasets.Dataset, k int, seed int64) (*DensityFigure, error) {
	p, err := core.Analyze(ds.Series, core.Config{Params: ds.Params, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: analyze %s: %w", ds.Name, err)
	}
	res, err := p.Discords(k + 2)
	if err != nil {
		return nil, fmt.Errorf("experiments: rra %s: %w", ds.Name, err)
	}
	return &DensityFigure{
		Dataset:  ds,
		Pipeline: p,
		Minima:   p.GlobalMinima(),
		NN:       p.NearestNonSelf(),
		Discords: dropBoundary(res.Discords, len(ds.Series), k),
	}, nil
}

// dropBoundary removes discords that touch the very first or last point of
// the series and truncates to k. A subsequence at the series boundary
// starts at an arbitrary phase that, by construction, no rule-derived
// candidate start can align with, so its nearest-non-self-match distance
// is inflated for reasons unrelated to anomalousness. The experiment
// harness filters these explicitly (and only here — the core algorithm
// stays faithful to the paper's Algorithm 1).
func dropBoundary(in []discord.Discord, n, k int) []discord.Discord {
	out := make([]discord.Discord, 0, k)
	for _, d := range in {
		if d.Interval.Start == 0 || d.Interval.End == n-1 {
			continue
		}
		out = append(out, d)
		if len(out) == k {
			break
		}
	}
	if len(out) == 0 {
		return in // all boundary: keep rather than return nothing
	}
	return out
}

// RankedPair is one rank slot of the Figure 5 comparison.
type RankedPair struct {
	Rank   int
	Hotsax discord.Discord
	RRA    discord.Discord
}

// RankingComparison is the Figure 5 experiment: the top-k discords of
// HOTSAX and RRA on the long ECG record, aligned by rank. The paper's
// observation: the sets agree but the order differs, because RRA's
// length-normalized distance (Eq. 1) can promote a shorter discord.
type RankingComparison struct {
	Pairs []RankedPair
	// SameSet reports whether every HOTSAX discord overlaps some RRA
	// discord (the content agrees even if the order does not).
	SameSet bool
	// SameOrder reports whether rank i of both algorithms overlaps for
	// all i.
	SameOrder bool
}

// RunRanking regenerates Figure 5: top-k discords from both algorithms on
// the named dataset.
func RunRanking(name string, k int, seed int64) (*RankingComparison, error) {
	ds, err := datasets.Generate(name)
	if err != nil {
		return nil, err
	}
	hs, err := discord.HOTSAXStatsCtx(context.Background(), discord.NewStats(ds.Series), ds.Params, k, seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: hotsax: %w", err)
	}
	p, err := core.Analyze(ds.Series, core.Config{Params: ds.Params, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: analyze: %w", err)
	}
	rraRes, err := p.Discords(k + 2)
	if err != nil {
		return nil, fmt.Errorf("experiments: rra: %w", err)
	}
	rra := struct{ Discords []discord.Discord }{dropBoundary(rraRes.Discords, len(ds.Series), k)}

	cmp := &RankingComparison{SameSet: true, SameOrder: true}
	n := len(hs.Discords)
	if len(rra.Discords) < n {
		n = len(rra.Discords)
	}
	for i := 0; i < n; i++ {
		cmp.Pairs = append(cmp.Pairs, RankedPair{Rank: i + 1, Hotsax: hs.Discords[i], RRA: rra.Discords[i]})
		if !hs.Discords[i].Interval.Overlaps(rra.Discords[i].Interval) {
			cmp.SameOrder = false
		}
		matched := false
		for _, r := range rra.Discords {
			if hs.Discords[i].Interval.Overlaps(r.Interval) {
				matched = true
				break
			}
		}
		if !matched {
			cmp.SameSet = false
		}
	}
	return cmp, nil
}

// TrajectoryFigure is the Figure 7–9 experiment on the commute data.
type TrajectoryFigure struct {
	Data               *datasets.TrajectoryData
	Figure             *DensityFigure
	DetourHitByDensity bool // Figure 7: the density minimum finds the detour
	FixLossHitByRRA    bool // Figure 7: the best RRA discord is the fix-loss segment
}

// RunTrajectory regenerates the trajectory case study.
func RunTrajectory(seed int64) (*TrajectoryFigure, error) {
	td, err := datasets.Trajectory(datasets.TrajectoryOptions{
		Days: 8, PointsPerLeg: 130, GPSNoise: 0.05, HilbertOrder: 8, Seed: 101,
	})
	if err != nil {
		return nil, err
	}
	td.Dataset.Params = paperTrajectoryParams
	fig, err := RunDensityFigureOn(&td.Dataset, 3, seed)
	if err != nil {
		return nil, err
	}
	out := &TrajectoryFigure{Data: td, Figure: fig}
	detour, fixLoss := td.Truth[0], td.Truth[1]
	slack := td.Params.Window
	for _, m := range fig.Minima {
		if m.Overlaps(widen(detour, slack)) {
			out.DetourHitByDensity = true
		}
	}
	if len(fig.Discords) > 0 && fig.Discords[0].Interval.Overlaps(widen(fixLoss, slack)) {
		out.FixLossHitByRRA = true
	}
	return out, nil
}

func widen(iv timeseries.Interval, slack int) timeseries.Interval {
	return timeseries.Interval{Start: iv.Start - slack, End: iv.End + slack}
}
