package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"grammarviz/internal/core"
	"grammarviz/internal/datasets"
	"grammarviz/internal/discord"
	"grammarviz/internal/sax"
	"grammarviz/internal/viztree"
	"grammarviz/internal/wcad"
)

// BaselineResult is one detector's outcome in the five-way comparison.
type BaselineResult struct {
	Detector string
	Hit      bool          // best report overlaps the planted ground truth (± one window)
	Elapsed  time.Duration // wall time of the detection
	Detail   string        // detector-specific note (calls, counts, scores)
}

// RunBaselines runs all five detectors implemented in this repository —
// the paper's two (rule density, RRA), its main comparator (HOTSAX), and
// the two related-work baselines (VizTree, WCAD) — on the named synthetic
// dataset, reporting whether each one's best answer hits the planted
// anomaly. This extends the paper's Table 1 with the Section 6
// alternatives it discusses but does not measure.
func RunBaselines(name string, seed int64) ([]BaselineResult, error) {
	ds, err := datasets.Generate(name)
	if err != nil {
		return nil, err
	}
	slack := ds.Params.Window
	var out []BaselineResult

	// Rule density.
	start := time.Now()
	pipe, err := core.Analyze(ds.Series, core.Config{Params: ds.Params, Seed: seed})
	if err != nil {
		return nil, err
	}
	minima := pipe.GlobalMinima()
	res := BaselineResult{Detector: "rule-density", Elapsed: time.Since(start)}
	for _, m := range minima {
		if ds.TruthHit(m, slack) {
			res.Hit = true
			break
		}
	}
	res.Detail = fmt.Sprintf("%d minima intervals, 0 distance calls", len(minima))
	out = append(out, res)

	// RRA.
	start = time.Now()
	rra, err := pipe.Discords(3)
	if err != nil {
		return nil, err
	}
	best := dropBoundary(rra.Discords, len(ds.Series), 1)
	res = BaselineResult{Detector: "rra", Elapsed: time.Since(start)}
	res.Hit = ds.TruthHit(best[0].Interval, slack)
	res.Detail = fmt.Sprintf("%d distance calls", rra.DistCalls)
	out = append(out, res)

	// HOTSAX.
	start = time.Now()
	hs, err := discord.HOTSAXStatsCtx(context.Background(), discord.NewStats(ds.Series), ds.Params, 1, seed)
	if err != nil {
		return nil, err
	}
	res = BaselineResult{Detector: "hotsax", Elapsed: time.Since(start)}
	res.Hit = ds.TruthHit(hs.Discords[0].Interval, slack)
	res.Detail = fmt.Sprintf("%d distance calls", hs.DistCalls)
	out = append(out, res)

	// VizTree.
	start = time.Now()
	tr, err := viztree.Build(ds.Series, ds.Params)
	if err != nil {
		return nil, err
	}
	vz := tr.Anomalies(1)
	res = BaselineResult{Detector: "viztree", Elapsed: time.Since(start)}
	if len(vz) > 0 {
		res.Hit = ds.TruthHit(vz[0].Interval, slack)
		res.Detail = fmt.Sprintf("rarest word %q seen %dx", vz[0].Word, vz[0].Count)
	}
	out = append(out, res)

	// WCAD.
	start = time.Now()
	p := ds.Params
	if p.PAA < 8 {
		p = sax.Params{Window: p.Window, PAA: 8, Alphabet: p.Alphabet}
	}
	wc, err := wcad.Detect(ds.Series, p)
	res = BaselineResult{Detector: "wcad", Elapsed: time.Since(start)}
	if err != nil {
		res.Detail = "inapplicable: " + err.Error()
	} else {
		res.Hit = ds.TruthHit(wc[0].Interval, slack)
		res.Detail = fmt.Sprintf("top CDM %.3f over %d chunks", wc[0].CDM, len(wc))
	}
	out = append(out, res)
	return out, nil
}

// FormatBaselines renders the comparison as a table.
func FormatBaselines(name string, rs []BaselineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "detector comparison on %s:\n", name)
	for _, r := range rs {
		hit := "miss"
		if r.Hit {
			hit = "HIT"
		}
		fmt.Fprintf(&b, "  %-13s %-4s %10s  %s\n", r.Detector, hit, r.Elapsed.Round(time.Millisecond), r.Detail)
	}
	return b.String()
}
