// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) on the synthetic dataset counterparts: Table 1's
// distance-call comparison, the density/NN figure panels (Figures 1-4, 7),
// the HOTSAX-vs-RRA ranking study (Figure 5), and the discretization
// parameter sweep (Figure 10). EXPERIMENTS.md records the paper-reported
// numbers next to the measured ones.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"grammarviz/internal/core"
	"grammarviz/internal/datasets"
	"grammarviz/internal/discord"
	"grammarviz/internal/sax"
)

// Table1Row is one measured row of the Table 1 reproduction.
type Table1Row struct {
	Name   string
	Params sax.Params
	Length int

	BruteCalls  int64 // analytic count (the paper reports these for its largest records too)
	HotsaxCalls int64
	RRACalls    int64

	// ReductionPct is the paper's "Reduction in distance calls": the
	// percentage of HOTSAX's calls that RRA avoids.
	ReductionPct float64

	HotsaxLen int // = window, HOTSAX discords are fixed length
	RRALen    int // length of the best RRA discord

	// OverlapPct is the best overlap between the HOTSAX top discord and
	// any of RRA's top-3 discords, as a percentage of the shorter one —
	// the paper's recall measure ("discords length and overlap").
	OverlapPct float64

	// TruthHitHotsax / TruthHitRRA report whether each algorithm's best
	// discord overlaps the planted ground truth (within one window).
	TruthHitHotsax bool
	TruthHitRRA    bool
}

// RunRow regenerates one Table 1 row on the named synthetic dataset.
func RunRow(name string, seed int64) (Table1Row, error) {
	ds, err := datasets.Generate(name)
	if err != nil {
		return Table1Row{}, err
	}
	return RunRowOn(ds, seed)
}

// RunRowOn regenerates a Table 1 row for an already generated dataset.
func RunRowOn(ds *datasets.Dataset, seed int64) (Table1Row, error) {
	row := Table1Row{
		Name:      ds.Name,
		Params:    ds.Params,
		Length:    len(ds.Series),
		HotsaxLen: ds.Params.Window,
	}
	row.BruteCalls = discord.BruteForceCallCount(len(ds.Series), ds.Params.Window)

	// Workers is pinned to 1: the table's distance-call columns must be
	// deterministic, and the parallel RRA's call count varies with
	// goroutine scheduling (its discords do not).
	p, err := core.Analyze(ds.Series, core.Config{Params: ds.Params, Seed: seed, Workers: 1})
	if err != nil {
		return row, fmt.Errorf("experiments: analyze %s: %w", ds.Name, err)
	}

	// HOTSAX shares the pipeline's series statistics, so the prefix sums
	// are built once for both searches.
	hs, err := discord.HOTSAXStatsCtx(context.Background(), p.Stats(), ds.Params, 1, seed)
	if err != nil {
		return row, fmt.Errorf("experiments: hotsax on %s: %w", ds.Name, err)
	}
	row.HotsaxCalls = hs.DistCalls
	// The paper's distance-call columns compare top-1 searches; the
	// length/overlap columns consider ranked discords, so run top-1 for
	// the count and top-3 for the overlap measure.
	rra1, err := p.Discords(1)
	if err != nil {
		return row, fmt.Errorf("experiments: rra on %s: %w", ds.Name, err)
	}
	row.RRACalls = rra1.DistCalls
	rraAll, err := p.Discords(5)
	if err != nil {
		return row, fmt.Errorf("experiments: rra top-3 on %s: %w", ds.Name, err)
	}
	rra := struct{ Discords []discord.Discord }{dropBoundary(rraAll.Discords, len(ds.Series), 3)}
	if row.HotsaxCalls > 0 {
		row.ReductionPct = 100 * (1 - float64(row.RRACalls)/float64(row.HotsaxCalls))
	}

	best := rra.Discords[0]
	row.RRALen = best.Interval.Len()
	hsBest := hs.Discords[0]
	for _, d := range rra.Discords {
		if o := 100 * hsBest.Interval.OverlapFrac(d.Interval); o > row.OverlapPct {
			row.OverlapPct = o
		}
	}
	slack := ds.Params.Window
	row.TruthHitHotsax = ds.TruthHit(hsBest.Interval, slack)
	row.TruthHitRRA = ds.TruthHit(best.Interval, slack)
	return row, nil
}

// RunTable1 regenerates every row of Table 1, in the paper's order.
func RunTable1(seed int64) ([]Table1Row, error) {
	names := datasets.Names()
	rows := make([]Table1Row, 0, len(names))
	for _, name := range names {
		row, err := RunRow(name, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders measured rows the way the paper prints Table 1,
// optionally annotating each row with the paper-reported values.
func FormatTable1(rows []Table1Row, withPaper bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %8s %15s %12s %10s %9s %11s %8s %6s\n",
		"Dataset (w,p,a)", "Length", "Brute-force", "HOTSAX", "RRA", "Reduction", "HS/RRA len", "Overlap", "Truth")
	for _, r := range rows {
		truth := ""
		if r.TruthHitHotsax {
			truth += "H"
		}
		if r.TruthHitRRA {
			truth += "R"
		}
		fmt.Fprintf(&b, "%-22s %8d %15d %12d %10d %8.1f%% %5d/%-5d %6.1f%% %6s\n",
			fmt.Sprintf("%s %s", r.Name, r.Params), r.Length,
			r.BruteCalls, r.HotsaxCalls, r.RRACalls, r.ReductionPct,
			r.HotsaxLen, r.RRALen, r.OverlapPct, truth)
		if withPaper {
			if p, ok := PaperTable1[r.Name]; ok {
				fmt.Fprintf(&b, "  paper: len %d, brute %.3g, hotsax %.3g, rra %.3g, reduction %.1f%%, len %d/%d, overlap %.1f%%\n",
					p.Length, p.Brute, p.Hotsax, p.RRA, p.ReductionPct, p.WindowLen, p.RRALen, p.OverlapPct)
			}
		}
	}
	return b.String()
}
