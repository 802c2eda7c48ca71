package grammarviz

import (
	"context"
	"fmt"

	"grammarviz/internal/discord"
	"grammarviz/internal/sax"
	"grammarviz/internal/viztree"
	"grammarviz/internal/wcad"
)

// BruteForceDiscords finds the top-k fixed-length discords by exhaustive
// O(n^2) search — the exactness baseline of the paper's Table 1. It also
// returns the number of distance-function calls made.
func BruteForceDiscords(ts []float64, window, k int) ([]Discord, int64, error) {
	res, err := discord.BruteForceStatsCtx(context.Background(), discord.NewStats(ts), window, k)
	if err != nil {
		return nil, res.DistCalls, fmt.Errorf("grammarviz: %w", err)
	}
	return convertDiscords(res.Discords), res.DistCalls, nil
}

// HOTSAXDiscords finds the top-k fixed-length discords with the HOTSAX
// heuristic (Keogh, Lin, Fu 2005) — the state-of-the-art baseline the
// paper compares RRA against. The result is exact for the given window;
// paa and alphabet only steer the search-order heuristic. It also returns
// the number of distance-function calls made.
func HOTSAXDiscords(ts []float64, window, paa, alphabet, k int, seed int64) ([]Discord, int64, error) {
	res, err := discord.HOTSAXStatsCtx(context.Background(), discord.NewStats(ts), sax.Params{Window: window, PAA: paa, Alphabet: alphabet}, k, seed)
	if err != nil {
		return nil, res.DistCalls, fmt.Errorf("grammarviz: %w", err)
	}
	return convertDiscords(res.Discords), res.DistCalls, nil
}

// HOTSAXDiscordsCtx is HOTSAXDiscords with cooperative cancellation: the
// search polls ctx at bounded intervals and returns a ctx.Err()-wrapped
// error when the deadline passes. It serves deadline-bound callers such
// as the gvad daemon's hotsax mode, and runs with the coded MINDIST
// pre-filter. With a never-cancelled context its discords are identical
// to HOTSAXDiscords', but its distance-call count is lower: the filter
// skips comparisons that could change nothing, and its count plus those
// skipped comparisons equals HOTSAXDiscords' count.
func HOTSAXDiscordsCtx(ctx context.Context, ts []float64, window, paa, alphabet, k int, seed int64) ([]Discord, int64, error) {
	res, err := discord.HOTSAXStatsCodedCtx(ctx, discord.NewStats(ts), sax.Params{Window: window, PAA: paa, Alphabet: alphabet}, k, seed)
	if err != nil {
		return nil, res.DistCalls, fmt.Errorf("grammarviz: %w", err)
	}
	return convertDiscords(res.Discords), res.DistCalls, nil
}

// BruteForceCallCount returns, without running the search, the number of
// distance calls a brute-force top-1 discord search would make on a
// series of length n with the given window.
func BruteForceCallCount(n, window int) int64 {
	return discord.BruteForceCallCount(n, window)
}

// VizTreeAnomaly is one window-scale anomaly from the VizTree baseline.
type VizTreeAnomaly struct {
	Start, End int
	Word       string // the window's SAX word
	Count      int    // how many windows share that word
}

// VizTreeAnomalies runs the VizTree baseline (Lin et al. 2004, discussed
// in the paper's Section 6): every window's SAX word is counted in a
// frequency trie and the k rarest non-overlapping windows are returned.
// Unlike the grammar-based detectors, VizTree ignores word ordering and is
// locked to the window scale.
func VizTreeAnomalies(ts []float64, window, paa, alphabet, k int) ([]VizTreeAnomaly, error) {
	tr, err := viztree.Build(ts, sax.Params{Window: window, PAA: paa, Alphabet: alphabet})
	if err != nil {
		return nil, fmt.Errorf("grammarviz: %w", err)
	}
	raw := tr.Anomalies(k)
	out := make([]VizTreeAnomaly, len(raw))
	for i, a := range raw {
		out[i] = VizTreeAnomaly{Start: a.Interval.Start, End: a.Interval.End, Word: a.Word, Count: a.Count}
	}
	return out, nil
}

// WCADScore is one chunk's score from the WCAD baseline.
type WCADScore struct {
	Start, End int
	// CDM is the compression-based dissimilarity of the chunk against the
	// rest of the series; higher means more anomalous.
	CDM float64
}

// WCADScores runs the compression-based WCAD baseline (Keogh et al. 2004,
// discussed in the paper's Section 6): the series is cut into
// window-sized chunks and each chunk is scored by how poorly it
// compresses together with the rest of the series, using the same
// Sequitur compressor as the main pipeline. Chunks are returned most
// anomalous first. WCAD needs the anomaly size as input and runs the
// compressor once per chunk — the costs the paper's approach removes.
func WCADScores(ts []float64, window, paa, alphabet int) ([]WCADScore, error) {
	raw, err := wcad.Detect(ts, sax.Params{Window: window, PAA: paa, Alphabet: alphabet})
	if err != nil {
		return nil, fmt.Errorf("grammarviz: %w", err)
	}
	out := make([]WCADScore, len(raw))
	for i, s := range raw {
		out[i] = WCADScore{Start: s.Interval.Start, End: s.Interval.End, CDM: s.CDM}
	}
	return out, nil
}
