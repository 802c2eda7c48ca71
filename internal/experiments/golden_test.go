package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"grammarviz/internal/core"
	"grammarviz/internal/datasets"
	"grammarviz/internal/discord"
)

var update = flag.Bool("update", false, "rewrite testdata/table1_golden.json from the current code")

const table1GoldenPath = "testdata/table1_golden.json"

// bruteGoldenMaxLen bounds the datasets that run a real brute-force
// search in TestTable1Golden: the six records up to 5,400 points take a
// few seconds together, the 17k–40k-point ones tens of seconds each.
const bruteGoldenMaxLen = 5400

// goldenDiscord is one discord as the golden file records it. Dist is
// printed with strconv's shortest round-trip form, so a change in the
// last bit of a distance changes the file.
type goldenDiscord struct {
	Start     int    `json:"start"`
	End       int    `json:"end"`
	Dist      string `json:"dist"`
	NNStart   int    `json:"nn_start"`
	RuleID    int    `json:"rule_id"`
	Freq      int    `json:"freq"`
	DistCalls int64  `json:"dist_calls,omitempty"`
}

type goldenCounts struct {
	DistCalls int64 `json:"dist_calls"`
	Pruned    int64 `json:"pruned"`
}

// goldenRow is everything Table 1 and its figures rest on for one
// dataset at seed 1, Workers 1.
type goldenRow struct {
	Name          string          `json:"name"`
	Length        int             `json:"length"`
	BruteCalls    int64           `json:"brute_calls_analytic"`
	RRATop1       goldenCounts    `json:"rra_top1"`
	RRATop5       []goldenDiscord `json:"rra_top5"`
	HOTSAXTop1    goldenDiscord   `json:"hotsax_top1"`
	HOTSAXCoded   goldenCounts    `json:"hotsax_coded_top1"`
	DensityMinima [][2]int        `json:"density_minima"`
	Brute         *goldenDiscord  `json:"brute_top1,omitempty"`
}

func toGolden(d discord.Discord) goldenDiscord {
	return goldenDiscord{
		Start:   d.Interval.Start,
		End:     d.Interval.End,
		Dist:    strconv.FormatFloat(d.Dist, 'g', -1, 64),
		NNStart: d.NNStart,
		RuleID:  d.RuleID,
		Freq:    d.Freq,
	}
}

func goldenRowFor(t *testing.T, name string) goldenRow {
	t.Helper()
	ctx := context.Background()
	ds, err := datasets.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Analyze(ds.Series, core.Config{Params: ds.Params, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	row := goldenRow{
		Name:       name,
		Length:     len(ds.Series),
		BruteCalls: discord.BruteForceCallCount(len(ds.Series), ds.Params.Window),
	}
	rra1, err := p.Discords(1)
	if err != nil {
		t.Fatalf("rra top-1: %v", err)
	}
	row.RRATop1 = goldenCounts{DistCalls: rra1.DistCalls, Pruned: rra1.Pruned}
	rra5, err := p.Discords(5)
	if err != nil {
		t.Fatalf("rra top-5: %v", err)
	}
	for _, d := range rra5.Discords {
		row.RRATop5 = append(row.RRATop5, toGolden(d))
	}
	hs, err := discord.HOTSAXStatsCtx(ctx, p.Stats(), ds.Params, 1, 1)
	if err != nil {
		t.Fatalf("hotsax: %v", err)
	}
	row.HOTSAXTop1 = toGolden(hs.Discords[0])
	row.HOTSAXTop1.DistCalls = hs.DistCalls
	hc, err := discord.HOTSAXStatsCodedCtx(ctx, p.Stats(), ds.Params, 1, 1)
	if err != nil {
		t.Fatalf("hotsax coded: %v", err)
	}
	row.HOTSAXCoded = goldenCounts{DistCalls: hc.DistCalls, Pruned: hc.Pruned}
	for _, iv := range p.GlobalMinima() {
		row.DensityMinima = append(row.DensityMinima, [2]int{iv.Start, iv.End})
	}
	if len(ds.Series) <= bruteGoldenMaxLen {
		bf, err := discord.BruteForceStatsCtx(ctx, p.Stats(), ds.Params.Window, 1)
		if err != nil {
			t.Fatalf("brute force: %v", err)
		}
		g := toGolden(bf.Discords[0])
		g.DistCalls = bf.DistCalls
		row.Brute = &g
	}
	return row
}

// TestTable1Golden pins the Table 1 reproduction byte for byte: for every
// registry dataset at seed 1 with one worker, RRA's top-1 call counts and
// top-5 discords, HOTSAX's top-1 discord and calls (plain and coded), the
// rule-density global minima, the analytic brute-force count, and — on
// the datasets small enough to run it — the brute-force discord and its
// calls. A search refactor must leave every number in place; regenerate
// the file only for a deliberate behaviour change, with
//
//	go test ./internal/experiments -run TestTable1Golden -update
func TestTable1Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every dataset plus six brute-force searches")
	}
	names := datasets.Names()
	rows := make([]goldenRow, len(names))
	t.Run("datasets", func(t *testing.T) {
		for i, name := range names {
			i, name := i, name
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				rows[i] = goldenRowFor(t, name)
			})
		}
	})
	if t.Failed() {
		return
	}
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(table1GoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(table1GoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(table1GoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantRows []goldenRow
	if err := json.Unmarshal(want, &wantRows); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	for i, row := range rows {
		if i >= len(wantRows) {
			t.Errorf("%s: missing from the golden file", row.Name)
			continue
		}
		g, _ := json.Marshal(row)
		w, _ := json.Marshal(wantRows[i])
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from the golden file:\n got %s\nwant %s", row.Name, g, w)
		}
	}
	if len(wantRows) != len(rows) {
		t.Errorf("golden file has %d rows, the registry %d", len(wantRows), len(rows))
	}
	if !t.Failed() {
		t.Error("output differs from the golden file in formatting only")
	}
}
