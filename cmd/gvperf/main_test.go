package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: grammarviz/internal/discord
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkComponent_DistKernelReference/ecg0606         	     300	     63286 ns/op	       0 B/op	       0 allocs/op
BenchmarkComponent_DistKernelPinned/ecg0606-8          	     300	     32060 ns/op	       5 B/op	       0 allocs/op
BenchmarkComponent_NoAllocColumns                      	     100	      1234 ns/op
BenchmarkComponent_WithMetric/x                        	      10	    500000 ns/op	        42.0 rra_calls/op	     100 B/op	       3 allocs/op
PASS
ok  	grammarviz/internal/discord	0.147s
`

func TestParseBench(t *testing.T) {
	cur, err := ParseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Measurement{
		"Component_DistKernelReference/ecg0606": {NsPerOp: 63286, AllocsPerOp: 0},
		"Component_DistKernelPinned/ecg0606":    {NsPerOp: 32060, AllocsPerOp: 0},
		"Component_NoAllocColumns":              {NsPerOp: 1234, AllocsPerOp: -1},
		"Component_WithMetric/x":                {NsPerOp: 500000, AllocsPerOp: 3},
	}
	if len(cur) != len(want) {
		t.Fatalf("parsed %d rows, want %d: %v", len(cur), len(want), cur)
	}
	for name, w := range want {
		g, ok := cur[name]
		if !ok {
			t.Errorf("missing %s", name)
			continue
		}
		if g != w {
			t.Errorf("%s = %+v, want %+v", name, g, w)
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":          "Foo",
		"BenchmarkFoo":            "Foo",
		"BenchmarkFoo/sub-case-4": "Foo/sub-case",
		"BenchmarkA/b-2x":         "A/b-2x", // non-numeric suffix is part of the name
	}
	for in, want := range cases {
		if got := normalize(in); got != want {
			t.Errorf("normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadBaselineShapes(t *testing.T) {
	// Direct fields, before/after indirection, and non-measurement rows in
	// one file — the union of the checked-in BENCH_*.json shapes.
	path := writeBaseline(t, `{
		"label": "x",
		"benchmarks": {
			"Direct": {"ns_per_op": 100, "allocs_per_op": 2},
			"Nested": {"before": {"ns_per_op": 900}, "after": {"ns_per_op": 300, "allocs_per_op": 0}, "note": "n"},
			"NsOnly": {"after": {"ns_per_op": 50}},
			"Scenario": {"p50_ms": 1.5, "note": "not gateable"}
		}
	}`)
	rows, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Measurement{
		"Direct": {NsPerOp: 100, AllocsPerOp: 2},
		"Nested": {NsPerOp: 300, AllocsPerOp: 0},
		"NsOnly": {NsPerOp: 50, AllocsPerOp: -1},
	}
	if len(rows) != len(want) {
		t.Fatalf("loaded %d rows, want %d: %v", len(rows), len(want), rows)
	}
	for name, w := range want {
		if rows[name] != w {
			t.Errorf("%s = %+v, want %+v", name, rows[name], w)
		}
	}
}

func TestLoadBaselineNoBenchmarksKey(t *testing.T) {
	rows, err := LoadBaseline(writeBaseline(t, `{"scenarios": {"x": 1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("scenario-style file contributed rows: %v", rows)
	}
}

func TestCompareGates(t *testing.T) {
	base := map[string]Measurement{
		"A": {NsPerOp: 100, AllocsPerOp: 0},
		"B": {NsPerOp: 100, AllocsPerOp: 5},
		"C": {NsPerOp: 100, AllocsPerOp: -1},
		"D": {NsPerOp: 100, AllocsPerOp: 0}, // not in current run: ignored
	}

	t.Run("pass within tolerance", func(t *testing.T) {
		cur := map[string]Measurement{
			"A": {NsPerOp: 180, AllocsPerOp: 0},  // 1.8x < 2x limit
			"B": {NsPerOp: 90, AllocsPerOp: 5},   // improvement
			"C": {NsPerOp: 100, AllocsPerOp: 99}, // baseline has no alloc row: ns gate only
		}
		regs, matched := Compare(base, cur, 1.0, 0)
		if len(regs) != 0 {
			t.Fatalf("unexpected regressions: %v", regs)
		}
		if matched != 3 {
			t.Fatalf("matched = %d, want 3", matched)
		}
	})

	t.Run("ns regression fails", func(t *testing.T) {
		cur := map[string]Measurement{"A": {NsPerOp: 201, AllocsPerOp: 0}}
		regs, _ := Compare(base, cur, 1.0, 0)
		if len(regs) != 1 || !strings.Contains(regs[0], "ns/op") {
			t.Fatalf("regs = %v, want one ns/op regression", regs)
		}
	})

	t.Run("alloc regression fails strictly", func(t *testing.T) {
		cur := map[string]Measurement{"B": {NsPerOp: 100, AllocsPerOp: 6}}
		regs, _ := Compare(base, cur, 1.0, 0)
		if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
			t.Fatalf("regs = %v, want one allocs/op regression", regs)
		}
		// The same run passes with one alloc of slack.
		if regs, _ := Compare(base, cur, 1.0, 1); len(regs) != 0 {
			t.Fatalf("alloc-tol=1 should absorb one alloc: %v", regs)
		}
	})

	t.Run("missing alloc columns skip the alloc gate", func(t *testing.T) {
		cur := map[string]Measurement{"B": {NsPerOp: 100, AllocsPerOp: -1}}
		if regs, _ := Compare(base, cur, 1.0, 0); len(regs) != 0 {
			t.Fatalf("no -benchmem columns must not trip the alloc gate: %v", regs)
		}
	})
}

func TestFamily(t *testing.T) {
	cases := map[string]string{
		"Component_DistKernelPinned/ecg0606":       "kernel",
		"Component_SearchHOTSAX/tek16/Pinned":      "kernel",
		"Component_SequiturInduce/ecg15/Codes":     "induction",
		"Component_SAXDiscretize/ecg0606/Parallel": "induction",
		"Component_GrammarBuild/ecg15":             "induction",
		"Component_DensityCurve":                   "induction",
		"Component_StreamingAppend":                "serving",
		"Component_EnsembleDensity":                "serving",
		"Component_RequestDecode/server/4k":        "serving",
		"Component_ParseFloat/fused":               "serving",
		"Component_RRA/workers=2":                  "other",
		"Ablation_Reduction":                       "other",
	}
	for name, want := range cases {
		if got := Family(name); got != want {
			t.Errorf("Family(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestParseFamilyTol(t *testing.T) {
	name, tol, err := parseFamilyTol("induction=5.0:24")
	if err != nil {
		t.Fatal(err)
	}
	if name != "induction" || tol != (Tol{Ns: 5.0, Alloc: 24}) {
		t.Fatalf("got %s %+v", name, tol)
	}

	// Omitted alloc part inherits the global slack, signalled by -1.
	name, tol, err = parseFamilyTol("kernel=2.5")
	if err != nil {
		t.Fatal(err)
	}
	if name != "kernel" || tol != (Tol{Ns: 2.5, Alloc: -1}) {
		t.Fatalf("got %s %+v", name, tol)
	}

	for _, bad := range []string{"", "induction", "nope=1.0", "kernel=abc", "kernel=1.0:xyz"} {
		if _, _, err := parseFamilyTol(bad); err == nil {
			t.Errorf("parseFamilyTol(%q) accepted", bad)
		}
	}
}

func TestCompareFamiliesOverrides(t *testing.T) {
	base := map[string]Measurement{
		"Component_DistKernelPinned/ecg0606": {NsPerOp: 100, AllocsPerOp: 0},
		"Component_SequiturInduce/ecg0606/c": {NsPerOp: 100, AllocsPerOp: 60},
		"Component_GrammarBuild/ecg15":       {NsPerOp: 100, AllocsPerOp: 500},
	}
	// The induction rows run 3x slower with extra pool-warm-up allocs; the
	// kernel row is flat. A global 1.0 tolerance would fail induction, a
	// global 4.0 would let a kernel slide pass — the overrides thread it.
	cur := map[string]Measurement{
		"Component_DistKernelPinned/ecg0606": {NsPerOp: 150, AllocsPerOp: 0},
		"Component_SequiturInduce/ecg0606/c": {NsPerOp: 300, AllocsPerOp: 75},
		"Component_GrammarBuild/ecg15":       {NsPerOp: 290, AllocsPerOp: 500},
	}

	regs, matched := CompareFamilies(base, cur, Tol{Ns: 1.0, Alloc: 0},
		map[string]Tol{"induction": {Ns: 4.0, Alloc: 24}})
	if len(regs) != 0 {
		t.Fatalf("overrides should absorb the induction drift: %v", regs)
	}
	if matched["kernel"] != 1 || matched["induction"] != 2 {
		t.Fatalf("matched = %v, want kernel:1 induction:2", matched)
	}

	// Without the override, both induction ns rows and the alloc drift fail,
	// each line tagged with its family.
	regs, _ = CompareFamilies(base, cur, Tol{Ns: 1.0, Alloc: 0}, nil)
	if len(regs) != 3 {
		t.Fatalf("regs = %v, want 3", regs)
	}
	for _, r := range regs {
		if !strings.Contains(r, "[induction]") {
			t.Errorf("regression line missing family tag: %q", r)
		}
	}

	// An override with Alloc -1 keeps the global slack for allocs.
	regs, _ = CompareFamilies(base, cur, Tol{Ns: 1.0, Alloc: 0},
		map[string]Tol{"induction": {Ns: 4.0, Alloc: -1}})
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
		t.Fatalf("regs = %v, want the alloc regression alone", regs)
	}
}
