// Command gvperf diffs `go test -bench` output against the checked-in
// BENCH_*.json baselines and exits non-zero on regression — the perf gate
// behind `make perfgate` (ROADMAP: continuous perf observability).
//
// Usage:
//
//	go test ./internal/discord -run '^$' -bench Component -benchmem \
//	    | gvperf -baseline BENCH_5.json -tol 3.0
//
// Baselines are the repo's measurement files: every entry under the
// top-level "benchmarks" object whose value carries ns_per_op (directly
// or under an "after" key, the shape BENCH_2/BENCH_5 use) participates;
// scenario-style files contribute nothing and are skipped silently, so
// passing every BENCH_*.json is safe. Benchmark names are matched after
// stripping the "Benchmark" prefix and the -GOMAXPROCS suffix.
//
// ns/op is gated by a fractional tolerance (-tol): CI runners are not
// the measurement host, so the default is deliberately loose — the gate
// exists to catch order-of-magnitude slides and alloc regressions, not
// 10% jitter. allocs/op is machine-independent and gated strictly by an
// absolute slack (-alloc-tol, default 0).
//
// Benchmarks are classified into perf families by name pattern — kernel
// (the distance kernels and discord searches), induction (discretize,
// Sequitur, grammar build, density curve), serving (streaming append, the
// ensemble, request decoding and its float scan) — and each family can override the global tolerances with
// a repeatable -family-tol family=ns[:alloc] flag. The induction path
// pools allocations across runs, so its allocs/op at the gate's short
// -benchtime includes warm-up the 50x baselines amortized away; a wider
// per-family slack absorbs that without loosening the kernel gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Measurement is one benchmark's gated quantities. AllocsPerOp is -1 when
// the line carried no -benchmem columns (ns-only gate).
type Measurement struct {
	NsPerOp     float64
	AllocsPerOp float64
}

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkName[-P]  <iters>  <ns> ns/op [<x> B/op  <y> allocs/op] [extra metrics]
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) allocs/op)?`)

// normalize strips the "Benchmark" prefix and the trailing -GOMAXPROCS
// suffix (absent on single-proc runs) so output names line up with the
// baseline files' keys.
func normalize(name string) string {
	name = strings.TrimPrefix(name, "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name
}

// ParseBench extracts measurements from `go test -bench` output, keyed by
// normalized benchmark name.
func ParseBench(r io.Reader) (map[string]Measurement, error) {
	out := map[string]Measurement{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		allocs := -1.0
		if m[3] != "" {
			if a, err := strconv.ParseFloat(m[3], 64); err == nil {
				allocs = a
			}
		}
		out[normalize(m[1])] = Measurement{NsPerOp: ns, AllocsPerOp: allocs}
	}
	return out, sc.Err()
}

// baselineRow is the accepted shapes of one "benchmarks" entry: either the
// measurement fields directly, or nested under "after" (the before/after
// files). Entries with neither are ignored.
type baselineRow struct {
	NsPerOp     *float64     `json:"ns_per_op"`
	AllocsPerOp *float64     `json:"allocs_per_op"`
	After       *baselineRow `json:"after"`
}

func (r *baselineRow) measurement() (Measurement, bool) {
	if r == nil {
		return Measurement{}, false
	}
	if r.NsPerOp != nil {
		m := Measurement{NsPerOp: *r.NsPerOp, AllocsPerOp: -1}
		if r.AllocsPerOp != nil {
			m.AllocsPerOp = *r.AllocsPerOp
		}
		return m, true
	}
	return r.After.measurement()
}

// LoadBaseline reads one BENCH_*.json and returns its gateable rows.
func LoadBaseline(path string) (map[string]Measurement, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		Benchmarks map[string]json.RawMessage `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]Measurement{}
	for name, body := range file.Benchmarks {
		var row baselineRow
		if err := json.Unmarshal(body, &row); err != nil {
			continue // non-measurement entry (notes, scenario rows)
		}
		if m, ok := row.measurement(); ok {
			out[name] = m
		}
	}
	return out, nil
}

// multiFlag collects repeated -baseline flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// familyRules classifies normalized benchmark names into perf families.
// First match wins; names no rule matches fall into "other". The rules key
// off the stable Component_ prefixes, so sub-benchmark paths and future
// dataset names classify without edits here.
var familyRules = []struct {
	Name string
	re   *regexp.Regexp
}{
	{"kernel", regexp.MustCompile(`^Component_(DistKernel|Search)`)},
	{"induction", regexp.MustCompile(`^Component_(SAXDiscretize|SequiturInduce|GrammarBuild|DensityCurve)`)},
	{"serving", regexp.MustCompile(`^Component_(StreamingAppend|EnsembleDensity|RequestDecode|ParseFloat)`)},
}

// Family returns the perf family of a normalized benchmark name.
func Family(name string) string {
	for _, r := range familyRules {
		if r.re.MatchString(name) {
			return r.Name
		}
	}
	return "other"
}

// Tol is one family's gate settings: a fractional ns/op tolerance and an
// absolute allocs/op slack.
type Tol struct {
	Ns    float64
	Alloc float64
}

// parseFamilyTol parses one -family-tol value, "family=ns[:alloc]". An
// omitted alloc part inherits the global -alloc-tol, signalled by -1.
func parseFamilyTol(spec string) (string, Tol, error) {
	name, vals, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return "", Tol{}, fmt.Errorf("-family-tol %q: want family=ns[:alloc]", spec)
	}
	known := name == "other"
	for _, r := range familyRules {
		known = known || name == r.Name
	}
	if !known {
		return "", Tol{}, fmt.Errorf("-family-tol %q: unknown family %q", spec, name)
	}
	nsPart, allocPart, hasAlloc := strings.Cut(vals, ":")
	t := Tol{Alloc: -1}
	ns, err := strconv.ParseFloat(nsPart, 64)
	if err != nil {
		return "", Tol{}, fmt.Errorf("-family-tol %q: bad ns tolerance: %v", spec, err)
	}
	t.Ns = ns
	if hasAlloc {
		a, err := strconv.ParseFloat(allocPart, 64)
		if err != nil {
			return "", Tol{}, fmt.Errorf("-family-tol %q: bad alloc slack: %v", spec, err)
		}
		t.Alloc = a
	}
	return name, t, nil
}

// familyTolFlag collects repeated -family-tol overrides.
type familyTolFlag map[string]Tol

func (f familyTolFlag) String() string {
	var parts []string
	for name, t := range f {
		parts = append(parts, fmt.Sprintf("%s=%g:%g", name, t.Ns, t.Alloc))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (f familyTolFlag) Set(v string) error {
	name, t, err := parseFamilyTol(v)
	if err != nil {
		return err
	}
	f[name] = t
	return nil
}

// Compare gates current measurements against the baselines with one global
// tolerance pair and returns human-readable regression lines (empty =
// pass) plus the match count.
func Compare(base, cur map[string]Measurement, tol, allocTol float64) (regressions []string, matched int) {
	regs, byFamily := CompareFamilies(base, cur, Tol{Ns: tol, Alloc: allocTol}, nil)
	for _, n := range byFamily {
		matched += n
	}
	return regs, matched
}

// CompareFamilies gates current measurements against the baselines,
// applying a per-family Tol where overrides has one (an override Alloc of
// -1 inherits def.Alloc) and def everywhere else. Regression lines are
// tagged with the family and sorted by benchmark name; matched counts are
// keyed by family.
func CompareFamilies(base, cur map[string]Measurement, def Tol, overrides map[string]Tol) (regressions []string, matched map[string]int) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	matched = map[string]int{}
	for _, name := range names {
		c, ok := cur[name]
		if !ok {
			continue
		}
		b := base[name]
		family := Family(name)
		matched[family]++
		tol := def
		if o, ok := overrides[family]; ok {
			tol.Ns = o.Ns
			if o.Alloc >= 0 {
				tol.Alloc = o.Alloc
			}
		}
		if c.NsPerOp > b.NsPerOp*(1+tol.Ns) {
			regressions = append(regressions, fmt.Sprintf(
				"%s [%s]: %.0f ns/op vs baseline %.0f (limit %.0f, tol %.0f%%)",
				name, family, c.NsPerOp, b.NsPerOp, b.NsPerOp*(1+tol.Ns), tol.Ns*100))
		}
		if b.AllocsPerOp >= 0 && c.AllocsPerOp >= 0 && c.AllocsPerOp > b.AllocsPerOp+tol.Alloc {
			regressions = append(regressions, fmt.Sprintf(
				"%s [%s]: %.1f allocs/op vs baseline %.1f (+%.1f allowed)",
				name, family, c.AllocsPerOp, b.AllocsPerOp, tol.Alloc))
		}
	}
	return regressions, matched
}

func main() {
	var (
		baselines  multiFlag
		familyTols = familyTolFlag{}
		tol        = flag.Float64("tol", 3.0, "fractional ns/op tolerance (3.0 = 4x the baseline fails)")
		allocTol   = flag.Float64("alloc-tol", 0, "absolute allocs/op slack")
		minMatches = flag.Int("min-matches", 1, "fail unless at least this many benchmarks matched a baseline row (guards against silent renames)")
		input      = flag.String("input", "-", "bench output file, - for stdin")
	)
	flag.Var(&baselines, "baseline", "baseline JSON file (repeatable)")
	flag.Var(familyTols, "family-tol", "per-family override, family=ns[:alloc] (repeatable; families: kernel, induction, serving, other)")
	flag.Parse()

	if len(baselines) == 0 {
		fmt.Fprintln(os.Stderr, "gvperf: at least one -baseline is required")
		os.Exit(2)
	}
	base := map[string]Measurement{}
	for _, path := range baselines {
		rows, err := LoadBaseline(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gvperf:", err)
			os.Exit(2)
		}
		for name, m := range rows {
			base[name] = m // later files win on duplicate names
		}
	}

	in := io.Reader(os.Stdin)
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gvperf:", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	cur, err := ParseBench(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gvperf:", err)
		os.Exit(2)
	}

	regressions, byFamily := CompareFamilies(base, cur, Tol{Ns: *tol, Alloc: *allocTol}, familyTols)
	matched := 0
	families := make([]string, 0, len(byFamily))
	for family, n := range byFamily {
		matched += n
		families = append(families, family)
	}
	sort.Strings(families)
	fmt.Printf("gvperf: %d benchmark(s) matched %d baseline row(s) across %d file(s)\n",
		len(cur), matched, len(baselines))
	for _, family := range families {
		fmt.Printf("gvperf:   %-10s %d matched\n", family, byFamily[family])
	}
	if matched < *minMatches {
		fmt.Fprintf(os.Stderr, "gvperf: only %d benchmark(s) matched a baseline row (want >= %d) — renamed benchmarks or wrong baseline file?\n",
			matched, *minMatches)
		os.Exit(1)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "gvperf: REGRESSION", r)
		}
		os.Exit(1)
	}
	fmt.Println("gvperf: PASS")
}
