package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// specMetric is one end-to-end metric as BENCHMARK.json declares it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json compare and the tests read.
type spec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []specMetric                 `json:"end_to_end"`
	PerLayer  []specMetric                 `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of the pair rule.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minRuns is the fewest runs per side the pair rule accepts.
const minRuns = 10

// judge applies the pair rule to one metric on one workload. base and
// head are the runs of each side in run order; pairs are taken in that
// order. It returns the verdict and why.
func judge(base, head []float64, lowerBetter bool, bound float64) (string, string) {
	if len(base) < minRuns || len(head) < minRuns {
		return unresolved, fmt.Sprintf("need %d runs per side, have %d and %d", minRuns, len(base), len(head))
	}
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	mb, mh := median(base), median(head)
	b1, b3 := quartiles(base)
	h1, h3 := quartiles(head)
	pairs := min(len(base), len(head))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	gap := mh - mb
	if lowerBetter {
		gap = -gap
	}
	if 10*wins >= 9*pairs && gap > b3-b1 {
		return improved, fmt.Sprintf("head wins %d of %d pairs; median gap exceeds the base IQR", wins, pairs)
	}
	spread := math.Max((b3-b1)/math.Abs(mb), (h3-h1)/math.Abs(mh))
	if spread > bound {
		if allBetter(head, base, better) {
			return improved, "every head run beats every base run"
		}
		return unresolved, fmt.Sprintf("spread %.3f is wider than the bound %.3f", spread, bound)
	}
	if worse := -gap / math.Abs(mb); worse > bound {
		return regressed, fmt.Sprintf("median worse by %.1f%%, bound %.1f%%", 100*worse, 100*bound)
	}
	return unchanged, fmt.Sprintf("median within the %.1f%% bound", 100*bound)
}

func allBetter(head, base []float64, better func(a, b float64) bool) bool {
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				return false
			}
		}
	}
	return true
}

// judgeFailures: any increase in the failure ratio is a regression.
func judgeFailures(base, head []*result) (string, string) {
	ratio := func(rs []*result) float64 {
		var failed, attempted int
		for _, r := range rs {
			failed += r.Failed
			attempted += r.Attempted
		}
		if attempted == 0 {
			return 0
		}
		return float64(failed) / float64(attempted)
	}
	rb, rh := ratio(base), ratio(head)
	switch {
	case rh > rb:
		return regressed, fmt.Sprintf("fail ratio rose from %g to %g", rb, rh)
	case rh < rb:
		return improved, fmt.Sprintf("fail ratio fell from %g to %g", rb, rh)
	}
	return unchanged, fmt.Sprintf("fail ratio %g on both sides", rb)
}

// errRegressed makes compare exit non-zero when any pairing regressed.
var errRegressed = errors.New("at least one metric regressed")

func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	baseDir := fs.String("base", "", "directory of the base side's result files")
	headDir := fs.String("head", "", "directory of the head side's result files")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark spec holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baseDir == "" || *headDir == "" {
		return errors.New("compare needs -base and -head")
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	base, err := loadResults(*baseDir)
	if err != nil {
		return err
	}
	head, err := loadResults(*headDir)
	if err != nil {
		return err
	}
	rows, err := compare(sp, base, head)
	if err != nil {
		return err
	}
	anyRegressed := false
	for _, r := range rows {
		fmt.Printf("%-22s %-16s %-10s base %-12.6g head %-12.6g %s\n", r.workload, r.metric, r.verdict, r.base, r.head, r.why)
		anyRegressed = anyRegressed || r.verdict == regressed
	}
	if anyRegressed {
		return errRegressed
	}
	return nil
}

// row is one metric × workload verdict.
type row struct {
	workload, metric, verdict, why string
	base, head                     float64 // medians
}

// compare judges every end-to-end metric on every workload both sides
// ran. It refuses results whose host CPU, nproc or Go version differ.
func compare(sp *spec, base, head []*result) ([]row, error) {
	all := append(append([]*result(nil), base...), head...)
	if len(all) == 0 {
		return nil, errors.New("no result files")
	}
	p0 := all[0].Provenance
	for _, r := range all[1:] {
		p := r.Provenance
		if p.CPU != p0.CPU || p.NProc != p0.NProc || p.Go != p0.Go {
			return nil, fmt.Errorf("refusing to compare: provenance differs (%s/%d/%s vs %s/%d/%s)",
				p0.CPU, p0.NProc, p0.Go, p.CPU, p.NProc, p.Go)
		}
	}
	byWorkload := func(rs []*result) map[string][]*result {
		m := map[string][]*result{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	bw, hw := byWorkload(base), byWorkload(head)
	var names []string
	for name := range bw {
		if hw[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var rows []row
	for _, name := range names {
		b, h := bw[name], hw[name]
		for _, m := range sp.EndToEnd {
			bv, hv := values(b, m.Name), values(h, m.Name)
			v, why := judge(bv, hv, m.Better == "lower", m.Bound)
			rows = append(rows, row{name, m.Name, v, why, median(bv), median(hv)})
		}
		v, why := judgeFailures(b, h)
		rows = append(rows, row{workload: name, metric: "fail_ratio", verdict: v, why: why})
	}
	return rows, nil
}

// values returns one metric's values in run order.
func values(rs []*result, metric string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// loadResults reads every untraced result file in dir, in run order.
func loadResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, p := range paths {
		if strings.HasPrefix(filepath.Base(p), "trace") {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out = append(out, &r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Started < out[j].Started })
	return out, nil
}
