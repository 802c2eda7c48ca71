package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric and its unit. BENCHMARK.json holds the same
// names with their direction and bound; TestMetricsMatchSpec keeps the two
// in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"capacity_per_s", "items/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mib", "MiB"},
	{"recover_s", "s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is one run of one workload as written to the results directory
// and read back by compare.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Started  string `json:"started"`
	report
	// TailPercentile and TailSamples say which percentile
	// latency_tail_ms is and over how many open-loop samples.
	TailPercentile float64 `json:"tail_percentile,omitempty"`
	TailSamples    int     `json:"tail_samples,omitempty"`
	// HostSpeed is the median host speed the run's probes measured,
	// relative to the reference host; Raw holds the end-to-end metrics as
	// measured, before scaling to reference-host units.
	HostSpeed  float64           `json:"host_speed,omitempty"`
	Raw        map[string]metric `json:"raw,omitempty"`
	Provenance provenance        `json:"provenance"`
	Failures   []string          `json:"failures,omitempty"` // the first few
}

// provenance is what two result sets must share to be comparable (CPU,
// nproc, Go version) plus what explains a noisy run.
type provenance struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadAvg    float64 `json:"loadavg_1m"`
	// LatenessP99 is how late the generator itself woke for open-loop
	// requests, in ms.
	LatenessP99 float64 `json:"lateness_p99_ms"`
}

func newResult(cfg *config, name string) *result {
	return &result{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Started: time.Now().UTC().Format("2006-01-02T15:04:05.000000000Z"),
		report:  report{Metrics: map[string]metric{}},
		Provenance: provenance{
			Commit: commit(), Go: runtime.Version(), CPU: cpuModel(),
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), LoadAvg: loadAvg(),
		},
	}
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// measured records an end-to-end metric in reference-host units and as
// measured.
func (r *result) measured(name, unit string, v, raw float64) {
	r.set(name, unit, v)
	if r.Raw == nil {
		r.Raw = map[string]metric{}
	}
	r.Raw[name] = metric{Value: raw, Unit: unit}
}

// fail records failures; the run is correct only with none.
func (r *result) fail(errs ...error) {
	for _, err := range errs {
		r.Failed++
		if len(r.Failures) < 10 {
			r.Failures = append(r.Failures, err.Error())
		}
	}
}

// print writes one "workload metric value unit" line per metric.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	if r.TailSamples > 0 {
		fmt.Fprintf(w, "# %s latency_tail_ms is p%g of %d samples; generator lateness p99 %.3f ms\n",
			r.Workload, 100*r.TailPercentile, r.TailSamples, r.Provenance.LatenessP99)
	}
	fmt.Fprintf(w, "# %s %d of %d operations failed\n", r.Workload, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# %s failure: %s\n", r.Workload, f)
	}
}

// save writes the result to dir as <workload>-seed<N>-<time>.json.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	stamp := strings.NewReplacer(":", "", "-", "", ".", "").Replace(r.Started)
	name := fmt.Sprintf("%s-seed%d-%s.json", r.Workload, r.Seed, stamp)
	if r.Trace {
		name = "trace-" + name
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// commit is the checked-out commit, or "unknown" outside a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	v, err := strconv.ParseFloat(strings.Fields(string(b))[0], 64)
	if err != nil {
		return -1
	}
	return v
}
