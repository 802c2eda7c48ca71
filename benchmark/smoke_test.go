package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeAllWorkloads runs every workload end to end against a real
// gvad child with one-second phases and the fixed work of one second,
// then the traced replay, and checks that every metric is printed with
// its unit and that the oracle found nothing wrong.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots gvad children")
	}
	dir := t.TempDir()
	gvad := filepath.Join(dir, "gvad")
	if out, err := exec.Command("go", "build", "-o", gvad, "grammarviz/cmd/gvad").CombinedOutput(); err != nil {
		t.Fatalf("build gvad: %v\n%s", err, out)
	}
	common := []string{"-gvad", gvad, "-work", filepath.Join(dir, "work"), "-out", filepath.Join(dir, "out"), "--seconds", "1"}

	var out bytes.Buffer
	if err := run(common, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	checkPrinted(t, out.String(), endToEnd)

	out.Reset()
	if err := run(append([]string{"trace"}, common...), &out); err != nil {
		t.Fatalf("trace: %v\n%s", err, out.String())
	}
	checkPrinted(t, out.String(), perLayer)
	if _, err := os.Stat(filepath.Join(dir, "out", "trace.json")); err != nil {
		t.Errorf("trace.json not written: %v", err)
	}
}

// checkPrinted wants a "workload metric value unit" line for every
// workload and metric, and a correct final report.
func checkPrinted(t *testing.T, out string, metrics []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	printed := map[string]bool{}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 4 {
			printed[f[0]+" "+f[1]+" "+f[3]] = true
		}
	}
	for _, w := range workloads {
		for _, m := range metrics {
			if key := fmt.Sprintf("%s %s %s", w.name, m.name, m.unit); !printed[key] {
				t.Errorf("no line for %q", key)
			}
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the report: %v", err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("report: correct %v, %d of %d failed\n%s", rep.Correct, rep.Failed, rep.Attempted, out)
	}
}

// TestMetricsMatchSpec keeps BENCHMARK.json and the code in step.
func TestMetricsMatchSpec(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, spec []specMetric, code []metricDef) {
		if len(spec) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(spec), len(code))
			return
		}
		for i := range spec {
			if spec[i].Name != code[i].name || spec[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, code %s %s", kind, i, spec[i].Name, spec[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", sp.EndToEnd, endToEnd)
	same("per_layer", sp.PerLayer, perLayer)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %s: %s", i, sp.Workloads[i], w.name, w.why)
		}
	}
}
