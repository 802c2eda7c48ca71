// Command benchmark is gvad's end-to-end benchmark. It boots fresh gvad
// children, drives them over loopback HTTP with an open loop (requests on
// a fixed schedule, latency timed from each request's due time) and a
// fixed-work closed loop on two connections, checks sampled answers
// against the library, and prints every metric as
// "workload metric value unit" followed by one JSON line.
//
// Usage (from the repository root; run.sh builds gvad and this program):
//
//	bash benchmark/run.sh [run] [--workload W|all] [--seed N] [--seconds S] [--out DIR]
//	bash benchmark/run.sh trace [--workload W|all] [--seed N]   # per-layer replay
//	bash benchmark/run.sh compare -base A/ -head B/            # verdict per metric
//
// See benchmark/README.md for the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect makes a run that printed its result exit non-zero because
// some output was wrong.
var errIncorrect = errors.New("some outputs were wrong or failed")

// run parses the command line, runs what it asks for and prints the
// results to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	cfg := &config{}
	trace := 0
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed (dev 1, holdout 2)")
	fs.IntVar(&cfg.seconds, "seconds", 25, "measured seconds per workload run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced layer replay instead of the end-to-end run")
	fs.StringVar(&cfg.gvad, "gvad", ".bench_build/bin/gvad", "gvad binary")
	fs.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for gvad state")
	fs.StringVar(&cfg.out, "out", ".bench_build/results", "directory for result files and trace.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A subcommand may follow the flags run.sh always passes.
	if rest := fs.Args(); len(rest) > 0 {
		switch rest[0] {
		case "compare":
			return compareMain(rest[1:])
		case "trace":
			trace = 1
		case "run":
		default:
			return fmt.Errorf("unknown subcommand %q (want run, trace or compare)", rest[0])
		}
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
	}
	if cfg.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	cfg.trace = trace == 1
	// One generator process standing in for two clients never needs more
	// than two cores.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	list := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		list = []*workload{w}
	}
	var results []*result
	if cfg.trace {
		rs, err := runTrace(cfg, list)
		if err != nil {
			return err
		}
		results = rs
	} else {
		if _, err := os.Stat(cfg.gvad); err != nil {
			return fmt.Errorf("gvad binary: %w", err)
		}
		for _, w := range list {
			r, err := runWorkload(cfg, w)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			results = append(results, r)
		}
	}

	final := report{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		r.print(stdout)
		if err := r.save(cfg.out); err != nil {
			return err
		}
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for k, m := range r.Metrics {
			if len(results) > 1 {
				k = r.Workload + "/" + k
			}
			final.Metrics[k] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return errIncorrect
	}
	return nil
}
