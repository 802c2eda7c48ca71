package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The shape of an untraced run. The open loop runs as openSegments
// consecutive segments, the closed loop as closedBlocks blocks, and the
// boots behind setup_s and recover_s in groups of up to maxBootsPerGroup
// lasting about bootBudgetPerSecond × --seconds each (booting an empty
// gvad takes milliseconds); every segment, block and group runs between
// two host-speed probes (see probe.go).
const (
	openSegments        = 5
	closedBlocks        = 8
	maxBootsPerGroup    = 10
	bootBudgetPerSecond = 8 * time.Millisecond
)

// closedCap bounds a run on a slow host: no closed-loop block starts once
// the closed loop has run closedCap × --seconds.
const closedCap = 0.6

// streamTailChunks is the log every stream session holds past its last
// checkpoint when recover_s is measured: a graceful stop checkpoints every
// session, and this many chunks per session are appended before the kill,
// so each run replays the same amount of log.
const streamTailChunks = 64

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	gvad    string // gvad binary
	work    string // scratch directory for state dirs
	out     string // results directory
}

// runWorkload is one untraced end-to-end run of w against fresh gvad
// children.
func runWorkload(cfg *config, w *workload) (*result, error) {
	sc, err := w.build(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s inputs: %w", w.name, err)
	}
	res := newResult(cfg, w.name)
	clock, err := newHostClock()
	if err != nil {
		return nil, err
	}
	c := &client{http: newHTTPClient(), sc: sc}
	defer c.http.CloseIdleConnections()
	stateDir := filepath.Join(cfg.work, w.name)
	defer os.RemoveAll(stateDir)

	// Set-up: exec to the first 200 on /healthz, plus the workload's
	// priming, on a fresh state directory each time. The last daemon
	// serves the measured phases.
	var d *daemon
	defer func() { d.stop() }()
	settle()
	setups, err := boots(clock, cfg.seconds, func() (time.Duration, error) {
		d.stop()
		if err := resetDir(stateDir); err != nil {
			return 0, err
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(cfg.gvad, stateDir, c.http); err != nil {
			return 0, err
		}
		c.base = d.base
		err = sc.prime(c)
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}

	secs := float64(cfg.seconds)
	var phases []*phase
	if w.warm > 0 {
		phases = append(phases, c.openLoop(sc.ops(int(w.rate*secs*w.warm), true), w.rate))
	}
	open := sc.ops(int(w.rate*secs*w.open), true)
	var lat, rawLat []float64
	if err := clock.refresh(); err != nil {
		return nil, err
	}
	for s := 0; s < openSegments; s++ {
		var p *phase
		speed, err := clock.measure(func() error {
			p = c.openLoop(open[s*len(open)/openSegments:(s+1)*len(open)/openSegments], w.rate)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if !w.scaleLatency {
			speed = 1
		}
		for _, o := range p.out {
			lat = append(lat, scaled(o.latency, speed))
			rawLat = append(rawLat, o.latency)
		}
		phases = append(phases, p)
	}

	// A block's ops are made just before it runs, so blocks the cap skips
	// hand out no stream chunks.
	closed := max(1, int(w.closedPerSecond*secs))
	blocks := min(closedBlocks, closed)
	var rates, rawRates []float64
	if err := clock.refresh(); err != nil {
		return nil, err
	}
	start := time.Now()
	for b := 0; b < blocks && time.Since(start).Seconds() < closedCap*secs; b++ {
		ops := sc.ops((b+1)*closed/blocks-b*closed/blocks, false)
		var p *phase
		speed, err := clock.measure(func() error {
			p = c.closedLoop(ops)
			return nil
		})
		if err != nil {
			return nil, err
		}
		rate := float64(p.items) / p.wall.Seconds()
		rates = append(rates, rate/speed)
		rawRates = append(rawRates, rate)
		phases = append(phases, p)
	}

	rss, err := d.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	n, fails := sc.finish(c)
	res.Attempted += n
	res.fail(fails...)

	if _, ok := sc.(*streamScenario); ok {
		if err := d.terminate(); err != nil {
			return nil, err
		}
		c.http.CloseIdleConnections()
		if d, err = startDaemon(cfg.gvad, stateDir, c.http); err != nil {
			return nil, fmt.Errorf("restart after checkpoint: %w", err)
		}
		c.base = d.base
		phases = append(phases, c.closedLoop(sc.ops(streamTailChunks*streamSessions, false)))
	}

	// Restart recovery: SIGKILL, restart on the same state directory,
	// time until /healthz answers 200.
	settle()
	if err := clock.refresh(); err != nil {
		return nil, err
	}
	recovers, err := boots(clock, cfg.seconds, func() (time.Duration, error) {
		d.stop()
		c.http.CloseIdleConnections()
		start := time.Now()
		var err error
		if d, err = startDaemon(cfg.gvad, stateDir, c.http); err != nil {
			return 0, fmt.Errorf("restart: %w", err)
		}
		c.base = d.base
		return time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}
	n, fails = sc.finish(c)
	res.Attempted += n
	res.fail(fails...)

	var late []float64
	for _, p := range phases {
		p.verify(sc)
		res.Attempted += len(p.ops)
		res.fail(p.failures...)
		late = append(late, p.lateness()...)
	}

	res.TailPercentile, res.TailSamples = w.tail, len(lat)
	if len(late) > 0 {
		res.Provenance.LatenessP99 = percentile(late, 0.99)
	}
	res.HostSpeed = median(clock.speeds)
	res.measured("setup_s", "s", median(setups.scaled), median(setups.raw))
	res.measured("capacity_per_s", "items/s", median(rates), median(rawRates))
	res.measured("latency_p50_ms", "ms", finite(percentile(lat, 0.50)), finite(percentile(rawLat, 0.50)))
	res.measured("latency_tail_ms", "ms", finite(percentile(lat, w.tail)), finite(percentile(rawLat, w.tail)))
	res.measured("peak_rss_mib", "MiB", rss, rss)
	res.measured("recover_s", "s", median(recovers.scaled), median(recovers.raw))
	res.Correct = res.Failed == 0
	return res, nil
}

// timings are durations in seconds, in reference-host units and as
// measured.
type timings struct{ scaled, raw []float64 }

// boots runs fn, which boots gvad and times it, in min(5, seconds/5)
// groups between host-speed probes: at least once per group and again
// while the group's budget lasts.
func boots(clock *hostClock, seconds int, fn func() (time.Duration, error)) (timings, error) {
	var t timings
	budget := time.Duration(seconds) * bootBudgetPerSecond
	for g := 0; g < min(5, max(1, seconds/5)); g++ {
		var group []float64
		speed, err := clock.measure(func() error {
			start := time.Now()
			for len(group) == 0 || (len(group) < maxBootsPerGroup && time.Since(start) < budget) {
				d, err := fn()
				if err != nil {
					return err
				}
				group = append(group, d.Seconds())
			}
			return nil
		})
		if err != nil {
			return t, err
		}
		for _, v := range group {
			t.scaled = append(t.scaled, v*speed)
			t.raw = append(t.raw, v)
		}
	}
	return t, nil
}

// settle lets the generator's garbage and the page cache's write-back
// from the previous step finish before boots are timed.
func settle() {
	runtime.GC()
	time.Sleep(100 * time.Millisecond)
}

// finite keeps a latency that landed on a failed request (+Inf) encodable
// as JSON: the largest float stands in for "missed every limit".
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func resetDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
