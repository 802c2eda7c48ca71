package main

import (
	"context"
	"encoding/json"
	"math"
	"sync/atomic"
	"time"

	"grammarviz/internal/worker"
)

// The host this benchmark was calibrated on is shared with other
// machines' work: the same closed loop runs at 650 items/s in one second
// and 1,050 the next, and its average drifts by a third within minutes.
// No amount of repetition inside one run removes drift that slow. So each
// open-loop segment, closed-loop block and group of boots runs between
// two probes of the host's speed, taken while gvad is idle, and the
// end-to-end times are reported in reference-host units: a time
// multiplied by the host's speed (mean probe rate ÷ referenceRate), a
// rate divided by it. On the reference host a run-level probe tracked
// serve-hot's capacity with correlation 0.94, and scaling halved the
// run-to-run spread of capacity, set-up and recovery times. Latencies
// are scaled only where that steadied them (workload.scaleLatency).
// The raw values and the host speed are kept in the result file.
//
// A probe measures work the benchmark binary does itself, so gvad code
// never changes it. Work gvad defers past its last response would run
// during a probe and read as a slower host, so each probe first waits
// probeSettle for such work to finish.

// referenceRate is the probe rate, in decodes per second on two
// goroutines, that defines host speed 1: about the median probe on the
// reference host.
const referenceRate = 3000

const (
	probeSettle  = 20 * time.Millisecond
	probeLength  = 40 * time.Millisecond
	probePoints  = 2000
	probeWorkers = 2 // gvad's GOMAXPROCS on the reference host
)

// hostClock converts measured times to reference-host units.
type hostClock struct {
	body   []byte  // the probe's input: a JSON array of probePoints floats
	last   float64 // the latest probe rate
	speeds []float64
}

func newHostClock() (*hostClock, error) {
	body, err := json.Marshal(noisySine(probePoints, 1))
	if err != nil {
		return nil, err
	}
	h := &hostClock{body: body}
	return h, h.refresh()
}

// probe decodes the probe input on probeWorkers goroutines for
// probeLength and returns the decodes per second.
func (h *hostClock) probe() (float64, error) {
	time.Sleep(probeSettle)
	var decodes atomic.Int64
	start := time.Now()
	g, _ := worker.WithContext(context.Background())
	for i := 0; i < probeWorkers; i++ {
		g.Go(func() error {
			var xs []float64
			for time.Since(start) < probeLength {
				if err := json.Unmarshal(h.body, &xs); err != nil {
					return err
				}
				decodes.Add(1)
			}
			return nil
		})
	}
	err := g.Wait()
	return float64(decodes.Load()) / time.Since(start).Seconds(), err
}

// refresh takes a new probe, so the next measured step starts from the
// host's current speed.
func (h *hostClock) refresh() error {
	var err error
	h.last, err = h.probe()
	return err
}

// scaled converts a measured time to reference-host units; a failed
// request (+Inf) stays infinite.
func scaled(v, speed float64) float64 {
	if math.IsInf(v, 0) {
		return v
	}
	return v * speed
}

// measure runs step between the previous probe and a new one and returns
// the host's speed over it relative to the reference host.
func (h *hostClock) measure(step func() error) (float64, error) {
	before := h.last
	if err := step(); err != nil {
		return 0, err
	}
	var err error
	if h.last, err = h.probe(); err != nil {
		return 0, err
	}
	speed := (before + h.last) / 2 / referenceRate
	h.speeds = append(h.speeds, speed)
	return speed, nil
}
