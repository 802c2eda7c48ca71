package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"

	"grammarviz"
	"grammarviz/internal/datasets"
	"grammarviz/internal/modes"
	"grammarviz/internal/server"
)

// workload is one traffic mix. The rates and closed-loop sizes were
// measured once on the reference host (see README.md) and are frozen
// here, so every commit is offered the same load.
type workload struct {
	name string
	why  string
	// rate is the open-loop request rate: for serve-* about a third of the
	// seed capacity, for stream-durable the data's own arrival rate.
	rate float64
	// scaleLatency reports the open-loop latencies in reference-host units
	// (probe.go). It is set where scaling steadied them on the reference
	// host; serve-ensemble-batch's and stream-durable's did not follow the
	// probe (scaling raised their spread) and are reported as measured.
	scaleLatency bool
	// closedPerSecond is the closed-loop request count per second of
	// --seconds: fixed work sized to the rest of the run at the seed
	// capacity, so a faster commit finishes it sooner instead of doing
	// more of it.
	closedPerSecond float64
	// warm and open are the warm-up and open-loop lengths as shares of
	// --seconds; warm 0 skips the warm-up.
	warm, open float64
	// tail is the latency_tail_ms percentile: the highest of p99, p98,
	// p95 and p90 that leaves ten open-loop samples beyond it at the seed
	// rate and the benchmark's --seconds, stepped down to the highest that
	// repeats within the metric's bound where that is lower (serve-hot and
	// stream-durable; see README.md).
	tail  float64
	build func(seed int64) (scenario, error)
}

var workloads = []*workload{
	{
		name:            "serve-hot",
		why:             "cache-hit path: HTTP, JSON decode/encode, fingerprint and cache; induction and discord search get little work",
		rate:            300,
		scaleLatency:    true,
		closedPerSecond: 380,
		warm:            0.1,
		open:            0.35,
		tail:            0.95,
		build:           newHotScenario,
	},
	{
		name:            "serve-cold-rra",
		why:             "the paper's pipeline with the cache taken out: SAX, Sequitur, grammar build, RRA and the distance kernel",
		rate:            32,
		scaleLatency:    true,
		closedPerSecond: 22.4,
		warm:            0.1,
		open:            0.5,
		tail:            0.95,
		build:           newColdRRAScenario,
	},
	{
		name:            "serve-ensemble-batch",
		why:             "induction-heavy and distance-free: 20 SAX+Sequitur inductions per item, batch fan-out, large JSON responses",
		rate:            6,
		closedPerSecond: 2.56,
		open:            0.75,
		tail:            0.90,
		build:           newEnsembleScenario,
	},
	{
		name:            "stream-durable",
		why:             "the write path: WAL append with fsync always, incremental encode and Sequitur per point, snapshot reads, restart recovery",
		rate:            streamRate,
		closedPerSecond: 1120,
		open:            0.5,
		tail:            0.95,
		build:           newStreamScenario,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scenario is one workload's traffic and its correctness checks.
type scenario interface {
	// prime sends the workload's set-up traffic to a fresh gvad; its time
	// counts in setup_s.
	prime(c *client) error
	// ops returns the next n requests of the traffic. reads adds the
	// periodic snapshot reads of the open loop (stream-durable only).
	ops(n int, reads bool) []*op
	// check validates one 200 response cheaply, on the measured path.
	check(o *op, body []byte) error
	// verify recomputes a sampled response with the library, off the
	// clock, and compares the result fields byte for byte.
	verify(o *op, body []byte) error
	// finish compares the end state gvad reports with the library's and
	// returns the requests it sent and the mismatches it found.
	finish(c *client) (attempted int, failures []error)
}

// ---- serve-* workloads ----------------------------------------------------

// serveScenario sends POST /v1/analyze (or batches of them) drawn from a
// fixed set of distinct inputs.
type serveScenario struct {
	inputs   []server.AnalyzeRequest
	bodies   [][]byte   // marshaled inputs, made on first use
	next     func() int // the next input of the traffic
	batch    int        // items per /v1/analyze/batch request; 0 sends /v1/analyze
	primeAll bool       // set-up sends every distinct input once

	expect map[int]*fields // oracle results, memoized per input
}

func (s *serveScenario) add(req server.AnalyzeRequest) {
	s.inputs = append(s.inputs, req)
	s.bodies = append(s.bodies, nil)
}

// body returns input ref as a request body.
func (s *serveScenario) body(ref int) []byte {
	if s.bodies[ref] == nil {
		b, err := json.Marshal(&s.inputs[ref])
		if err != nil {
			panic(err) // finite floats, ints and strings always marshal
		}
		s.bodies[ref] = b
	}
	return s.bodies[ref]
}

func (s *serveScenario) single(ref int) *op {
	return &op{method: http.MethodPost, path: "/v1/analyze", body: s.body(ref), items: 1, refs: []int{ref}}
}

func (s *serveScenario) prime(c *client) error {
	if !s.primeAll {
		return nil
	}
	ops := make([]*op, len(s.inputs))
	for i := range ops {
		ops[i] = s.single(i)
	}
	if p := c.closedLoop(ops); len(p.failures) > 0 {
		return fmt.Errorf("priming: %w", p.failures[0])
	}
	return nil
}

func (s *serveScenario) ops(n int, _ bool) []*op {
	out := make([]*op, n)
	for i := range out {
		if s.batch == 0 {
			out[i] = s.single(s.next())
			continue
		}
		o := &op{method: http.MethodPost, path: "/v1/analyze/batch", items: s.batch, refs: make([]int, s.batch)}
		var b bytes.Buffer
		b.WriteString(`{"requests":[`)
		for j := range o.refs {
			o.refs[j] = s.next()
			if j > 0 {
				b.WriteByte(',')
			}
			b.Write(s.body(o.refs[j]))
		}
		b.WriteString(`]}`)
		o.body = b.Bytes()
		out[i] = o
	}
	return out
}

func (s *serveScenario) check(o *op, body []byte) error {
	if s.batch == 0 {
		var r struct{ Partial, Fallback bool }
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		if r.Partial || r.Fallback {
			return errors.New("degraded (partial or fallback) answer")
		}
		return nil
	}
	var r struct{ OK, Failed int }
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode batch response: %w", err)
	}
	if r.OK != len(o.refs) || r.Failed != 0 {
		return fmt.Errorf("batch answered %d ok and %d failed of %d items", r.OK, r.Failed, len(o.refs))
	}
	return nil
}

// fields are the result fields of an analyze response, kept as the exact
// bytes gvad wrote.
type fields struct {
	Discords          json.RawMessage `json:"discords"`
	Anomalies         json.RawMessage `json:"anomalies"`
	Ensemble          json.RawMessage `json:"ensemble"`
	EnsembleAnomalies json.RawMessage `json:"ensemble_anomalies"`
}

func (s *serveScenario) verify(o *op, body []byte) error {
	var got []*fields
	if s.batch == 0 {
		var f fields
		if err := json.Unmarshal(body, &f); err != nil {
			return err
		}
		got = append(got, &f)
	} else {
		var r struct{ Results []struct{ Response *fields } }
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		for _, item := range r.Results {
			got = append(got, item.Response)
		}
	}
	if len(got) != len(o.refs) {
		return fmt.Errorf("%d results for %d items", len(got), len(o.refs))
	}
	for i, ref := range o.refs {
		want, err := s.expected(ref)
		if err != nil {
			return err
		}
		if err := want.match(got[i]); err != nil {
			return fmt.Errorf("input %d (%s): %w", ref, s.inputs[ref].Tenant, err)
		}
	}
	return nil
}

func (s *serveScenario) finish(*client) (int, []error) { return 0, nil }

// expected returns the library's answer for input ref.
func (s *serveScenario) expected(ref int) (*fields, error) {
	if f, ok := s.expect[ref]; ok {
		return f, nil
	}
	f, err := libraryFields(&s.inputs[ref])
	if err != nil {
		return nil, fmt.Errorf("library on input %d: %w", ref, err)
	}
	if s.expect == nil {
		s.expect = map[int]*fields{}
	}
	s.expect[ref] = f
	return f, nil
}

// libraryFields recomputes what gvad should answer for req with the
// public library: New + DiscordsCtx for rra, GlobalMinima for density,
// EnsembleDensityCtx for ensemble.
func libraryFields(req *server.AnalyzeRequest) (*fields, error) {
	ctx := context.Background()
	opts := grammarviz.Options{Window: req.Window, PAA: req.PAA, Alphabet: req.Alphabet, Seed: req.Seed}
	var f fields
	var err error
	switch req.Mode {
	case modes.Density:
		det, derr := grammarviz.New(req.Series, opts)
		if derr != nil {
			return nil, derr
		}
		f.Anomalies, err = json.Marshal(det.GlobalMinima())
	case modes.RRA:
		det, derr := grammarviz.New(req.Series, opts)
		if derr != nil {
			return nil, derr
		}
		res, derr := det.DiscordsCtx(ctx, req.K)
		if derr != nil {
			return nil, derr
		}
		f.Discords, err = json.Marshal(res.Discords)
	case modes.Ensemble:
		res, derr := grammarviz.EnsembleDensityCtx(ctx, req.Series, grammarviz.EnsembleOptions{Members: req.Members, Seed: req.Seed})
		if derr != nil {
			return nil, derr
		}
		if f.Ensemble, err = json.Marshal(res); err == nil {
			f.EnsembleAnomalies, err = json.Marshal(res.Anomalies(0.3))
		}
	default:
		return nil, fmt.Errorf("no oracle for mode %q", req.Mode)
	}
	return &f, err
}

// match compares got with the library's fields byte for byte. An empty
// list and an omitted field are the same answer.
func (want *fields) match(got *fields) error {
	if got == nil {
		return errors.New("item has no response")
	}
	pairs := []struct {
		name      string
		want, got json.RawMessage
	}{
		{"discords", want.Discords, got.Discords},
		{"anomalies", want.Anomalies, got.Anomalies},
		{"ensemble", want.Ensemble, got.Ensemble},
		{"ensemble_anomalies", want.EnsembleAnomalies, got.EnsembleAnomalies},
	}
	for _, p := range pairs {
		if !bytes.Equal(canonicalEmpty(p.want), canonicalEmpty(p.got)) {
			return fmt.Errorf("%s differ: gvad %s, library %s", p.name, truncate(p.got), truncate(p.want))
		}
	}
	return nil
}

func canonicalEmpty(b json.RawMessage) json.RawMessage {
	if len(b) == 0 || string(b) == "[]" {
		return json.RawMessage("null")
	}
	return b
}

// newHotScenario: density queries from 16 tenants with zipf(1.2) skew.
// Each tenant has one canonical 4,000-point series and 8 unique ones from
// the noisy-sine-with-burst family gvload uses; 90% of requests repeat
// the canonical series, so most answers come from the detector cache.
func newHotScenario(seed int64) (scenario, error) {
	const tenants, uniques, n = 16, 8, 4000
	s := &serveScenario{primeAll: true}
	for t := 0; t < tenants; t++ {
		for v := 0; v <= uniques; v++ {
			s.add(server.AnalyzeRequest{
				Series: noisySine(n, mix(seed, int64(t), int64(v))),
				Mode:   modes.Density, Tenant: fmt.Sprintf("t%02d", t),
				Window: 60, PAA: 4, Alphabet: 4,
			})
		}
	}
	rng := rand.New(rand.NewSource(mix(seed, -1)))
	zipf := rand.NewZipf(rng, 1.2, 1, tenants-1)
	s.next = func() int {
		v := 0
		if rng.Float64() >= 0.9 {
			v = 1 + rng.Intn(uniques)
		}
		return int(zipf.Uint64())*(uniques+1) + v
	}
	return s, nil
}

// newColdRRAScenario: RRA with k=3 over all 14 registry datasets × 8
// seeded noise variants at their registry parameters, sent in rounds of
// one variant per dataset. With 112 inputs cycling through gvad's default
// 64-entry cache, requests miss (the traced hit ratio is below 0.02).
func newColdRRAScenario(seed int64) (scenario, error) {
	s := &serveScenario{}
	if err := addRegistry(s, seed, datasets.Names(), 8, func(d *datasets.Dataset) server.AnalyzeRequest {
		return server.AnalyzeRequest{
			Mode: modes.RRA, K: 3,
			Window: d.Params.Window, PAA: d.Params.PAA, Alphabet: d.Params.Alphabet,
		}
	}); err != nil {
		return nil, err
	}
	s.next = rounds(len(datasets.Names()), 8, rand.New(rand.NewSource(mix(seed, -1))))
	return s, nil
}

// newEnsembleScenario: batches of 4 ensemble items (20 members, sampler
// seed 1) over 4 registry datasets of at most 5,400 points × 32 noise
// variants. A batch is one round: one variant of each dataset. The 128
// inputs cycle through the cache, so every item misses.
func newEnsembleScenario(seed int64) (scenario, error) {
	s := &serveScenario{batch: 4}
	names := []string{"ecg0606", "ecg308", "tek16", "respiration-nprs43"}
	if err := addRegistry(s, seed, names, 32, func(*datasets.Dataset) server.AnalyzeRequest {
		return server.AnalyzeRequest{Mode: modes.Ensemble, Seed: 1}
	}); err != nil {
		return nil, err
	}
	s.next = rounds(len(names), 32, rand.New(rand.NewSource(mix(seed, -1))))
	return s, nil
}

// addRegistry adds variants noisy copies of each named registry dataset,
// shaped into requests by shape.
func addRegistry(s *serveScenario, seed int64, names []string, variants int, shape func(*datasets.Dataset) server.AnalyzeRequest) error {
	for di, name := range names {
		d, err := datasets.Generate(name)
		if err != nil {
			return err
		}
		for v := 0; v < variants; v++ {
			req := shape(d)
			req.Tenant = name
			req.Series = withNoise(d.Series, mix(seed, int64(di), int64(v)))
			s.add(req)
		}
	}
	return nil
}

// rounds sequences groups × variants inputs (input g*variants+v) in
// rounds: every round sends one variant of each group, in group order, and
// each group walks its variants in a seeded order. Every seed thus offers
// the same mix of small and large series in the same order (a seeded
// order moved serve-cold-rra's p50 by 25% between seeds), and an input
// comes back only after all the others, so the cache almost never holds
// it.
func rounds(groups, variants int, rng *rand.Rand) func() int {
	order := make([][]int, groups)
	for g := range order {
		order[g] = rng.Perm(variants)
	}
	i := 0
	return func() int {
		g, r := i%groups, i/groups
		i++
		return g*variants + order[g][r%variants]
	}
}

// ---- inputs ----------------------------------------------------------------

// mix derives an independent seed from seed and parts (splitmix64 over a
// running combination), so every generated series has its own stream.
func mix(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x = (x ^ uint64(p)) + 0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x)
}

// noisySine is a noisy sine with a planted frequency burst — the series
// family gvload and BENCH_3 use.
func noisySine(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	period := 40 + rng.Float64()*20
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = math.Sin(2*math.Pi*float64(i)/period) + rng.NormFloat64()*0.05
	}
	at, length := n/3+rng.Intn(n/3), n/50+4
	for i := at; i < at+length && i < n; i++ {
		ts[i] = math.Sin(4*math.Pi*float64(i)/period) + rng.NormFloat64()*0.05
	}
	return ts
}

// withNoise returns a copy of base with Gaussian noise of 1% of base's
// standard deviation added.
func withNoise(base []float64, seed int64) []float64 {
	var sum, sq float64
	for _, v := range base {
		sum += v
		sq += v * v
	}
	mean := sum / float64(len(base))
	std := math.Sqrt(math.Max(sq/float64(len(base))-mean*mean, 0))
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v + rng.NormFloat64()*0.01*std
	}
	return out
}
