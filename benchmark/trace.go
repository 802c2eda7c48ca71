package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"grammarviz"
	"grammarviz/internal/budget"
	"grammarviz/internal/cache"
	"grammarviz/internal/core"
	"grammarviz/internal/density"
	"grammarviz/internal/discord"
	"grammarviz/internal/ensemble"
	"grammarviz/internal/grammar"
	"grammarviz/internal/memlog"
	"grammarviz/internal/modes"
	"grammarviz/internal/sax"
	"grammarviz/internal/sequitur"
	"grammarviz/internal/server"
	"grammarviz/internal/timeseries"
	"grammarviz/internal/workspace"
)

// The traced run replays a workload's first requests in-process, one at a
// time on one core, calling each layer's public functions in the order
// gvad does and recording a span around every call. gvad has no tracing
// of its own yet; this replay is what attributes the end-to-end numbers
// to layers. Every replayed response is checked against the library like
// the sampled responses of an untraced run.

// A serve-* replay covers traceItemsPerSecond analyzed series per second
// of --seconds (200 at 25); the stream replay covers every open-loop
// request.
const traceItemsPerSecond = 8

// layers are the repository modules spans are attributed to: a span
// named "sax.discretize" belongs to layer sax.
var layers = []string{"server", "budget", "cache", "sax", "sequitur", "grammar", "density", "discord", "ensemble", "stream", "memlog", "checkpoint"}

// perLayer are the traced run's metrics, per replayed item unless the
// name says otherwise. A layer's share is its self time over the replay's
// wall time, so a layer a workload never reaches reads 0 there; the
// absolute per-layer times are in trace.json.
var perLayer = append([]metricDef{
	{"trace.item_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"server.request_kib", "KiB"},
	{"server.response_kib", "KiB"},
	{"budget.wait_us", "us"},
	{"budget.shed", "count"},
	{"cache.hit_ratio", "ratio"},
	{"sax.words", "count"},
	{"sax.allocs", "allocs"},
	{"sequitur.rules", "count"},
	{"sequitur.allocs", "allocs"},
	{"grammar.allocs", "allocs"},
	{"discord.candidates", "count"},
	{"discord.dist_calls", "count"},
	{"discord.pruned", "count"},
	{"discord.prune_share", "ratio"},
	{"discord.allocs", "allocs"},
	{"ensemble.members_used", "count"},
	{"ensemble.fuse_share", "ratio"},
	{"stream.retained_points", "count"},
	{"stream.words", "count"},
	{"stream.rules", "count"},
	{"memlog.log_bytes", "bytes"},
	{"checkpoint.bytes", "bytes"},
}, shareMetrics()...)

func shareMetrics() []metricDef {
	out := make([]metricDef, len(layers))
	for i, l := range layers {
		out[i] = metricDef{l + ".share", "share"}
	}
	return out
}

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a request root
	Req    int    `json:"req"`    // replayed request
	Allocs uint64 `json:"allocs"` // heap objects allocated inside, children included
}

// tracer keeps spans in memory; trace.json gets them when the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int
	req    int
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sample: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"},
	}}
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64() + t.sample[1].Value.Uint64()
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	a := t.allocs()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: t.req, Allocs: a, Start: int64(time.Since(t.t0))})
}

// end closes the innermost open span.
func (t *tracer) end() {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	end := int64(time.Since(t.t0))
	s := &t.spans[id]
	s.End = end
	s.Allocs = t.allocs() - s.Allocs
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func() error) error {
	t.begin(name)
	defer t.end()
	return fn()
}

// counts are the exact work counts of a replay.
type counts struct {
	items                     int
	requestBytes, respBytes   int
	shed, hits, misses        int
	words, rules              int
	candidates, calls, pruned int64
	membersUsed               int
	induce, members           time.Duration // ensemble.Induce vs its members alone
	retained, streamWords     int
	streamRules               int
	logBytes, checkpointBytes int64
}

// replay is the traced in-process stand-in for one gvad.
type replay struct {
	t     *tracer
	n     counts
	adm   *budget.Controller
	ctx   context.Context
	items map[int]int // items per replayed request
}

func newReplay() *replay {
	return &replay{
		t: newTracer(),
		// gvad's default admission: GOMAXPROCS × the default slot cost.
		adm:   budget.New(budget.Config{Capacity: int64(runtime.NumCPU()) * budget.DefaultSlotCost, MaxQueue: 64}),
		ctx:   context.Background(),
		items: map[int]int{},
	}
}

// reset drops what priming recorded; caches and sessions stay warm.
func (r *replay) reset() {
	r.t = newTracer()
	r.n = counts{}
	r.items = map[int]int{}
}

// admit is the budget layer: gvad charges every request series length ×
// mode weight before running it.
func (r *replay) admit(tenant string, n int, weight int64) (func(), error) {
	var rel func()
	err := r.t.do("budget.acquire", func() error {
		var err error
		rel, err = r.adm.Acquire(r.ctx, tenant, budget.Cost(n, weight))
		if errors.Is(err, budget.ErrSaturated) {
			r.n.shed++
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return func() { _ = r.t.do("budget.release", func() error { rel(); return nil }) }, nil
}

// encode is gvad's writeJSON.
func (r *replay) encode(v any) ([]byte, error) {
	var b bytes.Buffer
	err := r.t.do("server.encode", func() error { return json.NewEncoder(&b).Encode(v) })
	r.n.respBytes += b.Len()
	return b.Bytes(), err
}

// ---- serve-* ----------------------------------------------------------------

// pipeline is what gvad's detector cache holds for a density or rra
// request: the products of discretize, induce, build and curve.
type pipeline struct {
	ts      []float64
	params  sax.Params
	rules   *grammar.RuleSet
	density []int
}

type serveReplay struct {
	*replay
	sc     *serveScenario
	cache  *cache.Sharded[*pipeline]
	ecache *cache.Sharded[*ensemble.Result]
	split  []*server.AnalyzeRequest // ensemble items whose members still need timing alone
}

// request replays one /v1/analyze or /v1/analyze/batch body and returns
// the response body gvad would write.
func (r *serveReplay) request(body []byte) ([]byte, error) {
	r.t.begin("request")
	out, err := r.serve(body)
	r.t.end()
	for _, req := range r.split {
		r.memberSplit(req)
	}
	r.split = r.split[:0]
	return out, err
}

func (r *serveReplay) serve(body []byte) ([]byte, error) {
	r.n.requestBytes += len(body)
	if r.sc.batch == 0 {
		var req server.AnalyzeRequest
		if err := r.t.do("server.decode", func() error { return json.Unmarshal(body, &req) }); err != nil {
			return nil, err
		}
		resp, err := r.serveOne(&req)
		if err != nil {
			return nil, err
		}
		return r.encode(resp)
	}
	var req server.BatchRequest
	if err := r.t.do("server.decode", func() error { return json.Unmarshal(body, &req) }); err != nil {
		return nil, err
	}
	out := server.BatchResponse{Results: make([]server.BatchItemResult, len(req.Requests))}
	for i := range req.Requests {
		resp, err := r.serveOne(&req.Requests[i])
		if err != nil {
			return nil, err
		}
		out.Results[i] = server.BatchItemResult{Index: i, Status: http.StatusOK, Response: resp}
		out.OK++
	}
	return r.encode(&out)
}

// serveOne is gvad's serveOne: admission, then the cached analysis.
func (r *serveReplay) serveOne(req *server.AnalyzeRequest) (*server.AnalyzeResponse, error) {
	r.n.items++
	r.items[r.t.req]++
	weight := modes.Weight(req.Mode)
	if req.Mode == modes.Ensemble {
		members := req.Members
		if members <= 0 {
			members = grammarviz.DefaultEnsembleMembers
		}
		weight = int64(members) * modes.Weight(modes.Density)
	}
	release, err := r.admit(req.Tenant, len(req.Series), weight)
	if err != nil {
		return nil, err
	}
	defer release()
	resp := &server.AnalyzeResponse{Mode: req.Mode, N: len(req.Series)}
	if req.Mode == modes.Ensemble {
		return resp, r.ensemble(req, resp)
	}
	resp.Window, resp.PAA, resp.Alphabet = req.Window, req.PAA, req.Alphabet
	opts := grammarviz.Options{Window: req.Window, PAA: req.PAA, Alphabet: req.Alphabet, Seed: req.Seed}
	var key string
	var p *pipeline
	_ = r.t.do("cache.fingerprint", func() error { key = grammarviz.Fingerprint(req.Series, opts); return nil })
	_ = r.t.do("cache.get", func() error { p, resp.CacheHit = r.cache.Get(key); return nil })
	if resp.CacheHit {
		r.n.hits++
	} else {
		r.n.misses++
		if p, err = r.induce(req.Series, sax.Params{Window: req.Window, PAA: req.PAA, Alphabet: req.Alphabet}); err != nil {
			return nil, err
		}
		_ = r.t.do("cache.add", func() error { r.cache.Add(key, p); return nil })
	}
	switch req.Mode {
	case modes.Density:
		resp.Algorithm = "density global minima"
		_ = r.t.do("density.minima", func() error { resp.Anomalies = globalMinima(p); return nil })
	case modes.RRA:
		resp.Algorithm = "RRA"
		var st *discord.Stats
		_ = r.t.do("discord.stats", func() error { st = discord.NewStats(p.ts); return nil })
		var res discord.Result
		if err := r.t.do("discord.rra", func() error {
			var err error
			res, err = discord.RRAParallelStatsCodedCtx(r.ctx, st, p.rules, req.K, req.Seed, req.Workers, p.params)
			return err
		}); err != nil {
			return nil, err
		}
		r.n.calls += res.DistCalls
		r.n.pruned += res.Pruned
		r.n.candidates += int64(len(discord.Candidates(p.rules)))
		resp.Discords = make([]grammarviz.Discord, len(res.Discords))
		for i, d := range res.Discords {
			resp.Discords[i] = grammarviz.Discord{
				Start: d.Interval.Start, End: d.Interval.End, Distance: d.Dist,
				NNStart: d.NNStart, RuleID: d.RuleID, Frequency: d.Freq,
			}
		}
		resp.DistanceCalls = res.DistCalls
	default:
		return nil, fmt.Errorf("no replay for mode %q", req.Mode)
	}
	return resp, nil
}

// prime fills the detector cache with every input, as gvad's set-up
// does, and forgets what that recorded.
func (r *serveReplay) prime() error {
	for i := range r.sc.inputs {
		req := &r.sc.inputs[i]
		p, err := r.induce(req.Series, sax.Params{Window: req.Window, PAA: req.PAA, Alphabet: req.Alphabet})
		if err != nil {
			return err
		}
		opts := grammarviz.Options{Window: req.Window, PAA: req.PAA, Alphabet: req.Alphabet, Seed: req.Seed}
		r.cache.Add(grammarviz.Fingerprint(req.Series, opts), p)
	}
	r.reset()
	return nil
}

// induce is core.AnalyzeCtx taken apart: discretize, induce on the pooled
// workspace inducer, map the rules, and build the density curve.
func (r *serveReplay) induce(ts []float64, params sax.Params) (*pipeline, error) {
	ws := workspace.Get()
	defer workspace.Put(ws)
	var d *sax.Discretization
	if err := r.t.do("sax.discretize", func() error {
		if err := timeseries.ValidateFinite(ts); err != nil {
			return err
		}
		var err error
		d, err = sax.DiscretizeCtx(r.ctx, ts, params, sax.ReductionExact, 0)
		return err
	}); err != nil {
		return nil, err
	}
	r.n.words += len(d.Words)
	var g *sequitur.Grammar
	_ = r.t.do("sequitur.induce", func() error {
		in := ws.Inducer
		if d.Coded {
			in.ResetCodes(sax.NewWordCodec(params.PAA, params.Alphabet).Decode)
			for i := range d.Words {
				in.AppendCode(d.Words[i].Code)
			}
		} else {
			in.ResetStrings()
			for i := range d.Words {
				in.Append(d.Words[i].Str)
			}
		}
		g = in.Grammar()
		return nil
	})
	r.n.rules += g.NumRules()
	p := &pipeline{ts: ts, params: params}
	if err := r.t.do("grammar.build", func() error {
		var err error
		p.rules, err = grammar.Build(d, g)
		return err
	}); err != nil {
		return nil, err
	}
	_ = r.t.do("density.curve", func() error {
		p.density = density.CurveWith(p.rules, ws.DiffScratch(p.rules.SeriesLen+1))
		return nil
	})
	return p, nil
}

// globalMinima is Detector.GlobalMinima on the replay's pipeline.
func globalMinima(p *pipeline) []grammarviz.Anomaly {
	minima := density.GlobalMinimaMargin(p.density, p.params.Window-1)
	out := make([]grammarviz.Anomaly, len(minima))
	for i, iv := range minima {
		v := p.density[iv.Start]
		out[i] = grammarviz.Anomaly{Start: iv.Start, End: iv.End, MeanDensity: float64(v), MinDensity: v}
	}
	return out
}

// ensemble replays ensemble mode: its own fingerprint and cache, then
// ensemble.Induce.
func (r *serveReplay) ensemble(req *server.AnalyzeRequest, resp *server.AnalyzeResponse) error {
	opts := grammarviz.EnsembleOptions{Members: req.Members, Seed: req.Seed}
	var key string
	var res *ensemble.Result
	_ = r.t.do("cache.fingerprint", func() error { key = grammarviz.EnsembleFingerprint(req.Series, opts); return nil })
	_ = r.t.do("cache.get", func() error { res, resp.CacheHit = r.ecache.Get(key); return nil })
	if resp.CacheHit {
		r.n.hits++
	} else {
		r.n.misses++
		start := time.Now()
		if err := r.t.do("ensemble.induce", func() error {
			var err error
			res, err = ensemble.Induce(r.ctx, req.Series, ensemble.Config{Members: req.Members, Seed: req.Seed, Workers: req.Workers})
			return err
		}); err != nil {
			return err
		}
		if r.n.misses%splitEvery == 1 {
			r.n.induce += time.Since(start)
			r.split = append(r.split, req)
		}
		r.n.membersUsed += res.Used
		_ = r.t.do("cache.add", func() error { r.ecache.Add(key, res); return nil })
	}
	resp.Algorithm = "ensemble density"
	resp.Ensemble = &grammarviz.EnsembleResult{Score: res.Score, Agreement: res.Agreement, Used: res.Used}
	for _, m := range res.Members {
		resp.Ensemble.Members = append(resp.Ensemble.Members, grammarviz.EnsembleMember{
			Window: m.Params.Window, PAA: m.Params.PAA, Alphabet: m.Params.Alphabet, Used: m.Used,
		})
	}
	_ = r.t.do("ensemble.minima", func() error {
		for _, iv := range res.Minima(0.3) {
			resp.EnsembleAnomalies = append(resp.EnsembleAnomalies, grammarviz.Interval{Start: iv.Start, End: iv.End})
		}
		return nil
	})
	return nil
}

// splitEvery: one in this many ensemble inductions is split into its
// members, enough for a stable ratio at a quarter of the cost.
const splitEvery = 4

// memberSplit induces each sampled member of req alone, off the request's
// clock, so ensemble.fuse_share can split member induction from fusion.
func (r *serveReplay) memberSplit(req *server.AnalyzeRequest) {
	members := req.Members
	if members <= 0 {
		members = ensemble.DefaultMembers
	}
	start := time.Now()
	for _, p := range ensemble.Sample(len(req.Series), members, req.Seed) {
		if p.Validate(len(req.Series)) == nil {
			// A member that fails costs Induce the same time; its error is Induce's business.
			_, _ = core.AnalyzeCtx(r.ctx, req.Series, core.Config{Params: p})
		}
	}
	r.n.members += time.Since(start)
}

// ---- stream-durable ------------------------------------------------------------

type streamReplay struct {
	*replay
	sc       *streamScenario
	dir      string
	sessions map[*streamSession]*replaySession
}

type replaySession struct {
	stream *grammarviz.Stream
	log    *memlog.Log
	dir    string
}

func (r *streamReplay) open() error {
	r.sessions = map[*streamSession]*replaySession{}
	for _, ss := range r.sc.sessions {
		p := ss.dataset.Params
		st, err := grammarviz.NewStream(grammarviz.Options{Window: p.Window, PAA: p.PAA, Alphabet: p.Alphabet})
		if err != nil {
			return err
		}
		dir := filepath.Join(r.dir, fmt.Sprint(ss.index))
		log, _, err := memlog.Open(dir, memlog.Options{Policy: memlog.SyncAlways})
		if err != nil {
			return err
		}
		r.sessions[ss] = &replaySession{stream: st, log: log, dir: dir}
	}
	return nil
}

// request replays one append or anomalies read as gvad's session
// handlers run it.
func (r *streamReplay) request(o *op) ([]byte, error) {
	r.t.begin("request")
	defer r.t.end()
	r.n.items++
	r.items[r.t.req]++
	rs := r.sessions[o.stream]
	if o.method == http.MethodGet {
		resp := server.StreamAnomaliesResponse{Len: rs.stream.Len()}
		if err := r.t.do("stream.snapshot", func() error {
			var err error
			if resp.Density, err = rs.stream.RuleDensity(); err != nil {
				return err
			}
			resp.Anomalies, err = rs.stream.Anomalies()
			return err
		}); err != nil {
			return nil, err
		}
		return r.encode(resp)
	}
	r.n.requestBytes += len(o.body)
	var req server.StreamAppendRequest
	if err := r.t.do("server.decode", func() error { return json.Unmarshal(o.body, &req) }); err != nil {
		return nil, err
	}
	release, err := r.admit(fmt.Sprintf("s%02d", o.stream.index), len(req.Points), modes.Weight(modes.Stream))
	if err != nil {
		return nil, err
	}
	defer release()
	if err := r.t.do("server.validate", func() error {
		if req.Offset == nil || *req.Offset != rs.stream.Len() {
			return fmt.Errorf("offset does not match session length %d", rs.stream.Len())
		}
		for i, v := range req.Points {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("point %d is %v", i, v)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	record := encodePoints(req.Points)
	if err := r.t.do("memlog.append", func() error { return rs.log.Append(record) }); err != nil {
		return nil, err
	}
	r.n.logBytes += int64(len(record))
	resp := &server.StreamAppendResponse{}
	if err := r.t.do("stream.append", func() error {
		for _, v := range req.Points {
			ev, ok, err := rs.stream.Append(v)
			if err != nil {
				return err
			}
			if ok {
				resp.Events = append(resp.Events, server.StreamEventJSON{Offset: ev.Offset, Word: ev.Word, Novelty: ev.Novelty})
				resp.LastScore = ev.Novelty
				resp.MaxScore = math.Max(resp.MaxScore, ev.Novelty)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	resp.Len = rs.stream.Len()
	if rs.log.ShouldCompact() {
		var frame []byte
		if err := r.t.do("checkpoint.encode", func() error {
			var err error
			frame, err = rs.stream.Checkpoint()
			return err
		}); err != nil {
			return nil, err
		}
		if err := r.t.do("memlog.snapshot", func() error { return rs.log.SaveSnapshot(frame) }); err != nil {
			return nil, err
		}
		r.n.checkpointBytes += int64(len(frame))
		resp.Checkpoint = true
	}
	return r.encode(resp)
}

// recover closes every session log and restores each session from disk
// the way gvad boots: open the log, restore the snapshot, replay the
// records after it. It returns the restored streams.
func (r *streamReplay) recover() (map[*streamSession]*grammarviz.Stream, error) {
	out := map[*streamSession]*grammarviz.Stream{}
	for _, rs := range r.sessions {
		mem := rs.stream.MemStats()
		r.n.retained += mem.Points
		r.n.streamWords += mem.Words
		r.n.streamRules += mem.Rules
		if err := rs.log.Close(); err != nil {
			return nil, err
		}
	}
	r.t.req = -1
	r.t.begin("recover")
	defer r.t.end()
	for ss, rs := range r.sessions {
		var rec *memlog.Recovered
		var log *memlog.Log
		if err := r.t.do("memlog.open", func() error {
			var err error
			log, rec, err = memlog.Open(rs.dir, memlog.Options{Policy: memlog.SyncAlways})
			return err
		}); err != nil {
			return nil, err
		}
		var st *grammarviz.Stream
		p := ss.dataset.Params
		if err := r.t.do("checkpoint.restore", func() error {
			var err error
			if rec.Snapshot != nil {
				st, err = grammarviz.RestoreStream(rec.Snapshot)
			} else {
				st, err = grammarviz.NewStream(grammarviz.Options{Window: p.Window, PAA: p.PAA, Alphabet: p.Alphabet})
			}
			return err
		}); err != nil {
			return nil, err
		}
		if err := r.t.do("stream.replay", func() error {
			for _, chunk := range rec.Records {
				for i := 0; i+8 <= len(chunk); i += 8 {
					bits := uint64(chunk[i]) | uint64(chunk[i+1])<<8 | uint64(chunk[i+2])<<16 | uint64(chunk[i+3])<<24 |
						uint64(chunk[i+4])<<32 | uint64(chunk[i+5])<<40 | uint64(chunk[i+6])<<48 | uint64(chunk[i+7])<<56
					if _, _, err := st.Append(math.Float64frombits(bits)); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		_ = log.Close() // only read
		out[ss] = st
	}
	return out, nil
}

// encodePoints is gvad's WAL record for a chunk: little-endian IEEE 754
// bits.
func encodePoints(points []float64) []byte {
	buf := make([]byte, 0, 8*len(points))
	for _, v := range points {
		bits := math.Float64bits(v)
		buf = append(buf, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
			byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
	}
	return buf
}

// ---- the run ----------------------------------------------------------------

// traceDump is one workload's part of trace.json.
type traceDump struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Items    int              `json:"items"`
	Layers   map[string]layer `json:"layers"`
	Spans    []span           `json:"spans"`
}

// layer is one layer's absolute totals over a replay.
type layer struct {
	SelfMS float64 `json:"self_ms"`
	Calls  int     `json:"calls"`
	Allocs uint64  `json:"allocs"`
}

// runTrace replays each workload with tracing and writes trace.json.
func runTrace(cfg *config, list []*workload) ([]*result, error) {
	// One core: spans never overlap, and worker-count-dependent counts
	// (RRA distance calls) are exact.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var results []*result
	var dumps []traceDump
	for _, w := range list {
		res, dump, err := traceWorkload(cfg, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		results = append(results, res)
		dumps = append(dumps, *dump)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	b, err := json.Marshal(map[string]any{"workloads": dumps})
	if err != nil {
		return nil, err
	}
	return results, os.WriteFile(filepath.Join(cfg.out, "trace.json"), b, 0o644)
}

func traceWorkload(cfg *config, w *workload) (*result, *traceDump, error) {
	sc, err := w.build(cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	res := newResult(cfg, w.name)
	var r *replay
	switch s := sc.(type) {
	case *serveScenario:
		sr := &serveReplay{
			replay: newReplay(), sc: s,
			cache:  cache.NewSharded[*pipeline](64, 8),
			ecache: cache.NewSharded[*ensemble.Result](64, 8),
		}
		if s.primeAll {
			if err := sr.prime(); err != nil {
				return nil, nil, err
			}
		}
		for i, o := range s.ops(max(1, traceItemsPerSecond*cfg.seconds/max(1, s.batch)), true) {
			sr.t.req = i
			body, err := sr.request(o.body)
			if err == nil {
				if err = s.check(o, body); err == nil {
					err = s.verify(o, body)
				}
			}
			res.Attempted++
			if err != nil {
				res.fail(err)
			}
		}
		r = sr.replay
	case *streamScenario:
		dir := filepath.Join(cfg.work, w.name+"-trace")
		if err := resetDir(dir); err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		sr := &streamReplay{replay: newReplay(), sc: s, dir: dir}
		if err := sr.open(); err != nil {
			return nil, nil, err
		}
		for i, o := range s.ops(int(w.rate*float64(cfg.seconds)*w.open), true) {
			sr.t.req = i
			body, err := sr.request(o)
			if err == nil {
				err = s.check(o, body)
			}
			res.Attempted++
			if err != nil {
				res.fail(err)
			}
		}
		restored, err := sr.recover()
		if err != nil {
			return nil, nil, err
		}
		for ss, st := range restored {
			res.Attempted++
			if err := sameStream(s, ss, st); err != nil {
				res.fail(fmt.Errorf("session %d restored: %w", ss.index, err))
			}
		}
		r = sr.replay
	}
	dump := r.summarize(res)
	dump.Workload, dump.Seed = w.name, cfg.seed
	res.Correct = res.Failed == 0
	return res, dump, nil
}

// sameStream checks a restored stream against the library's
// never-crashed state for the same points.
func sameStream(s *streamScenario, ss *streamSession, st *grammarviz.Stream) error {
	want, err := s.libraryState(ss)
	if err != nil {
		return err
	}
	mem := st.MemStats()
	if st.Len() != want.len || mem.Words != want.words || mem.Rules != want.rules {
		return fmt.Errorf("len/words/rules %d/%d/%d, library %d/%d/%d", st.Len(), mem.Words, mem.Rules, want.len, want.words, want.rules)
	}
	dens, err := st.RuleDensity()
	if err != nil {
		return err
	}
	got, err := json.Marshal(dens)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want.density) {
		return errors.New("density curve differs")
	}
	return nil
}

// summarize turns the spans and counts into the per-layer metrics.
func (r *replay) summarize(res *result) *traceDump {
	spans := r.t.spans
	child := make([]int64, len(spans))
	childAllocs := make([]uint64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
			childAllocs[s.Parent] += s.Allocs
		}
	}
	totals := map[string]layer{}
	perReq := map[int]map[string]int64{} // request → span name → ns
	var wall, covered int64
	for i, s := range spans {
		dur := s.End - s.Start
		if s.Parent < 0 {
			wall += dur
			continue
		}
		name, _, _ := strings.Cut(s.Name, ".")
		self := dur - child[i]
		covered += self
		l := totals[name]
		l.SelfMS += float64(self) / 1e6
		l.Calls++
		l.Allocs += s.Allocs - childAllocs[i]
		totals[name] = l
		if perReq[s.Req] == nil {
			perReq[s.Req] = map[string]int64{}
		}
		perReq[s.Req][s.Name] += dur
	}
	items := float64(max(r.n.items, 1))
	perItem := func(name string) float64 { // median over requests, per item, in µs
		var xs []float64
		for req, n := range r.items {
			xs = append(xs, float64(perReq[req][name])/float64(n)/1e3)
		}
		return median(xs)
	}
	var itemMS []float64
	for _, s := range spans {
		if s.Parent < 0 && s.Req >= 0 {
			itemMS = append(itemMS, float64(s.End-s.Start)/float64(max(r.items[s.Req], 1))/1e6)
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	set := func(name string, v float64) {
		for _, m := range perLayer {
			if m.name == name {
				res.set(name, m.unit, v)
				return
			}
		}
		panic("undeclared per-layer metric " + name)
	}
	set("trace.item_ms", median(itemMS))
	set("trace.coverage", ratio(float64(covered), float64(wall)))
	set("server.decode_us", perItem("server.decode"))
	set("server.encode_us", perItem("server.encode"))
	set("server.request_kib", float64(r.n.requestBytes)/items/1024)
	set("server.response_kib", float64(r.n.respBytes)/items/1024)
	set("budget.wait_us", perItem("budget.acquire"))
	set("budget.shed", float64(r.n.shed))
	set("cache.hit_ratio", ratio(float64(r.n.hits), float64(r.n.hits+r.n.misses)))
	set("sax.words", float64(r.n.words)/items)
	set("sax.allocs", float64(totals["sax"].Allocs)/items)
	set("sequitur.rules", float64(r.n.rules)/items)
	set("sequitur.allocs", float64(totals["sequitur"].Allocs)/items)
	set("grammar.allocs", float64(totals["grammar"].Allocs)/items)
	set("discord.candidates", float64(r.n.candidates)/items)
	set("discord.dist_calls", float64(r.n.calls)/items)
	set("discord.pruned", float64(r.n.pruned)/items)
	set("discord.prune_share", ratio(float64(r.n.pruned), float64(r.n.calls+r.n.pruned)))
	set("discord.allocs", float64(totals["discord"].Allocs)/items)
	set("ensemble.members_used", float64(r.n.membersUsed)/items)
	set("ensemble.fuse_share", ratio(math.Max(0, float64(r.n.induce-r.n.members)), float64(r.n.induce)))
	set("stream.retained_points", float64(r.n.retained))
	set("stream.words", float64(r.n.streamWords))
	set("stream.rules", float64(r.n.streamRules))
	set("memlog.log_bytes", float64(r.n.logBytes)/items)
	set("checkpoint.bytes", float64(r.n.checkpointBytes))
	for _, l := range layers {
		set(l+".share", ratio(totals[l].SelfMS*1e6, float64(wall)))
	}
	return &traceDump{Items: r.n.items, Layers: totals, Spans: spans}
}
