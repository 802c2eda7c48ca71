package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"grammarviz/internal/worker"
)

// conns is the number of HTTP connections the generator may hold open:
// the load comes from one process standing in for two busy clients, not
// a crowd.
const conns = 2

// sampleEvery selects which successful responses the oracle recomputes:
// every 16th op of a phase.
const sampleEvery = 16

// op is one HTTP request of a workload's traffic. Ops are generated
// before the phase that sends them, so building bodies is never timed.
type op struct {
	method string
	path   string
	token  string // X-Resume-Token for stream sessions
	body   []byte
	items  int   // analyzed series or acknowledged points on success
	refs   []int // oracle inputs of analyze/batch items, in request order

	// stream is the session a stream op addresses; an append carries its
	// chunk's position seq.
	stream *streamSession
	seq    int
}

// outcome is what one sent op produced.
type outcome struct {
	latency float64 // ms from due time (open loop) or send time (closed loop); +Inf on failure
	late    float64 // ms the generator woke after the due time; NaN when backlogged
	err     error
	body    []byte // kept only for ops the oracle samples
}

// client is the generator's HTTP side: one shared transport capped at
// conns connections to gvad.
type client struct {
	http *http.Client
	base string
	sc   scenario
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// do sends one request and returns its status and body.
func (c *client) do(method, path, token string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if token != "" {
		req.Header.Set("X-Resume-Token", token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// send performs o and applies the workload's cheap response check.
func (c *client) send(o *op) (body []byte, err error) {
	if o.stream != nil && o.method == http.MethodPost {
		o.stream.awaitTurn(o.seq)
		defer o.stream.answered()
	}
	status, body, err := c.do(o.method, o.path, o.token, o.body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", o.method, o.path, status, truncate(body))
	}
	return body, c.sc.check(o, body)
}

// phase is the record of one loop over a list of ops.
type phase struct {
	ops      []*op
	out      []outcome
	wall     time.Duration
	items    int
	failures []error
}

// openLoop sends ops[i] at start + i/rate seconds on up to conns
// connections. Each latency is timed from the op's due time, so a stall
// delays every later request on the schedule and shows in their
// latencies instead of silently lowering the offered load.
func (c *client) openLoop(ops []*op, rate float64) *phase {
	p := &phase{ops: ops, out: make([]outcome, len(ops))}
	start := time.Now()
	c.run(p, func(i int) time.Time {
		return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	})
	return p
}

// closedLoop sends ops back to back on conns connections: fixed work
// whose wall time sets the capacity.
func (c *client) closedLoop(ops []*op) *phase {
	p := &phase{ops: ops, out: make([]outcome, len(ops))}
	c.run(p, nil)
	return p
}

// run drives the ops of p on conns workers taking ops in order. With due
// set, each op waits for its due time; otherwise it is sent as soon as a
// worker is free.
func (c *client) run(p *phase, due func(i int) time.Time) {
	var next atomic.Int64
	start := time.Now()
	g, _ := worker.WithContext(context.Background())
	for w := 0; w < conns; w++ {
		g.Go(func() error {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.ops) {
					return nil
				}
				o := p.ops[i]
				from, late := time.Now(), math.NaN()
				if due != nil {
					d := due(i)
					if wait := time.Until(d); wait > 0 {
						time.Sleep(wait)
						late = ms(time.Since(d))
					}
					from = d
				}
				body, err := c.send(o)
				o.body = nil // batch bodies are large; the op is never resent
				res := outcome{latency: ms(time.Since(from)), late: late, err: err}
				if err != nil {
					res.latency = math.Inf(1)
				} else if len(o.refs) > 0 && i%sampleEvery == 0 {
					res.body = body
				}
				p.out[i] = res
			}
		})
	}
	_ = g.Wait() // workers never fail; errors are per-op outcomes
	p.wall = time.Since(start)
	for i, o := range p.out {
		if o.err != nil {
			p.failures = append(p.failures, o.err)
		} else {
			p.items += p.ops[i].items
		}
	}
}

// latencies returns the phase's latency samples in ms.
func (p *phase) latencies() []float64 {
	xs := make([]float64, len(p.out))
	for i, o := range p.out {
		xs[i] = o.latency
	}
	return xs
}

// lateness returns how late the generator woke for ops it was idle for.
func (p *phase) lateness() []float64 {
	var xs []float64
	for _, o := range p.out {
		if !math.IsNaN(o.late) {
			xs = append(xs, o.late)
		}
	}
	return xs
}

// verify runs the oracle over the sampled responses and records every
// mismatch as a failure.
func (p *phase) verify(sc scenario) {
	for i, o := range p.out {
		if o.body == nil {
			continue
		}
		if err := sc.verify(p.ops[i], o.body); err != nil {
			p.failures = append(p.failures, fmt.Errorf("oracle: %w", err))
		}
		p.out[i].body = nil
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}
