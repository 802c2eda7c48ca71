package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"grammarviz"
	"grammarviz/internal/datasets"
	"grammarviz/internal/server"
)

// stream-durable shape: 16 sessions, each fed 4,000 points/s in 64-point
// chunks during the open loop, plus one anomalies read per session every
// 5 seconds.
const (
	streamSessions        = 16
	streamChunk           = 64
	streamPointsPerSecond = 4000
	streamReadPeriod      = 5 // seconds between two reads of one session
)

// streamReadEvery is the number of appends between two snapshot reads in
// the open loop: every session is read once per streamReadPeriod.
const streamReadEvery = streamPointsPerSecond * streamReadPeriod / streamChunk

// streamRate is the open-loop request rate: the appends plus the reads.
const streamRate = streamSessions * streamPointsPerSecond / streamChunk * (1 + 1.0/streamReadEvery)

// streamScenario streams registry datasets into durable gvad sessions.
// Session i streams dataset i mod 14 at its registry parameters, looped
// with a fresh noise variant every lap.
type streamScenario struct {
	seed      int64
	sessions  []*streamSession
	appends   int // appends generated since the sessions were opened
	reads     int // reads generated since the sessions were opened
	sinceRead int // appends generated since the last read

	expect map[[2]int]*streamState // library state per (session, points)
}

type streamSession struct {
	index   int
	dataset *datasets.Dataset
	id      string
	token   string
	points  []float64 // the session's stream, generated lap by lap
	chunks  int       // chunks handed out as ops

	// Appends must reach gvad in order: chunk seq is sent only after chunk
	// seq-1 has been answered.
	mu    sync.Mutex
	cond  *sync.Cond
	acked int // chunks answered so far, successfully or not
}

func (ss *streamSession) awaitTurn(seq int) {
	ss.mu.Lock()
	for ss.acked < seq {
		ss.cond.Wait()
	}
	ss.mu.Unlock()
}

func (ss *streamSession) answered() {
	ss.mu.Lock()
	ss.acked++
	ss.mu.Unlock()
	ss.cond.Broadcast()
}

// streamState is what gvad must report for a session.
type streamState struct {
	len, words, rules int
	density           []byte
	anomalies         []byte
}

func newStreamScenario(seed int64) (scenario, error) {
	names := datasets.Names()
	s := &streamScenario{seed: seed, expect: map[[2]int]*streamState{}}
	for i := 0; i < streamSessions; i++ {
		d, err := datasets.Generate(names[i%len(names)])
		if err != nil {
			return nil, err
		}
		ss := &streamSession{index: i, dataset: d}
		ss.cond = sync.NewCond(&ss.mu)
		s.sessions = append(s.sessions, ss)
	}
	return s, nil
}

// prime opens every session on the fresh daemon.
func (s *streamScenario) prime(c *client) error {
	s.appends, s.reads, s.sinceRead = 0, 0, 0
	for _, ss := range s.sessions {
		p := ss.dataset.Params
		body, err := json.Marshal(server.StreamOpenRequest{
			Tenant: fmt.Sprintf("s%02d", ss.index), Window: p.Window, PAA: p.PAA, Alphabet: p.Alphabet,
		})
		if err != nil {
			return err
		}
		status, resp, err := c.do(http.MethodPost, "/v1/stream", "", body)
		if err != nil {
			return fmt.Errorf("open session: %w", err)
		}
		if status != http.StatusCreated {
			return fmt.Errorf("open session: status %d: %s", status, truncate(resp))
		}
		var r server.StreamOpenResponse
		if err := json.Unmarshal(resp, &r); err != nil {
			return fmt.Errorf("open session: %w", err)
		}
		ss.id, ss.token, ss.chunks, ss.acked = r.ID, r.ResumeToken, 0, 0
	}
	return nil
}

func (s *streamScenario) ops(n int, reads bool) []*op {
	out := make([]*op, 0, n)
	for len(out) < n {
		if reads && s.sinceRead == streamReadEvery {
			ss := s.sessions[s.reads%len(s.sessions)]
			s.reads++
			s.sinceRead = 0
			out = append(out, &op{method: http.MethodGet, path: "/v1/stream/" + ss.id + "/anomalies", token: ss.token, stream: ss})
			continue
		}
		ss := s.sessions[s.appends%len(s.sessions)]
		s.appends++
		s.sinceRead++
		out = append(out, ss.appendOp(s.seed))
	}
	return out
}

// appendOp hands out the session's next chunk.
func (ss *streamSession) appendOp(seed int64) *op {
	seq := ss.chunks
	ss.chunks++
	off := seq * streamChunk
	for len(ss.points) < off+streamChunk {
		lap := int64(len(ss.points) / len(ss.dataset.Series))
		ss.points = append(ss.points, withNoise(ss.dataset.Series, mix(seed, int64(ss.index), lap))...)
	}
	body, err := json.Marshal(server.StreamAppendRequest{Points: ss.points[off : off+streamChunk], Offset: &off})
	if err != nil {
		panic(err) // finite floats and an int always marshal
	}
	return &op{
		method: http.MethodPost, path: "/v1/stream/" + ss.id + "/append", token: ss.token,
		body: body, items: streamChunk, stream: ss, seq: seq,
	}
}

func (s *streamScenario) check(o *op, body []byte) error {
	if o.method == http.MethodGet {
		return nil // a snapshot read: the 200 is the check
	}
	var r struct{ Len int }
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode append response: %w", err)
	}
	if want := (o.seq + 1) * streamChunk; r.Len != want {
		return fmt.Errorf("session length %d after chunk %d, want %d", r.Len, o.seq, want)
	}
	return nil
}

func (s *streamScenario) verify(*op, []byte) error { return nil }

// finish feeds each session's acknowledged points to a library Stream and
// checks that GET /v1/stream/{id} (len, words, rules) and its /anomalies
// match.
func (s *streamScenario) finish(c *client) (attempted int, failures []error) {
	for _, ss := range s.sessions {
		want, err := s.libraryState(ss)
		if err != nil {
			return attempted, append(failures, err)
		}
		attempted += 2
		if err := ss.compare(c, want); err != nil {
			failures = append(failures, fmt.Errorf("session %d: %w", ss.index, err))
		}
	}
	return attempted, failures
}

func (ss *streamSession) compare(c *client, want *streamState) error {
	status, body, err := c.do(http.MethodGet, "/v1/stream/"+ss.id, ss.token, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("state: status %d: %s", status, truncate(body))
	}
	var st server.StreamStateResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	if st.Len != want.len || st.Words != want.words || st.Rules != want.rules {
		return fmt.Errorf("state len/words/rules %d/%d/%d, library %d/%d/%d",
			st.Len, st.Words, st.Rules, want.len, want.words, want.rules)
	}
	status, body, err = c.do(http.MethodGet, "/v1/stream/"+ss.id+"/anomalies", ss.token, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("anomalies: status %d: %s", status, truncate(body))
	}
	var an struct{ Density, Anomalies json.RawMessage }
	if err := json.Unmarshal(body, &an); err != nil {
		return err
	}
	if !bytes.Equal(an.Density, want.density) || !bytes.Equal(canonicalEmpty(an.Anomalies), canonicalEmpty(want.anomalies)) {
		return fmt.Errorf("anomalies differ: gvad %s, library %s", truncate(an.Anomalies), truncate(want.anomalies))
	}
	return nil
}

// libraryState computes the session's expected state from its
// acknowledged points.
func (s *streamScenario) libraryState(ss *streamSession) (*streamState, error) {
	n := ss.chunks * streamChunk
	key := [2]int{ss.index, n}
	if st, ok := s.expect[key]; ok {
		return st, nil
	}
	p := ss.dataset.Params
	lib, err := grammarviz.NewStream(grammarviz.Options{Window: p.Window, PAA: p.PAA, Alphabet: p.Alphabet})
	if err != nil {
		return nil, err
	}
	for _, v := range ss.points[:n] {
		if _, _, err := lib.Append(v); err != nil {
			return nil, err
		}
	}
	mem := lib.MemStats()
	st := &streamState{len: lib.Len(), words: mem.Words, rules: mem.Rules}
	density, err := lib.RuleDensity()
	if err != nil {
		return nil, err
	}
	anomalies, err := lib.Anomalies()
	if err != nil {
		return nil, err
	}
	if st.density, err = json.Marshal(density); err != nil {
		return nil, err
	}
	if st.anomalies, err = json.Marshal(anomalies); err != nil {
		return nil, err
	}
	s.expect[key] = st
	return st, nil
}
