package server

import (
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"grammarviz"
	"grammarviz/internal/memlog"
	"grammarviz/internal/modes"
	"grammarviz/internal/worker"
)

// This file implements durable streaming sessions: long-lived incremental
// detectors owned by a supervisor, persisted through a per-session
// write-ahead memlog plus checkpoint snapshots, restored on boot, and
// evicted-but-restorable when idle.
//
//	POST   /v1/stream              open a session (id + resume token)
//	POST   /v1/stream/{id}/append  feed points, get events + novelty scores
//	GET    /v1/stream/{id}         session state
//	DELETE /v1/stream/{id}         close and delete the session
//
// Every request after open authenticates with the resume token (the
// X-Resume-Token header). Durability: each accepted chunk is framed into
// the session's memlog before the response is written (fsynced per the
// configured policy), and the supervisor compacts log into checkpoint
// snapshots once the log outgrows the snapshot. On boot the supervisor
// restores every session from snapshot + log replay, quarantining — not
// crashing on — anything corrupt. One poisoned session 500s by itself;
// its neighbors keep streaming.

const (
	resumeTokenHeader = "X-Resume-Token"
	quarantineSuffix  = ".corrupt"
	sessionMetaName   = "meta.json"
)

// StreamOpenRequest opens a streaming session.
type StreamOpenRequest struct {
	Tenant    string `json:"tenant,omitempty"`
	Window    int    `json:"window"`
	PAA       int    `json:"paa"`
	Alphabet  int    `json:"alphabet"`
	Reduction string `json:"reduction,omitempty"` // exact (default) | none | mindist
}

// StreamOpenResponse returns the session identity and resume credentials.
type StreamOpenResponse struct {
	ID          string `json:"id"`
	ResumeToken string `json:"resume_token"`
	Window      int    `json:"window"`
	PAA         int    `json:"paa"`
	Alphabet    int    `json:"alphabet"`
	Reduction   string `json:"reduction"`
}

// StreamAppendRequest feeds a chunk of points to a session. Offset, when
// set, is the absolute stream index of the first point — the idempotence
// handle: a retry of an already-applied chunk is detected (409 with the
// current length) instead of double-appended.
type StreamAppendRequest struct {
	// Points are the chunk's values. A null element decodes as NaN and
	// rejects the whole chunk before anything is logged.
	Points []float64 `json:"points"`
	Offset *int      `json:"offset,omitempty"`
}

// StreamEventJSON is one emitted word with its novelty score (1 = first
// sighting of this shape, approaching 0 = routine).
type StreamEventJSON struct {
	Offset  int     `json:"offset"`
	Word    string  `json:"word"`
	Novelty float64 `json:"novelty"`
}

// StreamAppendResponse reports the session length after the chunk plus
// every event the chunk emitted and the closing window's anomaly score
// (the novelty of the newest emitted word; 0 when the chunk closed no
// new window).
type StreamAppendResponse struct {
	Len        int               `json:"len"`
	Events     []StreamEventJSON `json:"events"`
	LastScore  float64           `json:"last_score"`
	MaxScore   float64           `json:"max_score"`
	Checkpoint bool              `json:"checkpointed,omitempty"` // chunk triggered compaction
}

// StreamStateResponse describes a session.
type StreamStateResponse struct {
	ID            string `json:"id"`
	Len           int    `json:"len"`
	Words         int    `json:"words"`
	Rules         int    `json:"rules"`
	Window        int    `json:"window"`
	PAA           int    `json:"paa"`
	Alphabet      int    `json:"alphabet"`
	Reduction     string `json:"reduction"`
	Restored      bool   `json:"restored,omitempty"`       // came back from disk at boot or after eviction
	LogBytes      int64  `json:"log_bytes,omitempty"`      // WAL bytes since the last snapshot
	SnapshotBytes int64  `json:"snapshot_bytes,omitempty"` // size of the last checkpoint frame
}

// StreamAnomaliesResponse is the session's current anomaly picture: the
// rule-density curve over everything consumed so far plus its
// global-minima intervals, computed from an in-memory snapshot.
type StreamAnomaliesResponse struct {
	ID        string               `json:"id"`
	Len       int                  `json:"len"`
	Density   []int                `json:"density"`
	Anomalies []grammarviz.Anomaly `json:"anomalies"`
}

// sessionMeta is the durable identity of a session, stored as meta.json
// in its state directory so recovery can rebuild the supervisor entry.
type sessionMeta struct {
	ID        string `json:"id"`
	Token     string `json:"token"`
	Tenant    string `json:"tenant"`
	Window    int    `json:"window"`
	PAA       int    `json:"paa"`
	Alphabet  int    `json:"alphabet"`
	Reduction string `json:"reduction"`
}

func (m *sessionMeta) options() (grammarviz.Options, error) {
	red, err := parseReduction(m.Reduction)
	if err != nil {
		return grammarviz.Options{}, err
	}
	return grammarviz.Options{
		Window: m.Window, PAA: m.PAA, Alphabet: m.Alphabet, Reduction: red,
	}, nil
}

func parseReduction(s string) (grammarviz.Reduction, error) {
	switch s {
	case "", "exact":
		return grammarviz.ReduceExact, nil
	case "none":
		return grammarviz.ReduceNone, nil
	case "mindist":
		return grammarviz.ReduceMINDIST, nil
	}
	return 0, fmt.Errorf("unknown reduction %q (want exact, none or mindist)", s)
}

func reductionName(r grammarviz.Reduction) string {
	switch r {
	case grammarviz.ReduceNone:
		return "none"
	case grammarviz.ReduceMINDIST:
		return "mindist"
	default:
		return "exact"
	}
}

// streamSession is one live session. All state transitions happen under
// mu; the supervisor map lock is never held across session work, so a
// slow append in one session cannot block another session's request.
type streamSession struct {
	mu sync.Mutex

	meta sessionMeta
	dir  string // state directory; "" when durability is off

	stream   *grammarviz.Stream // nil while evicted
	log      *memlog.Log        // nil when durability is off or while evicted
	restored bool               // rebuilt from disk at least once

	poisoned  bool // a panic mid-append left in-memory state suspect
	closed    bool
	lastTouch time.Time
}

// sessionSupervisor owns the session table. The lock order below is the
// map-lock invariant made checkable: eviction and delete take a session's
// mutex first and touch the table under its own lock afterwards, so the
// table lock may never be held while acquiring a session lock.
//
//gvad:lockorder server.streamSession.mu < server.sessionSupervisor.mu
type sessionSupervisor struct {
	mu       sync.Mutex
	sessions map[string]*streamSession
}

func randomHex(n int) (string, error) {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return "", err
	}
	return hex.EncodeToString(b), nil
}

func (s *Server) memlogOptions() memlog.Options {
	return memlog.Options{
		Policy:        s.cfg.FsyncPolicy,
		Interval:      s.cfg.FsyncInterval,
		SegmentBytes:  s.cfg.SegmentBytes,
		CompactFactor: s.cfg.CompactFactor,
		WriteDelay:    s.cfg.WriteDelay,
		Logf:          s.cfg.Logf,
	}
}

// sessionDir is the on-disk home of a session ("" when durability is
// off). Session ids are self-generated hex, so they are always safe path
// components; recovery additionally refuses anything else.
func (s *Server) sessionDir(id string) string {
	if s.cfg.StateDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.StateDir, id)
}

func validSessionID(id string) bool {
	if len(id) != 32 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// writeMeta persists the session identity atomically (tmp + rename).
func writeMeta(dir string, meta *sessionMeta) error {
	data, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, sessionMetaName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, sessionMetaName))
}

// ---- HTTP handlers -------------------------------------------------------

func (s *Server) handleStreamOpen(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	var req StreamOpenRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	red, err := parseReduction(req.Reduction)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opts := grammarviz.Options{Window: req.Window, PAA: req.PAA, Alphabet: req.Alphabet, Reduction: red}
	stream, err := grammarviz.NewStream(opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	s.sup.mu.Lock()
	if len(s.sup.sessions) >= s.cfg.MaxSessions {
		s.sup.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		writeError(w, http.StatusTooManyRequests, fmt.Errorf("session limit (%d) reached", s.cfg.MaxSessions))
		return
	}
	s.sup.mu.Unlock()

	id, err := randomHex(16)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	token, err := randomHex(32)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sess := &streamSession{
		meta: sessionMeta{
			ID: id, Token: token, Tenant: resolveTenant(r, req.Tenant),
			Window: req.Window, PAA: req.PAA, Alphabet: req.Alphabet,
			Reduction: reductionName(red),
		},
		dir:       s.sessionDir(id),
		stream:    stream,
		lastTouch: time.Now(),
	}
	if sess.dir != "" {
		log, _, err := memlog.Open(sess.dir, s.memlogOptions())
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("open session log: %w", err))
			return
		}
		if err := writeMeta(sess.dir, &sess.meta); err != nil {
			_ = log.Close()
			writeError(w, http.StatusInternalServerError, fmt.Errorf("persist session meta: %w", err))
			return
		}
		sess.log = log
	}

	s.sup.mu.Lock()
	s.sup.sessions[id] = sess
	n := len(s.sup.sessions)
	s.sup.mu.Unlock()
	s.sessionsActive.Set(int64(n))

	writeJSON(w, http.StatusCreated, StreamOpenResponse{
		ID: id, ResumeToken: token,
		Window: req.Window, PAA: req.PAA, Alphabet: req.Alphabet,
		Reduction: reductionName(red),
	})
}

// lookupSession authenticates the request against the session's resume
// token. It returns nil after writing the error response.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) *streamSession {
	id := r.PathValue("id")
	s.sup.mu.Lock()
	sess := s.sup.sessions[id]
	s.sup.mu.Unlock()
	if sess == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
		return nil
	}
	token := r.Header.Get(resumeTokenHeader)
	if subtle.ConstantTimeCompare([]byte(token), []byte(sess.meta.Token)) != 1 {
		writeError(w, http.StatusForbidden, errors.New("missing or wrong resume token"))
		return nil
	}
	return sess
}

func (s *Server) handleStreamAppend(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	var req StreamAppendRequest
	if status, err := s.decodeRequest(w, r, &req); err != nil {
		writeError(w, status, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("points must not be empty"))
		return
	}

	// Admission: streaming appends are the cheap incremental path, so they
	// are charged at the lowest weight, but they still pass through the
	// tenant budget so a flood of appends cannot starve analyses.
	release, err := s.admit(r.Context(), sess.meta.Tenant, len(req.Points), modes.Weight(modes.Stream))
	if err != nil {
		if errors.Is(err, errQueueFull) {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
			writeError(w, http.StatusTooManyRequests, errors.New("server saturated, retry later"))
			return
		}
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("timed out waiting for admission: %w", err))
		return
	}
	defer release()

	resp, status, err := s.sessionAppend(r.Context(), sess, &req)
	if err != nil {
		writeError(w, status, err)
		return
	}
	writeJSON(w, status, resp)
}

// sessionAppend applies one chunk under the session mutex, WAL-first, with
// panic containment: a panic while mutating the stream poisons only this
// session.
//
//gvad:walfirst
func (s *Server) sessionAppend(ctx context.Context, sess *streamSession, req *StreamAppendRequest) (*StreamAppendResponse, int, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return nil, http.StatusGone, errors.New("session closed")
	}
	if sess.poisoned {
		return nil, http.StatusInternalServerError, errors.New("session poisoned by an earlier panic; delete it")
	}
	if err := s.ensureResident(sess); err != nil {
		return nil, http.StatusInternalServerError, err
	}
	sess.lastTouch = time.Now()

	cur := sess.stream.Len()
	if req.Offset != nil && *req.Offset != cur {
		return nil, http.StatusConflict,
			fmt.Errorf("offset %d does not match session length %d (chunk already applied, or a gap)", *req.Offset, cur)
	}
	if s.cfg.MaxSeriesLen > 0 && cur+len(req.Points) > s.cfg.MaxSeriesLen {
		return nil, http.StatusBadRequest,
			fmt.Errorf("appending %d points would exceed the %d-point session cap", len(req.Points), s.cfg.MaxSeriesLen)
	}
	for i, v := range req.Points {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Rejected before any mutation: the stream never sees the bad
			// chunk, so a corrected retry continues byte-identically.
			return nil, http.StatusBadRequest,
				fmt.Errorf("point %d is %v: %w", i, v, grammarviz.ErrInvalidValue)
		}
	}

	// WAL first: the chunk is on the log (fsynced per policy) before the
	// detector sees it, so an acknowledged chunk survives a crash.
	if sess.log != nil {
		if err := sess.log.Append(encodePoints(req.Points)); err != nil {
			return nil, http.StatusInternalServerError, fmt.Errorf("write-ahead log: %w", err)
		}
	}

	resp := &StreamAppendResponse{}
	g, _ := worker.WithContext(ctx)
	g.Go(func() error {
		if s.testHookStreamAppend != nil {
			s.testHookStreamAppend(sess.meta.ID)
		}
		for _, v := range req.Points {
			ev, ok, err := sess.stream.Append(v)
			if err != nil {
				return err // unreachable: validated above
			}
			if ok {
				resp.Events = append(resp.Events, StreamEventJSON{Offset: ev.Offset, Word: ev.Word, Novelty: ev.Novelty})
				resp.LastScore = ev.Novelty
				if ev.Novelty > resp.MaxScore {
					resp.MaxScore = ev.Novelty
				}
			}
		}
		return nil
	})
	if err := g.Wait(); err != nil {
		var pe *worker.PanicError
		if errors.As(err, &pe) {
			// The stream may be half-mutated; quarantine it in memory. The
			// WAL still holds every acknowledged chunk, so a restart (or
			// DELETE + re-open) recovers cleanly.
			sess.poisoned = true
			s.cfg.Logf("session %s poisoned by panic: %v", sess.meta.ID, err)
			return nil, http.StatusInternalServerError, errors.New("internal panic while appending; session quarantined in memory")
		}
		return nil, http.StatusInternalServerError, err
	}
	resp.Len = sess.stream.Len()

	if sess.log != nil && sess.log.ShouldCompact() {
		if err := s.checkpointLocked(sess); err != nil {
			// Compaction failing is not data loss — the WAL still has
			// everything — so log and continue.
			s.cfg.Logf("session %s compaction failed: %v", sess.meta.ID, err)
		} else {
			resp.Checkpoint = true
		}
	}
	return resp, http.StatusOK, nil
}

func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		writeError(w, http.StatusGone, errors.New("session closed"))
		return
	}
	if err := s.ensureResident(sess); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sess.lastTouch = time.Now()
	mem := sess.stream.MemStats()
	resp := StreamStateResponse{
		ID:        sess.meta.ID,
		Len:       sess.stream.Len(),
		Words:     mem.Words,
		Rules:     mem.Rules,
		Window:    sess.meta.Window,
		PAA:       sess.meta.PAA,
		Alphabet:  sess.meta.Alphabet,
		Reduction: sess.meta.Reduction,
		Restored:  sess.restored,
	}
	if sess.log != nil {
		resp.LogBytes = sess.log.LogBytes()
		resp.SnapshotBytes = sess.log.SnapshotBytes()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStreamAnomalies serves GET /v1/stream/{id}/anomalies: the
// session's current rule-density snapshot and its global-minima anomaly
// intervals. Strictly read-only — it snapshots under the session mutex
// and never touches the WAL, so polling anomalies costs no fsyncs and
// cannot perturb durability.
func (s *Server) handleStreamAnomalies(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		writeError(w, http.StatusGone, errors.New("session closed"))
		return
	}
	if sess.poisoned {
		writeError(w, http.StatusInternalServerError, errors.New("session poisoned by an earlier panic; delete it"))
		return
	}
	if err := s.ensureResident(sess); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sess.lastTouch = time.Now()
	density, err := sess.stream.RuleDensity()
	if err != nil {
		// The only library failure here is "not enough points for one
		// window yet" — the session is fine, the question is premature.
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	anomalies, err := sess.stream.Anomalies()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, StreamAnomaliesResponse{
		ID:        sess.meta.ID,
		Len:       sess.stream.Len(),
		Density:   density,
		Anomalies: anomalies,
	})
}

func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	if !sess.closed {
		sess.closed = true
		if sess.log != nil {
			if err := sess.log.Close(); err != nil {
				s.cfg.Logf("session %s: closing log on delete: %v", sess.meta.ID, err)
			}
			sess.log = nil
		}
		sess.stream = nil
		if sess.dir != "" {
			if err := os.RemoveAll(sess.dir); err != nil {
				s.cfg.Logf("session %s: removing state dir: %v", sess.meta.ID, err)
			}
		}
	}
	sess.mu.Unlock()

	s.sup.mu.Lock()
	delete(s.sup.sessions, sess.meta.ID)
	n := len(s.sup.sessions)
	s.sup.mu.Unlock()
	s.sessionsActive.Set(int64(n))
	writeJSON(w, http.StatusOK, map[string]string{"status": "closed"})
}

// ---- residency: eviction and restore ------------------------------------

// ensureResident restores an evicted session from disk. Caller holds
// sess.mu.
func (s *Server) ensureResident(sess *streamSession) error {
	if sess.stream != nil {
		return nil
	}
	if sess.dir == "" {
		return errors.New("session state lost (no state dir configured)")
	}
	stream, log, _, err := s.restoreFromDir(sess.dir, &sess.meta)
	if err != nil {
		return fmt.Errorf("restore session: %w", err)
	}
	sess.stream = stream
	sess.log = log
	sess.restored = true
	s.sessionsRestored.Inc()
	return nil
}

// restoreFromDir rebuilds a session's stream from its snapshot and WAL.
// The returned torn flag reports a dropped torn tail.
func (s *Server) restoreFromDir(dir string, meta *sessionMeta) (*grammarviz.Stream, *memlog.Log, bool, error) {
	log, rec, err := memlog.Open(dir, s.memlogOptions())
	if err != nil {
		return nil, nil, false, err
	}
	var stream *grammarviz.Stream
	if rec.Snapshot != nil {
		stream, err = grammarviz.RestoreStream(rec.Snapshot)
	} else {
		opts, oerr := meta.options()
		if oerr != nil {
			_ = log.Close()
			return nil, nil, false, oerr
		}
		stream, err = grammarviz.NewStream(opts)
	}
	if err != nil {
		_ = log.Close()
		return nil, nil, false, err
	}
	for _, chunk := range rec.Records {
		points, derr := decodePoints(chunk)
		if derr != nil {
			_ = log.Close()
			return nil, nil, false, derr
		}
		for _, v := range points {
			if _, _, aerr := stream.Append(v); aerr != nil {
				_ = log.Close()
				return nil, nil, false, fmt.Errorf("replaying log: %w", aerr)
			}
		}
	}
	if rec.Torn {
		s.sessionsTorn.Inc()
	}
	return stream, log, rec.Torn, nil
}

// checkpointLocked snapshots the session's stream into the memlog
// (compacting the WAL away). Caller holds sess.mu.
func (s *Server) checkpointLocked(sess *streamSession) error {
	if sess.log == nil || sess.stream == nil {
		return nil
	}
	frame, err := sess.stream.Checkpoint()
	if err != nil {
		return err
	}
	if err := sess.log.SaveSnapshot(frame); err != nil {
		return err
	}
	s.checkpointBytes.Set(int64(len(frame)))
	return nil
}

// ---- boot recovery -------------------------------------------------------

// RecoverSessions scans the state directory and restores every persisted
// session: snapshot + WAL replay. Sessions that fail with corruption are
// quarantined — their directory is renamed aside with the .corrupt suffix
// and counted — so one damaged session never blocks boot. It returns the
// number restored and quarantined.
func (s *Server) RecoverSessions(ctx context.Context) (restored, quarantined int, err error) {
	if s.cfg.StateDir == "" {
		return 0, 0, nil
	}
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return 0, 0, err
	}
	entries, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		if ctx.Err() != nil {
			return restored, quarantined, ctx.Err()
		}
		if !e.IsDir() || !validSessionID(e.Name()) {
			continue
		}
		dir := filepath.Join(s.cfg.StateDir, e.Name())
		sess, rerr := s.recoverOne(dir, e.Name())
		if rerr != nil {
			if isCorruption(rerr) {
				s.quarantine(dir, e.Name(), rerr)
				quarantined++
				continue
			}
			return restored, quarantined, fmt.Errorf("session %s: %w", e.Name(), rerr)
		}
		s.sup.mu.Lock()
		s.sup.sessions[sess.meta.ID] = sess
		n := len(s.sup.sessions)
		s.sup.mu.Unlock()
		s.sessionsActive.Set(int64(n))
		restored++
		s.sessionsRestored.Inc()
	}
	return restored, quarantined, nil
}

// isCorruption decides quarantine-vs-abort during recovery: damaged
// state is quarantined, environmental failures (permissions, disk) abort
// boot so the operator sees them.
func isCorruption(err error) bool {
	return errors.Is(err, memlog.ErrCorrupt) ||
		errors.Is(err, grammarviz.ErrCorruptCheckpoint) ||
		errors.Is(err, errBadMeta) ||
		errors.Is(err, grammarviz.ErrInvalidValue)
}

var errBadMeta = errors.New("malformed session meta")

func (s *Server) recoverOne(dir, id string) (*streamSession, error) {
	data, err := os.ReadFile(filepath.Join(dir, sessionMetaName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: missing meta.json", errBadMeta)
		}
		return nil, err
	}
	var meta sessionMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadMeta, err)
	}
	if meta.ID != id || meta.Token == "" {
		return nil, fmt.Errorf("%w: identity mismatch", errBadMeta)
	}
	if _, err := meta.options(); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadMeta, err)
	}
	stream, log, _, err := s.restoreFromDir(dir, &meta)
	if err != nil {
		return nil, err
	}
	return &streamSession{
		meta: meta, dir: dir,
		stream: stream, log: log,
		restored: true, lastTouch: time.Now(),
	}, nil
}

// quarantine renames a damaged session directory aside so boot proceeds
// and the evidence is preserved for inspection.
func (s *Server) quarantine(dir, id string, cause error) {
	dst := dir + quarantineSuffix
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); errors.Is(err, os.ErrNotExist) {
			break
		}
		dst = fmt.Sprintf("%s%s.%d", dir, quarantineSuffix, i)
	}
	if err := os.Rename(dir, dst); err != nil {
		s.cfg.Logf("session %s: quarantine rename failed: %v", id, err)
	}
	s.sessionsQuarantined.Inc()
	s.cfg.Logf("session %s quarantined to %s: %v", id, dst, cause)
}

// ---- lifecycle: janitor, drain, shutdown ---------------------------------

// RunSessionJanitor evicts idle sessions every interval until ctx ends:
// each is checkpointed (snapshot + WAL truncate) and dropped from memory,
// restorable on next touch. Sessions without a state dir are closed
// outright. Run it on a worker group next to Serve.
func (s *Server) RunSessionJanitor(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
			s.evictIdleSessions(time.Now())
		}
	}
}

func (s *Server) snapshotSessions() []*streamSession {
	s.sup.mu.Lock()
	defer s.sup.mu.Unlock()
	out := make([]*streamSession, 0, len(s.sup.sessions))
	for _, sess := range s.sup.sessions {
		out = append(out, sess)
	}
	return out
}

func (s *Server) evictIdleSessions(now time.Time) {
	ttl := s.cfg.SessionTTL
	if ttl <= 0 {
		return
	}
	for _, sess := range s.snapshotSessions() {
		sess.mu.Lock()
		idle := now.Sub(sess.lastTouch) > ttl
		switch {
		case !idle || sess.closed || sess.stream == nil:
			sess.mu.Unlock()
		case sess.dir == "" || sess.poisoned:
			// Nothing durable to fall back to (or nothing trustworthy):
			// drop the session entirely.
			sess.closed = true
			if sess.log != nil {
				if err := sess.log.Close(); err != nil {
					s.cfg.Logf("session %s: closing log on drop: %v", sess.meta.ID, err)
				}
				sess.log = nil
			}
			sess.stream = nil
			id := sess.meta.ID
			sess.mu.Unlock()
			s.sup.mu.Lock()
			delete(s.sup.sessions, id)
			n := len(s.sup.sessions)
			s.sup.mu.Unlock()
			s.sessionsActive.Set(int64(n))
			s.sessionsEvicted.Inc()
		default:
			if err := s.checkpointLocked(sess); err != nil {
				s.cfg.Logf("session %s: eviction checkpoint failed, keeping resident: %v", sess.meta.ID, err)
				sess.mu.Unlock()
				continue
			}
			// The checkpoint above holds the full state, so a failed
			// close cannot lose acknowledged data — but it can hide a
			// sick volume, so it is logged, never swallowed.
			if err := sess.log.Close(); err != nil {
				s.cfg.Logf("session %s: closing log after eviction checkpoint: %v", sess.meta.ID, err)
			}
			sess.log = nil
			sess.stream = nil
			sess.mu.Unlock()
			s.sessionsEvicted.Inc()
		}
	}
}

// StartDraining flips the server into drain mode: work-accepting
// endpoints answer 503 {"error":"draining"} with Retry-After: 1 and
// /healthz reports draining, so load balancers pull the instance before
// the listener closes. Safe to call more than once.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Draining reports whether StartDraining has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// rejectDraining writes the drain response and reports true when the
// server is draining.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "draining"})
	return true
}

// CheckpointSessions snapshots every dirty session to disk — the graceful
// half of crash safety, run before Shutdown so restart boots from
// snapshots instead of long WAL replays. Failures are logged, not fatal:
// the WAL already holds the data.
func (s *Server) CheckpointSessions(ctx context.Context) error {
	for _, sess := range s.snapshotSessions() {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		sess.mu.Lock()
		if !sess.closed && !sess.poisoned && sess.log != nil && sess.stream != nil && sess.log.LogBytes() > 0 {
			if err := s.checkpointLocked(sess); err != nil {
				s.cfg.Logf("session %s: drain checkpoint failed: %v", sess.meta.ID, err)
			}
		}
		sess.mu.Unlock()
	}
	return nil
}

// CloseSessions syncs and closes every session log. Called at process
// exit after CheckpointSessions.
func (s *Server) CloseSessions() {
	for _, sess := range s.snapshotSessions() {
		sess.mu.Lock()
		if sess.log != nil {
			if err := sess.log.Close(); err != nil {
				s.cfg.Logf("session %s: closing log: %v", sess.meta.ID, err)
			}
			sess.log = nil
		}
		sess.mu.Unlock()
	}
}

// SessionCount returns the number of live sessions (diagnostic).
func (s *Server) SessionCount() int {
	s.sup.mu.Lock()
	defer s.sup.mu.Unlock()
	return len(s.sup.sessions)
}

// ---- point codec ---------------------------------------------------------

// encodePoints frames a chunk of float64 points for the WAL (little-endian
// IEEE 754 bits).
func encodePoints(points []float64) []byte {
	buf := make([]byte, 0, 8*len(points))
	for _, v := range points {
		bits := math.Float64bits(v)
		buf = append(buf,
			byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
			byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
	}
	return buf
}

func decodePoints(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: point record of %d bytes", memlog.ErrCorrupt, len(b))
	}
	points := make([]float64, len(b)/8)
	for i := range points {
		o := 8 * i
		bits := uint64(b[o]) | uint64(b[o+1])<<8 | uint64(b[o+2])<<16 | uint64(b[o+3])<<24 |
			uint64(b[o+4])<<32 | uint64(b[o+5])<<40 | uint64(b[o+6])<<48 | uint64(b[o+7])<<56
		points[i] = math.Float64frombits(bits)
	}
	return points, nil
}
