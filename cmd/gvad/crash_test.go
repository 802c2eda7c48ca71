package main

// Kill-recovery property test: a real gvad subprocess is SIGKILLed at
// randomized points while clients stream points into durable sessions —
// including mid-WAL-write, with the torn-write window widened via
// GVAD_WAL_WRITE_DELAY_MS — then restarted. After every crash the
// surviving state must let each client resume exactly where the server
// says it stopped, and once all points are delivered the daemon's
// sessions must be byte-identical to never-crashed reference streams:
// every emitted word and novelty score matches, and the final
// word/rule counts agree.
//
// The child process is this same test binary re-exec'd with
// GVAD_CRASHTEST_CHILD=1 (see TestMain), so it runs under the same
// -race instrumentation as the test.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"grammarviz"
	"grammarviz/internal/memlog"
	"grammarviz/internal/server"
)

func TestMain(m *testing.M) {
	if os.Getenv("GVAD_CRASHTEST_CHILD") == "1" {
		crashChild()
		return
	}
	os.Exit(m.Run())
}

// crashChild is the daemon side of the crash test: a real run() with a
// durable state dir, strict fsync, and the torn-write hook armed when
// the parent asks for it.
func crashChild() {
	cfg := server.Config{
		StateDir:    os.Getenv("GVAD_CRASHTEST_STATEDIR"),
		FsyncPolicy: memlog.SyncAlways,
		WriteDelay:  walWriteDelay(),
	}
	if err := run("127.0.0.1:0", cfg, 2*time.Second, 0); err != nil {
		fmt.Fprintln(os.Stderr, "gvad child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// daemon wraps one child process incarnation.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	once sync.Once
}

// startDaemon starts a child and registers its kill as a cleanup of t, so
// a test that fails before killing it leaves nothing running.
func startDaemon(t *testing.T, stateDir string, extraEnv ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"GVAD_CRASHTEST_CHILD=1",
		"GVAD_CRASHTEST_STATEDIR="+stateDir,
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	setDeathSignal(cmd)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The daemon logs "listening on 127.0.0.1:PORT (...)" once it accepts.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j > 0 {
					rest = rest[:j]
				}
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		d := &daemon{cmd: cmd, url: "http://" + addr}
		t.Cleanup(d.kill)
		return d
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("daemon never reported a listen address")
		return nil
	}
}

// kill SIGKILLs the child (no drain, no checkpoint, no deferred cleanup)
// and reaps it; later calls do nothing.
func (d *daemon) kill() {
	d.once.Do(func() {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	})
}

type crashClient struct {
	http http.Client
}

func (c *crashClient) do(method, url, token string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if token != "" {
		req.Header.Set("X-Resume-Token", token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s: %w (%s)", url, err, data)
		}
	}
	return resp.StatusCode, nil
}

func crashSeries(n int) []float64 {
	pts := make([]float64, n)
	for i := range pts {
		pts[i] = math.Sin(2*math.Pi*float64(i)/40) + 0.005*math.Cos(float64(i*i%97))
	}
	return pts
}

func TestKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	t.Run("fast-writes", func(t *testing.T) { killRecovery(t, 42) })
	t.Run("torn-write-window", func(t *testing.T) {
		killRecovery(t, 1337, "GVAD_WAL_WRITE_DELAY_MS=2")
	})
}

func killRecovery(t *testing.T, seed int64, extraEnv ...string) {
	const (
		sessions = 3
		total    = 1600
		chunk    = 40
		rounds   = 3 // SIGKILL twice, finish on the third incarnation
	)
	rng := rand.New(rand.NewSource(seed))
	pts := crashSeries(total)

	// Reference: the events a never-interrupted stream emits, keyed by
	// offset, plus its final retention stats.
	ref, err := grammarviz.NewStream(grammarviz.Options{Window: 40, PAA: 4, Alphabet: 5})
	if err != nil {
		t.Fatal(err)
	}
	refEvents := map[int]grammarviz.StreamEvent{}
	for _, v := range pts {
		if ev, ok, err := ref.Append(v); err != nil {
			t.Fatal(err)
		} else if ok {
			refEvents[ev.Offset] = ev
		}
	}
	refStats := ref.MemStats()

	stateDir := t.TempDir()
	client := &crashClient{http: http.Client{Timeout: 10 * time.Second}}
	opts := server.StreamOpenRequest{Window: 40, PAA: 4, Alphabet: 5}

	var creds [sessions]server.StreamOpenResponse
	var sent [sessions]int

	checkEvents := func(events []server.StreamEventJSON) {
		t.Helper()
		for _, ev := range events {
			want, ok := refEvents[ev.Offset]
			if !ok || want.Word != ev.Word || want.Novelty != ev.Novelty {
				t.Fatalf("event at offset %d diverged from reference: got %+v want %+v", ev.Offset, ev, want)
			}
		}
	}

	// appendNext sends session i's next chunk with an explicit offset.
	// Returns false when the daemon died mid-request (crash round) — the
	// chunk may or may not have landed; resync decides after restart.
	appendNext := func(d *daemon, i int) bool {
		end := min(sent[i]+chunk, total)
		if sent[i] >= end {
			return true
		}
		off := sent[i]
		var resp server.StreamAppendResponse
		status, err := client.do(http.MethodPost, d.url+"/v1/stream/"+creds[i].ID+"/append",
			creds[i].ResumeToken, server.StreamAppendRequest{Points: pts[sent[i]:end], Offset: &off}, &resp)
		if err != nil {
			return false // connection died: kill landed during this request
		}
		if status != http.StatusOK {
			t.Fatalf("append session %d offset %d: status %d", i, off, status)
		}
		checkEvents(resp.Events)
		sent[i] = resp.Len
		return true
	}

	resync := func(d *daemon, i int) {
		var st server.StreamStateResponse
		status, err := client.do(http.MethodGet, d.url+"/v1/stream/"+creds[i].ID, creds[i].ResumeToken, nil, &st)
		if err != nil || status != http.StatusOK {
			t.Fatalf("resync session %d: %d %v", i, status, err)
		}
		// Durability contract: everything acknowledged before the kill
		// must survive; at most one unacknowledged in-flight chunk may
		// additionally have landed.
		if st.Len < sent[i] || st.Len > sent[i]+chunk {
			t.Fatalf("session %d resumed at %d, acknowledged %d (chunk %d)", i, st.Len, sent[i], chunk)
		}
		sent[i] = st.Len
	}

	for round := 0; round < rounds; round++ {
		d := startDaemon(t, stateDir, extraEnv...)
		if round == 0 {
			for i := range creds {
				status, err := client.do(http.MethodPost, d.url+"/v1/stream", "", opts, &creds[i])
				if err != nil || status != http.StatusCreated {
					t.Fatalf("open session %d: %d %v", i, status, err)
				}
			}
		} else {
			for i := range creds {
				resync(d, i)
			}
		}

		lastRound := round == rounds-1
		if lastRound {
			for i := 0; i < sessions; i++ {
				for sent[i] < total {
					if !appendNext(d, i) {
						t.Fatalf("daemon died in the no-kill round (session %d at %d)", i, sent[i])
					}
				}
			}
		} else {
			// Feed chunks round-robin, then SIGKILL while one more append
			// is in flight — with the write-delay hook armed this lands
			// inside a WAL record write, producing a torn tail.
			steps := 4 + rng.Intn(8)
			for s := 0; s < steps; s++ {
				appendNext(d, s%sessions)
			}
			victim := rng.Intn(sessions)
			off := sent[victim]
			end := min(off+chunk, total)
			if off < end {
				// Captured outside the goroutine: it shares nothing
				// mutable with the main test goroutine, and whether its
				// chunk landed is decided by resync after restart.
				id, token, points := creds[victim].ID, creds[victim].ResumeToken, pts[off:end]
				done := make(chan struct{})
				go func() {
					defer close(done)
					var resp server.StreamAppendResponse
					client.do(http.MethodPost, d.url+"/v1/stream/"+id+"/append",
						token, server.StreamAppendRequest{Points: points, Offset: &off}, &resp)
				}()
				time.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
				d.kill()
				<-done
			} else {
				d.kill()
			}
			continue
		}

		// All points delivered: the daemon's sessions must match the
		// never-crashed reference exactly.
		for i := range creds {
			var st server.StreamStateResponse
			status, err := client.do(http.MethodGet, d.url+"/v1/stream/"+creds[i].ID, creds[i].ResumeToken, nil, &st)
			if err != nil || status != http.StatusOK {
				t.Fatalf("final state session %d: %d %v", i, status, err)
			}
			if st.Len != total || st.Words != refStats.Words || st.Rules != refStats.Rules {
				t.Fatalf("session %d diverged after %d crashes: len=%d words=%d rules=%d, reference len=%d words=%d rules=%d",
					i, rounds-1, st.Len, st.Words, st.Rules, total, refStats.Words, refStats.Rules)
			}
		}
		d.kill()
	}
}
