package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"grammarviz/internal/worker"
)

// daemon is one gvad child process serving on a loopback port chosen by
// the kernel.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	group  *worker.Group
	exited chan struct{} // closed once the process has been reaped
}

// bootTimeout bounds how long a gvad child may take to recover its state
// and start listening.
const bootTimeout = 60 * time.Second

// startDaemon execs gvad on stateDir and returns once it answers 200 on
// /healthz. The address comes from gvad's own "listening on" log line, so
// no port is ever guessed.
func startDaemon(bin, stateDir string, c *http.Client) (*daemon, error) {
	logs := &logWatch{addr: make(chan string, 1), out: os.Stderr}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state-dir", stateDir, "-fsync", "always")
	cmd.Stdout = io.Discard
	cmd.Stderr = logs
	// If the benchmark itself is killed, the kernel kills gvad too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gvad: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	d.group, _ = worker.WithContext(context.Background())
	d.group.Go(func() error {
		defer close(d.exited)
		_ = cmd.Wait() // a killed child always reports an error
		return nil
	})
	timer := time.NewTimer(bootTimeout)
	defer timer.Stop()
	select {
	case addr := <-logs.addr:
		d.base = "http://" + addr
	case <-d.exited:
		d.stop()
		return nil, errors.New("gvad exited before listening")
	case <-timer.C:
		d.stop()
		return nil, fmt.Errorf("gvad did not listen within %s", bootTimeout)
	}
	if err := waitHealthy(c, d.base, timer.C); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(c *http.Client, base string, deadline <-chan time.Time) error {
	for {
		resp, err := c.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-deadline:
			return fmt.Errorf("gvad at %s never became healthy", base)
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// stop SIGKILLs the child and waits until it has been reaped. It is safe
// to call more than once.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Kill() // fails only when the process is already gone
	_ = d.group.Wait()
}

// terminate stops the child the graceful way, SIGTERM: gvad checkpoints
// every dirty session and drains before it exits.
func (d *daemon) terminate() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("stop gvad: %w", err)
	}
	timer := time.NewTimer(bootTimeout)
	defer timer.Stop()
	select {
	case <-d.exited:
		d.stop()
		return nil
	case <-timer.C:
		d.stop()
		return fmt.Errorf("gvad did not stop within %s of SIGTERM", bootTimeout)
	}
}

// peakRSSMiB reads the child's high-water resident set (VmHWM) from
// /proc.
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// logWatch forwards gvad's log to out and reports the listen address from
// the first "listening on ADDR (" line.
type logWatch struct {
	mu    sync.Mutex
	buf   []byte
	found bool
	addr  chan string
	out   io.Writer
}

func (w *logWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, _ = w.out.Write(p) // diagnostics only
	if w.found {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	const marker = "listening on "
	if i := bytes.Index(w.buf, []byte(marker)); i >= 0 {
		rest := w.buf[i+len(marker):]
		if j := bytes.IndexByte(rest, ' '); j >= 0 {
			w.found = true
			w.addr <- string(rest[:j])
			w.buf = nil
		}
	}
	return len(p), nil
}
