package main

import (
	"errors"
	"os/exec"
	"syscall"
	"testing"
)

// setDeathSignal has the kernel SIGKILL the child when the test process
// dies, so even a test binary killed outright leaves no daemon behind.
func setDeathSignal(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// TestDaemonKilledWithTest starts a daemon in a subtest that ends without
// killing it, as one that fails midway does, and checks that the child is
// gone once the subtest has finished.
func TestDaemonKilledWithTest(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	var pid int
	t.Run("daemon", func(t *testing.T) {
		pid = startDaemon(t, t.TempDir()).cmd.Process.Pid
	})
	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Fatalf("daemon pid %d outlived its test: kill(pid, 0) = %v", pid, err)
	}
}
