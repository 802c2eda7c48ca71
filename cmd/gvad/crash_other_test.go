//go:build !linux

package main

import "os/exec"

// setDeathSignal is a no-op where the kernel offers no parent-death signal;
// the daemon's cleanup still kills it when its test ends.
func setDeathSignal(*exec.Cmd) {}
