//go:build !linux

package main

import (
	"errors"
	"os/exec"
)

// setDeathSignal is Linux-only (PR_SET_PDEATHSIG); elsewhere the signal
// handler and deferred kills are the whole story.
func setDeathSignal(*exec.Cmd) {}

// setIdlePolicy: SCHED_IDLE is Linux's; elsewhere there are no heaters.
func setIdlePolicy() error { return errors.ErrUnsupported }
