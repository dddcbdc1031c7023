package main

import (
	"os/exec"
	"syscall"
	"unsafe"
)

// setDeathSignal asks the kernel to SIGKILL the child when the bench
// dies, which covers the one exit path no handler can: the bench itself
// being SIGKILLed (a driver's timeout).
func setDeathSignal(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// setIdlePolicy moves the calling thread to SCHED_IDLE. Lowering one's
// own priority needs no privilege.
func setIdlePolicy() error {
	const schedIdle = 5
	var param struct{ priority int32 } // struct sched_param; must be 0 for SCHED_IDLE
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return errno
	}
	return nil
}
