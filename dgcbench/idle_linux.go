package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// idleSpinEnv, when set in the environment, turns the binary into the idle
// spinner child (see startIdleSpinners): its value is the thread count.
const idleSpinEnv = "DGCBENCH_IDLE_SPIN"

const schedIdle = 5 // SCHED_IDLE

// startIdleSpinners keeps every CPU busy at idle priority while the rmi
// workload runs, so no vCPU halts between a socket write and the wake-up
// of the goroutine reading it. On a virtual machine a halted vCPU is woken
// by the host's scheduler, and that wake-up, paid several times per call,
// moved the call latency medians by a quarter between runs of the same code
// as the host's load changed; a busy vCPU preempts the spinner in the guest
// instead. The spinners run in a child process at SCHED_IDLE, below every
// normal thread, so they take no CPU the workload wants. The returned func
// stops the child and waits for it; the child also dies with this process.
func startIdleSpinners() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", idleSpinEnv, runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() {
		in.Close() // the child exits when its stdin closes
		_ = cmd.Wait()
	}, nil
}

// idleSpinChild runs when idleSpinEnv is set: n threads spin at SCHED_IDLE
// until stdin closes. It returns false when the variable is not set.
func idleSpinChild() bool {
	v := os.Getenv(idleSpinEnv)
	if v == "" {
		return false
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		fmt.Fprintf(os.Stderr, "dgcbench: bad %s=%q\n", idleSpinEnv, v)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			var param [1]int32 // struct sched_param, priority 0
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
			if errno != 0 {
				return // never spin at normal priority
			}
			for {
			}
		}()
	}
	_, _ = io.Copy(io.Discard, os.Stdin)
	os.Exit(0)
	return true
}
