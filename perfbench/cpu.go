package main

import (
	"syscall"
	"time"
	"unsafe"
)

// CPU clocks (Linux). A run on a shared host loses wall time whenever
// another tenant holds its core; CPU time is what the program itself
// spent, so the gated cost metrics read it.

// clockThreadCPU is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPU = 3

// threadCPU is the CPU time the calling OS thread has used. The caller
// locks its goroutine to the thread first.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU is the user and system CPU time of every thread of the
// process: the solver's, the daemon's and the garbage collector's.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
