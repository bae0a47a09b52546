package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPU is Linux's CLOCK_PROCESS_CPUTIME_ID: CPU time consumed by
// every thread of the calling process.
const clockProcessCPU = 2

// cpuNow returns the CPU time (user and system, all threads) the process has
// used so far. Time the hypervisor gives to other guests and time spent
// waiting for a CPU are not counted, so on a shared machine it tracks the
// work done where wall time tracks the neighbours.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + e.Error())
	}
	return time.Duration(ts.Nano())
}
