//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID from <time.h>.
const clockProcessCPUTime = 2

// processCPU returns the CPU time every thread of the process has consumed:
// the measurement thread's, and whatever the system under test runs beside
// it — the collector's background workers, any goroutine a call hands work
// to. The guest kernel does not charge a thread for time the hypervisor took
// its processor away (steal), so on a shared host this clock keeps counting
// work where the wall clock counts the neighbours.
func processCPU() time.Duration {
	var ts syscall.Timespec
	// The call cannot fail with a valid clock id and pointer.
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
