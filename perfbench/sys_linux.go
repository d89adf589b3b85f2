package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil blocks the calling goroutine's thread in nanosleep(2) until t,
// after dropping that thread's timer slack to 1 ns. A Go timer wakes an
// idle process only at millisecond granularity, which would dominate the
// latency of a sub-millisecond operation timed from its due time; this
// wakes within tens of microseconds. The goroutine is not locked to the
// thread: a syscall returns on the thread that made it, so the slack set
// just before the sleep applies to it, and a lower slack on a runtime
// thread is harmless afterwards.
func sleepUntil(t time.Time) {
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	for {
		w := time.Until(t)
		if w <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(w))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
