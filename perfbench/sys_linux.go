package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The runtime's timers round waits under a
// millisecond up to a whole one when the process is otherwise idle,
// which would make the generator, not the server, set sub-millisecond
// latencies; a nanosleep system call blocks only this goroutine's
// thread and wakes within the kernel's timer slack.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}

// cpuTime is the CPU time this process has used, user and system, on
// all its threads. Time the host steals from the virtual CPUs is not
// in it, which is what makes it steadier than wall time on a shared
// host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
