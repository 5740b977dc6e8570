//go:build unix

package harness

import (
	"syscall"
	"time"
)

// processCPU returns the user plus system CPU time this process has used
// (getrusage RUSAGE_SELF).
func processCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
