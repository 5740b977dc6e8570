//go:build !unix

package harness

import "time"

var processStart = time.Now()

// processCPU has no getrusage on this platform: it returns the wall-clock
// time since the package loaded, so E19's CPU gate reads wall time.
func processCPU() time.Duration { return time.Since(processStart) }
