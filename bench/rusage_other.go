//go:build !unix

package main

import "time"

// cpuTime is unavailable without getrusage; cpu_ms_per_round reads 0 there.
func cpuTime() time.Duration { return 0 }
