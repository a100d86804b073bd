package main

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// hostInfo is the fingerprint stamped into every result: numbers from
// two hosts, or two kernels, are not comparable and the result says so.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	// SleepGranularityUS is by how much time.Sleep(1ms) overshoots
	// here (median of 21): the floor under every simulated service time
	// and every open-loop send.
	SleepGranularityUS float64 `json:"sleep_granularity_us"`
}

func (h hostInfo) sleepOvershoot() time.Duration {
	return time.Duration(h.SleepGranularityUS * float64(time.Microsecond))
}

func probeHost() hostInfo {
	h := hostInfo{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
	}
	// run.sh passes the commit: the binary is built without VCS stamping
	// so that it builds in a checkout that is not a repository.
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		h.Commit = c
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	over := make([]time.Duration, 21)
	for i := range over {
		t0 := time.Now()
		time.Sleep(time.Millisecond)
		over[i] = time.Since(t0) - time.Millisecond
	}
	slices.Sort(over)
	h.SleepGranularityUS = us(over[len(over)/2])
	return h
}
