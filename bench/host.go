package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo is recorded with every result so a comparison can tell whether
// two sets were measured on the same kind of machine.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Transport  string `json:"transport"`
}

func readHost() hostInfo {
	return hostInfo{
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Transport:  "in-memory net.Pipe (loadgen.MemListener); no real link is crossed",
	}
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "unknown" where the file or the key is absent.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB.
// Where /proc is absent it falls back to the Go runtime's view of memory
// obtained from the OS, so the metric is never 0.
func peakRSSMB() float64 {
	if f := strings.Fields(procField("/proc/self/status", "VmHWM")); len(f) >= 1 {
		if kb, err := strconv.ParseFloat(f[0], 64); err == nil && kb > 0 {
			return kb / 1024
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

var calibSink uint64

// calibrate times a fixed pure-CPU loop (xorshift, no memory traffic). It
// runs before and after each workload: a host that drifts between two sets
// of runs moves this number too, and -compare then reports the affected
// rows as unresolved instead of better or worse.
func calibrate() time.Duration {
	const iters = 20_000_000
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return time.Since(start)
}
