package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment is printed with every result, so figures from two machines
// are never compared blind.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	L2         string `json:"l2_cache"`
	L3         string `json:"l3_cache"`
	// LargestStateBytes is the biggest state vector any workload holds
	// (14 qubits × 16 B per amplitude).
	LargestStateBytes int    `json:"largest_state_bytes"`
	Note              string `json:"note"`
}

func readEnvironment() environment {
	e := environment{
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		NumCPU:            runtime.NumCPU(),
		GoVersion:         runtime.Version(),
		CPUModel:          cpuModel(),
		L2:                cacheSize(2),
		L3:                cacheSize(3),
		LargestStateBytes: 16 << 14,
	}
	e.Note = "no working set exceeds L2: every state vector is at most 256 KiB, " +
		"so kernel byte counts are computed from sizes, not measured bandwidth"
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reads the size of CPU 0's unified cache at the given level.
func cacheSize(level int) string {
	const dir = "/sys/devices/system/cpu/cpu0/cache/"
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "unknown"
	}
	for _, e := range entries {
		lv, err := os.ReadFile(dir + e.Name() + "/level")
		if err != nil || strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		if size, err := os.ReadFile(dir + e.Name() + "/size"); err == nil {
			return strings.TrimSpace(string(size))
		}
	}
	return "unknown"
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// resident high-water mark at the current resident set, so a following
// peakRSSMB covers only what ran in between — not the benchmark's own
// repeated set-up.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
