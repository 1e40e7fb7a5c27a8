package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// machineInfo describes where a run was measured; every output carries
// it so numbers from different machines are not compared blindly.
type machineInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentMachine() machineInfo {
	return machineInfo{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

func (m machineInfo) String() string {
	return fmt.Sprintf("cores=%d gomaxprocs=%d go=%s %s/%s", m.Cores, m.GOMAXPROCS, m.GoVersion, m.OS, m.Arch)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// Go runtime counters read around a measured window.
const (
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU   = "/cpu/classes/total:cpu-seconds"
	rmGCPauses   = "/sched/pauses/total/gc:seconds"
	rmAllocObjs  = "/gc/heap/allocs:objects"
)

type rtSnapshot struct {
	samples []metrics.Sample
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{{Name: rmAllocBytes}, {Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmGCPauses}, {Name: rmAllocObjs}}
	metrics.Read(s)
	return rtSnapshot{samples: s}
}

func (r rtSnapshot) u64(i int) float64 {
	if r.samples[i].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(r.samples[i].Value.Uint64())
}

func (r rtSnapshot) f64(i int) float64 {
	if r.samples[i].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return r.samples[i].Value.Float64()
}

// runtimeWindow summarizes the runtime counters between two snapshots.
type runtimeWindow struct {
	AllocBytes  float64
	AllocObjs   float64
	GCCPUFrac   float64
	GCPauseP99s float64
	GCPauses    int
}

func diffRuntime(a, b rtSnapshot) runtimeWindow {
	w := runtimeWindow{
		AllocBytes: b.u64(0) - a.u64(0),
		AllocObjs:  b.u64(4) - a.u64(4),
	}
	if cpu := b.f64(2) - a.f64(2); cpu > 0 {
		w.GCCPUFrac = (b.f64(1) - a.f64(1)) / cpu
	}
	if a.samples[3].Value.Kind() == metrics.KindFloat64Histogram && b.samples[3].Value.Kind() == metrics.KindFloat64Histogram {
		ha, hb := a.samples[3].Value.Float64Histogram(), b.samples[3].Value.Float64Histogram()
		counts := make([]uint64, len(hb.Counts))
		var total uint64
		for i := range hb.Counts {
			counts[i] = hb.Counts[i]
			if i < len(ha.Counts) {
				counts[i] -= ha.Counts[i]
			}
			total += counts[i]
		}
		w.GCPauses = int(total)
		if total > 0 {
			target := uint64(float64(total)*0.99 + 0.5)
			if target < 1 {
				target = 1
			}
			var seen uint64
			for i, c := range counts {
				seen += c
				if seen >= target {
					// Upper edge of the bucket holding the 99th percentile
					// (its lower edge when the bucket is unbounded).
					w.GCPauseP99s = hb.Buckets[i+1]
					if math.IsInf(w.GCPauseP99s, 1) {
						w.GCPauseP99s = hb.Buckets[i]
					}
					break
				}
			}
		}
	}
	return w
}

// cpuSeconds is the process's user and system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}
