package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is what the process and the machine had consumed at one instant;
// the difference of two snapshots brackets a measured phase.
type procSnap struct {
	wall       time.Time
	cpuSec     float64 // getrusage user + system of this process
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
	gcCPUSec   float64 // runtime/metrics: CPU the collector used
	allCPUSec  float64 // runtime/metrics: CPU available to the process
	stealTicks float64 // /proc/stat: ticks the hypervisor gave to others
	allTicks   float64 // /proc/stat: all ticks, every state
}

func snapProc() procSnap {
	s := procSnap{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpuSec = tvSec(ru.Utime) + tvSec(ru.Stime)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc, s.mallocs, s.numGC = ms.TotalAlloc, ms.Mallocs, ms.NumGC
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(cpu)
	if cpu[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPUSec = cpu[0].Value.Float64()
	}
	if cpu[1].Value.Kind() == metrics.KindFloat64 {
		s.allCPUSec = cpu[1].Value.Float64()
	}
	s.stealTicks, s.allTicks = readProcStat()
	return s
}

func tvSec(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// readProcStat returns the steal and total tick counts of the aggregate
// "cpu" line of /proc/stat; zeros when the file is unreadable (the
// steal_frac metric then reads 0).
func readProcStat() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9, 10) are already inside user/nice.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// peakRSSMB returns the process's high-water resident set (VmHWM) in MB;
// it falls back to getrusage's maxrss where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// liveHeapMB is the heap the last collection found reachable — a cheap
// read, so the measured loop can poll it between units of work.
func liveHeapMB() float64 {
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	if live[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(live[0].Value.Uint64()) / (1 << 20)
}
