package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU so far (getrusage), which
// counts every thread: the simulator's shard workers, the daemon's
// executors and the garbage collector alike.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// window measures one timed interval: wall clock, process CPU and
// heap objects allocated between open and close.
type window struct {
	t0    time.Time
	cpu0  time.Duration
	mall0 uint64

	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
}

func openWindow() *window {
	w := &window{mall0: mallocs(), cpu0: cpuTime()}
	w.t0 = time.Now()
	return w
}

func (w *window) close() {
	w.wall = time.Since(w.t0)
	w.cpu = cpuTime() - w.cpu0
	w.mallocs = mallocs() - w.mall0
}
