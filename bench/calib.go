package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark runs in shares its processors with other
// tenants: over minutes, the same code runs anywhere from full speed to
// less than half of it, in wall time (the virtual CPU is descheduled)
// and to a lesser degree in CPU time (a busy sibling thread, a contended
// last-level cache). A median over reps cannot remove that — whole runs
// land in a slow period. So every timed window is bracketed by a
// calibration kernel that does a fixed, program-independent piece of
// work, and host-time metrics are reported at the speed of a reference
// host:
//
//	reported time = measured time × host speed around the window
//
// where host speed is the kernel's speed as a share of its speed on the
// reference host. A change to the program moves a metric exactly as it
// would unscaled; a change in how fast the host happens to be running
// mostly does not.

// The kernel has two halves, because the host slows down in ways that
// do not move together, and code feels each according to what it does:
// arithmetic that keeps every issue port busy loses most when a sibling
// thread shares the core, loads and stores lose most when caches are
// contended. Against 45 minutes of alternating net15_saturate reps and
// Fig. 5 cells on this host, each half alone was off by a factor of two
// one way or the other (the simulator slowed by 2.0× what pure
// arithmetic did, by 0.7× what cache-resident loads and stores did),
// while the geometric mean of the two tracked both workloads' wall and
// CPU time with no fitted constant: 30-second medians that ranged over
// 45 % as measured had a standard deviation of 3 % once scaled.
//
// Both halves run four independent chains, as an event loop's mix of
// comparisons, counters and pointer chasing does; calibMem's chains
// also read and write a 64 KB region — past the L1, inside the L2.
var calibMem [1 << 13]uint64

// Kernel operations per second on the reference host — this host when
// quiet — for each half.
const (
	referenceALU = 540e6
	referenceMem = 305e6
)

// calibChunk operations take a few microseconds.
const calibChunk = 1 << 12

// calibALU is n rounds of four independent arithmetic chains: nothing
// the program under test could speed up or slow down.
func calibALU(n int, s uint64) uint64 {
	a, b, c, d := s|1, s+7, s+13, s+29
	for i := 0; i < n; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b ^= b << 13
		b ^= b >> 7
		c = c*3935559000370003845 + 2691343689449507681
		d ^= d << 17
		d ^= d >> 9
		a += d & 3
		c += b & 1
	}
	return a ^ b ^ c ^ d
}

// calibMemory is n rounds of the same chains, each also indexing
// calibMem: four loads and a store per round.
func calibMemory(n int, s uint64) uint64 {
	a, b, c, d := s|1, s+7, s+13, s+29
	const mask = uint64(len(calibMem) - 1)
	var acc uint64
	for i := 0; i < n; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b = b*3935559000370003845 + 2691343689449507681
		c ^= c << 13
		c ^= c >> 7
		d ^= d << 17
		d ^= d >> 9
		acc += calibMem[(a>>33)&mask] + calibMem[(b>>33)&mask] + calibMem[c&mask] + calibMem[d&mask]
		calibMem[(a>>40)&mask] = acc
	}
	return acc
}

// hostSpeed is one calibration reading, as a share of the reference
// host's speed: per second of wall time and per second of the
// calibrating thread's CPU time. A measured wall (CPU) duration times
// Wall (CPU) is the duration the reference host would have taken.
type hostSpeed struct {
	Wall float64 `json:"wall"`
	CPU  float64 `json:"cpu"`
}

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID: the calling
// thread's CPU time to the nanosecond, so the collector's and the
// daemon's threads stay out of the reading. (getrusage(RUSAGE_THREAD)
// advances in scheduler ticks — too coarse for a 15 ms kernel.)
const clockThreadCPU = 3

func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// kernelSpeed runs one half of the kernel for about d and returns its
// operations per wall second and per CPU second.
func kernelSpeed(kernel func(n int, s uint64) uint64, d time.Duration) (wall, cpu float64) {
	ops := 0
	cpu0 := threadCPU()
	t0 := time.Now()
	var el time.Duration
	for el < d {
		sink += int(kernel(calibChunk, uint64(ops)+88172645463325252) & 1)
		ops += calibChunk
		el = time.Since(t0)
	}
	wall = float64(ops) / el.Seconds()
	cpu = wall
	if c := threadCPU() - cpu0; c > 0 {
		cpu = float64(ops) / c.Seconds()
	}
	return wall, cpu
}

// calibrate reads the host's speed, taking about d.
func calibrate(d time.Duration) hostSpeed {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	aw, ac := kernelSpeed(calibALU, d/2)
	mw, mc := kernelSpeed(calibMemory, d/2)
	return hostSpeed{
		Wall: math.Sqrt(aw / referenceALU * mw / referenceMem),
		CPU:  math.Sqrt(ac / referenceALU * mc / referenceMem),
	}
}

// between averages the readings taken before and after a window.
func between(a, b hostSpeed) hostSpeed {
	return hostSpeed{Wall: (a.Wall + b.Wall) / 2, CPU: (a.CPU + b.CPU) / 2}
}
