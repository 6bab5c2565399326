package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// div is a/b, or 0 when b is 0, so an unexercised layer reports 0 rather
// than a NaN the JSON encoder would refuse.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procSample is the process-wide cost counters at one instant: CPU time and
// peak RSS from getrusage, allocation and GC CPU from runtime/metrics.
type procSample struct {
	wall       time.Time
	cpuNS      float64
	maxRSSKB   float64
	allocObjs  float64
	allocBytes float64
	gcCPUSecs  float64
}

var rtMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuTime is a rusage's user plus system time, in ns.
func cpuTime(ru syscall.Rusage) float64 { return float64(ru.Utime.Nano() + ru.Stime.Nano()) }

// cpuNow is the process's CPU time so far, in ns.
func cpuNow() float64 { return cpuTime(rusage()) }

func sampleProc() procSample {
	ru := rusage()
	s := procSample{
		wall:     time.Now(),
		cpuNS:    cpuTime(ru),
		maxRSSKB: float64(ru.Maxrss),
	}
	samples := make([]metrics.Sample, len(rtMetricNames))
	for i, n := range rtMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch v := samples[i].Value; v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	s.allocObjs, s.allocBytes, s.gcCPUSecs = val(0), val(1), val(2)
	return s
}

// procDelta is the cost between two samples.
type procDelta struct {
	wall       time.Duration
	cpuNS      float64
	allocObjs  float64
	allocBytes float64
	gcCPUNS    float64
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		wall:       b.wall.Sub(a.wall),
		cpuNS:      b.cpuNS - a.cpuNS,
		allocObjs:  b.allocObjs - a.allocObjs,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCPUNS:    (b.gcCPUSecs - a.gcCPUSecs) * 1e9,
	}
}

// gcFrac is GC CPU over process CPU.
func (d procDelta) gcFrac() float64 { return div(d.gcCPUNS, d.cpuNS) }

// cpuUtil is process CPU over the wall time of every processor.
func (d procDelta) cpuUtil(nproc int) float64 {
	return div(d.cpuNS, float64(d.wall)*float64(nproc))
}

// peakMemMB is the process's peak resident set so far.
func peakMemMB() float64 { return sampleProc().maxRSSKB / 1024 }

// latencies collects samples from concurrent goroutines; each slot is
// written by one goroutine at a time (one per delivering switch), so the
// per-slot locks are uncontended.
type latencies struct {
	slots []latencySlot
}

type latencySlot struct {
	mu sync.Mutex
	xs []float64
	_  [32]byte // pad to 64 bytes: neighbouring slots share no cache line
}

func newLatencies(n int) *latencies { return &latencies{slots: make([]latencySlot, n)} }

func (l *latencies) add(slot int, v float64) {
	s := &l.slots[slot]
	s.mu.Lock()
	s.xs = append(s.xs, v)
	s.mu.Unlock()
}

// take returns every sample recorded so far and resets the collector.
func (l *latencies) take() []float64 {
	var all []float64
	for i := range l.slots {
		s := &l.slots[i]
		s.mu.Lock()
		all = append(all, s.xs...)
		s.xs = s.xs[:0]
		s.mu.Unlock()
	}
	return all
}
