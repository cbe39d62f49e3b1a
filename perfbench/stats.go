package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct returns the p-th percentile (nearest rank) of xs; +Inf values sort
// last. It returns 0 for an empty slice.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(xs []float64) float64 { return pct(xs, 50) }

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the Go heap in use (live and not-yet-swept objects)
// at each generator slot; the peak over a window approximates the heap the
// process needs.
type heapSampler struct {
	mu      sync.Mutex
	at      []time.Time
	bytes   []uint64
	samples []metrics.Sample
}

func newHeapSampler() *heapSampler {
	return &heapSampler{samples: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.samples)
	h.mu.Lock()
	h.at = append(h.at, time.Now())
	h.bytes = append(h.bytes, h.samples[0].Value.Uint64())
	h.mu.Unlock()
}

// peakMB returns the largest sample in [a, b) in MB and the sample count.
func (h *heapSampler) peakMB(a, b time.Time) (float64, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var peak uint64
	n := 0
	for i, t := range h.at {
		if !t.Before(a) && t.Before(b) {
			peak = max(peak, h.bytes[i])
			n++
		}
	}
	return float64(peak) / (1 << 20), n
}
