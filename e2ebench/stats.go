package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// quantile returns the nearest-rank q-quantile of values (0 < q <= 1): the
// smallest sample such that at least q of all samples are at or below it.
// It sorts a copy, so callers may pass values in any order. An empty input
// yields NaN, which the result validation refuses.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := slices.Clone(values)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the nearest-rank median.
func median(values []float64) float64 { return quantile(values, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// allocatedBytes reads the process's cumulative heap allocation without
// stopping the world (runtime/metrics, not ReadMemStats).
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler records the high-water mark of heap in use (live and unswept
// objects plus free space inside in-use spans — MemStats.HeapInuse) by
// polling runtime/metrics, which adds no stop-the-world pauses.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() {
		metrics.Read(samples)
		h.peak = max(h.peak, samples[0].Value.Uint64()+samples[1].Value.Uint64())
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes; it may be called
// more than once.
func (h *heapSampler) finish() uint64 {
	h.once.Do(func() { close(h.stop) })
	<-h.done
	return h.peak
}

// runtimeCounters are the GC and allocation totals a measured window is
// charged with. They are read only at window boundaries, so the brief
// stop-the-world of ReadMemStats never falls inside a window.
type runtimeCounters struct {
	gcCycles float64
	pauseNs  float64
	alloc    float64
}

func readRuntime() runtimeCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeCounters{gcCycles: float64(m.NumGC), pauseNs: float64(m.PauseTotalNs), alloc: float64(m.TotalAlloc)}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.gcCycles - o.gcCycles, c.pauseNs - o.pauseNs, c.alloc - o.alloc}
}

func (c runtimeCounters) add(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.gcCycles + o.gcCycles, c.pauseNs + o.pauseNs, c.alloc + o.alloc}
}

// window measures runtime counters across fn and adds them to acc.
func window(acc *runtimeCounters, fn func()) {
	before := readRuntime()
	fn()
	*acc = acc.add(readRuntime().sub(before))
}
