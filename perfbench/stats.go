package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// rank returns the nearest rank (1-based) of the p-th percentile among n
// samples. p is taken to a tenth of a percent and the arithmetic is done
// in integers, so p90 of 100 samples is rank 90, not 91.
func rank(p float64, n int) int {
	permille := int(math.Round(p * 10))
	return max(1, min((permille*n+999)/1000, n))
}

// percentile returns the nearest-rank p-th percentile of xs (0 if empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder holds the percentiles a tail may be reported at. The tail is
// the highest of them with at least ten samples beyond it, so it moves to
// a rarer percentile only when the sample count grows tenfold.
var tailLadder = []float64{99.9, 99, 95, 90, 50}

// tail returns the tail value of xs and the percentile it was taken at.
func tail(xs []float64) (value, pct float64) {
	for _, p := range tailLadder {
		if len(xs)-rank(p, len(xs)) >= 10 {
			return percentile(xs, p), p
		}
	}
	return percentile(xs, 100), 100
}

// liveHeap collects garbage and returns the live heap it left.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rtCounters is a reading of the Go runtime's own counters, or the
// difference of two readings.
type rtCounters struct {
	allocBytes   uint64  // heap allocation
	gcCycles     uint64  // completed GC cycles
	userCPU      float64 // estimated user-code CPU seconds, all threads
	pauseNs      uint64  // stop-the-world GC pause
	sched        []uint64
	schedBuckets []float64 // bucket boundaries of sched
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/user:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	h := s[3].Value.Float64Histogram()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtCounters{
		allocBytes:   s[0].Value.Uint64(),
		gcCycles:     s[1].Value.Uint64(),
		userCPU:      s[2].Value.Float64(),
		pauseNs:      ms.PauseTotalNs,
		sched:        append([]uint64(nil), h.Counts...),
		schedBuckets: h.Buckets,
	}
}

// sub returns what the runtime counted between reading a and reading b.
func (b rtCounters) sub(a rtCounters) rtCounters {
	d := rtCounters{
		allocBytes:   b.allocBytes - a.allocBytes,
		gcCycles:     b.gcCycles - a.gcCycles,
		userCPU:      b.userCPU - a.userCPU,
		pauseNs:      b.pauseNs - a.pauseNs,
		sched:        make([]uint64, len(b.sched)),
		schedBuckets: b.schedBuckets,
	}
	for i := range b.sched {
		d.sched[i] = b.sched[i] - a.sched[i]
	}
	return d
}

// schedP99 returns the 99th percentile scheduling latency, in seconds,
// over the summed histograms of ds: the upper edge of the bucket holding
// it.
func schedP99(ds []rtCounters) float64 {
	if len(ds) == 0 {
		return 0
	}
	sum := make([]uint64, len(ds[0].sched))
	var total uint64
	for _, d := range ds {
		for i, c := range d.sched {
			sum[i] += c
			total += c
		}
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	edges := ds[0].schedBuckets
	for i, c := range sum {
		cum += c
		if cum >= want {
			// Bucket i spans [edges[i], edges[i+1]).
			if hi := edges[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return edges[i]
		}
	}
	return 0
}
