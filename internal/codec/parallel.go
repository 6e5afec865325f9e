package codec

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"sketchml/internal/quantizer"
	"sketchml/internal/sketch/minmax"
)

// This file holds the concurrency and buffer-reuse machinery behind the
// SketchML codec hot path. The paper's economics (Section 4.3, Figure 8c)
// only work while compression CPU stays far below the communication time it
// saves, so the codec must exploit cores and avoid allocator churn:
//
//   - forEach is a bounded worker pool over an index space. Every output is
//     written to a pre-owned position and errors are selected by lowest
//     index, so results are deterministic regardless of scheduling.
//   - The panes free list recycles each sign pane's working state
//     (partitioned entries, sort and bucket-index buffers), and sync.Pools
//     recycle the pane output buffers and decode scratch that used to be
//     reallocated on every Encode/Decode call.
//
// Wire bytes are bit-identical at every parallelism level: panes are
// independent and spliced in paneID order, group scatter preserves key
// order, and nothing on the encode path depends on goroutine interleaving.

// envParallelism reads SKETCHML_PARALLELISM once. The race-matrix harness
// (make race-matrix) uses it to sweep codec worker counts across a fixed
// test binary without plumbing an option through every test; it only
// applies when Options.Parallelism is 0 (auto), so explicit settings win.
var envParallelism = sync.OnceValue(func() int {
	if v := os.Getenv("SKETCHML_PARALLELISM"); v != "" {
		if p, err := strconv.Atoi(v); err == nil && p > 0 {
			return p
		}
	}
	return 0
})

// parallelism resolves Options.Parallelism: 0 means the
// SKETCHML_PARALLELISM environment override if set, else one worker per
// available CPU; 1 pins the serial path.
func (c *SketchML) parallelism() int {
	if p := c.opts.Parallelism; p > 0 {
		return p
	}
	if p := envParallelism(); p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn over [0, n) on at most par goroutines. When par <= 1 (or
// n <= 1) it degrades to a plain loop with early exit. Under concurrency
// every index runs exactly once and the returned error is the one from the
// lowest failing index, keeping error reporting deterministic.
func forEach(par, n int, fn func(i int) error) error {
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	//lint:allow hotpath-alloc per-fan-out error slots; the par<=1 branch above returns before this line, so serial hot paths never reach it
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		//lint:allow hotpath-alloc one worker closure per fan-out goroutine; unreachable from the serial par<=1 path
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- scratch pools ----
//
// The byte pool holds pointers to slices (not slices) so Put does not
// allocate a fresh interface box per cycle. getBytes returns an empty
// buffer; the caller must putBytes it back when the data is dead. Pooled
// memory is never handed to the caller of Encode/Decode — decoded
// gradients and encoded messages own their backing arrays outright.

var bytePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getBytes() *[]byte {
	b := bytePool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

func putBytes(b *[]byte) { bytePool.Put(b) }

// ---- pane scratch ----

// paneScratch is the working state of one sign pane in an encode or a
// merge: the pane's entries, the sorter that quantizes them, and the
// MinMax layout's key-routing buffer.
type paneScratch struct {
	keys []uint64
	vals []float64 // magnitudes on the negative pane
	flat []uint64  // keys scattered into per-group runs
	sort quantizer.Pane
}

// paneCache is a free list of pane scratch, the largest working state an
// encode or merge holds (about 60 bytes per value). A sync.Pool would drop
// it: the pool empties at every GC, and an entry parked in one P's private
// slot is invisible to a goroutine that has moved to another P, so at
// GOMAXPROCS > 1 an allocating encode would keep regrowing its buffers.
// The free list survives both. It is shared by every codec in the process,
// so it holds one pair per encode or merge that was ever in flight at once,
// not one per codec. Pairs are stored by value, so a miss is a zero pair
// whose buffers grow on first use.
type paneCache struct {
	mu   sync.Mutex
	free [][2]paneScratch
}

// split takes a pair of pane scratches and partitions the entries into
// them in ascending key order: pane 0 gets the non-negative values, pane
// 1 the magnitudes of the negative ones. Hand the pair back with put.
func (pc *paneCache) split(keys []uint64, vals []float64) (ps [2]paneScratch) {
	pc.mu.Lock()
	if n := len(pc.free); n > 0 {
		ps = pc.free[n-1]
		pc.free[n-1] = [2]paneScratch{}
		pc.free = pc.free[:n-1]
	}
	pc.mu.Unlock()
	pos, neg := &ps[0], &ps[1]
	pos.keys, pos.vals = pos.keys[:0], pos.vals[:0]
	neg.keys, neg.vals = neg.keys[:0], neg.vals[:0]
	for i, v := range vals {
		if v >= 0 {
			pos.keys = append(pos.keys, keys[i])
			pos.vals = append(pos.vals, v)
		} else {
			neg.keys = append(neg.keys, keys[i])
			neg.vals = append(neg.vals, -v)
		}
	}
	return ps
}

func (pc *paneCache) put(ps *[2]paneScratch) {
	pc.mu.Lock()
	pc.free = append(pc.free, *ps)
	pc.mu.Unlock()
}

var panes paneCache

// ---- decode scratch ----

// decodeScratch is the reusable per-call state behind DecodeInto's serial
// path: flat key/value stores reserved once per message (per-group lists
// alias windows of them, so nothing reallocates mid-decode), a means
// table, a bitpack index buffer, one grouped sketch rebuilt in place per
// pane, the per-group list headers, and the k-way-merge cursors. Pooled
// so steady-state decodes allocate nothing once capacities warm up.
type decodeScratch struct {
	means    []float64
	keys     []uint64 // flat backing; keyLists entries alias windows of it
	vals     []float64
	idx      []uint32
	grouped  *minmax.Grouped
	keyLists [][]uint64
	valLists [][]float64
	pos      []int // k-way-merge cursors
	usedK    int   // flat-store cursors
	usedV    int
}

var decodeScratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// getScratch returns pooled decode scratch; putScratch recycles it. The
// scratch never escapes DecodeInto — decoded gradients own their backing
// arrays outright.
func getScratch() *decodeScratch { return decodeScratchPool.Get().(*decodeScratch) }

func putScratch(sc *decodeScratch) { decodeScratchPool.Put(sc) }

// reset prepares the scratch for a message of at most total entries. The
// caller has already bounds-checked total against the message length.
func (sc *decodeScratch) reset(total int) {
	if cap(sc.keys) < total {
		//lint:allow hotpath-alloc grows the reusable flat key store; total is bounds-checked against the message length by the caller, and the capacity amortizes to zero once warm
		sc.keys = make([]uint64, 0, total)
	}
	if cap(sc.vals) < total {
		//lint:allow hotpath-alloc grows the reusable flat value store, same bound and amortization as the key store above
		sc.vals = make([]float64, 0, total)
	}
	sc.usedK, sc.usedV = 0, 0
	sc.keyLists = sc.keyLists[:0]
	sc.valLists = sc.valLists[:0]
}

// keyTail returns an empty slice aliasing the unused tail of the flat key
// store, for decode-into calls that fill it in place.
func (sc *decodeScratch) keyTail() []uint64 { return sc.keys[sc.usedK:sc.usedK] }

// claimKeys advances the flat-store cursor past keys when the decode
// landed in the tail. A decode that overflowed into a fresh slice (its
// capacity cannot match the tail's) costs nothing to skip.
func (sc *decodeScratch) claimKeys(keys []uint64) {
	if cap(keys) == cap(sc.keys)-sc.usedK {
		sc.usedK += len(keys)
	}
}

// grabVals returns a value slice of length n: a window of the flat value
// store when capacity allows, a fresh slice otherwise (hostile headers
// can understate the entry count; honest messages always fit).
func (sc *decodeScratch) grabVals(n int) []float64 {
	if n <= cap(sc.vals)-sc.usedV {
		v := sc.vals[sc.usedV : sc.usedV+n]
		sc.usedV += n
		return v
	}
	//lint:allow hotpath-alloc overflow fallback for hostile headers that understate the entry count; honest messages always fit the reserved flat store
	return make([]float64, n)
}
