package quantizer

import (
	"errors"
	"fmt"
	"math"

	"sketchml/internal/invariant"
	"sketchml/internal/sketch/quantile"
)

// Pane quantizes one pane of values from a single sort. The codec holds
// the whole pane in memory, so the paper's streaming sketch is optional:
// one stable radix sort of (value, position) pairs yields both the exact
// order statistics the splits are read from and, walked once against the
// splits, every value's bucket index — O(n + q) after the sort instead of
// a binary search per value.
//
// Use: Sort the pane, then either Quantize it (splits, means, and bucket
// indexes) or take its distinct values with DistinctMeans. The zero value
// is ready to use; reusing one Pane recycles its buffers, so warm calls
// allocate nothing on the ExactAlgo path. Slices a Pane returns are owned
// by it and valid until its next Sort. A Pane is not safe for concurrent
// use.
type Pane struct {
	vals   []float64 // the input of the last Sort (read by sketch finders)
	sorted []ranked  // vals ascending, ties in position order
	tmp    []ranked  // radix scatter target
	idx    []uint32  // bucket index per position
	keys   []uint64  // split keys for the bucket walk
	splits []float64
	means  []float64
}

// ranked is one pane value in sort-key form, tagged with its position.
type ranked struct {
	key uint64
	pos uint32
}

// negZero is the bit pattern of −0.0.
const negZero = 1 << 63

// sortKey maps a finite float64 to a uint64 whose unsigned order is the
// float order. −0.0 is first canonicalised to +0.0: the two compare equal
// as floats, but −0.0's raw bits would sort it after every positive
// magnitude and make the splits non-monotone.
func sortKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b == negZero {
		b = 0
	}
	// Non-negative: set the sign bit so they sort above every negative.
	// Negative: flip all bits so larger magnitudes sort lower.
	return b ^ (uint64(int64(b)>>63) | negZero)
}

// fromKey inverts sortKey (returning +0.0 for either zero).
func fromKey(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | negZero))
}

// Sort orders vals for the other methods. vals must be finite (NaN has no
// rank) and at most math.MaxUint32 long; the Pane keeps a reference to it
// until the next Sort.
func (p *Pane) Sort(vals []float64) {
	if uint64(len(vals)) > math.MaxUint32 {
		invariant.Failf("quantizer: pane of %d values exceeds the uint32 position range", len(vals))
	}
	p.vals = vals
	a, idx := p.sorted[:0], p.idx[:0]
	for i, v := range vals {
		a = append(a, ranked{key: sortKey(v), pos: uint32(i)})
		idx = append(idx, 0)
	}
	p.idx = idx
	p.sorted, p.tmp = radixSort(a, append(p.tmp[:0], a...))
}

// radixSort stably sorts a by key with byte-wide LSD passes, scattering
// between a and tmp (same length), and returns the sorted buffer and the
// spare one. A pass on which every key has the same byte would be the
// identity permutation, so it is skipped; pane magnitudes, for one, share
// their top exponent byte.
func radixSort(a, tmp []ranked) (sorted, spare []ranked) {
	if len(a) < 2 {
		return a, tmp
	}
	var hist [8][256]uint32
	for _, e := range a {
		k := e.key
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	n := uint32(len(a))
	src, dst := a, tmp
	for pass := range hist {
		h := &hist[pass]
		shift := 8 * uint(pass)
		if h[byte(src[0].key>>shift)] == n {
			continue
		}
		var sum uint32
		for i, c := range h {
			h[i] = sum
			sum += c
		}
		for _, e := range src {
			b := byte(e.key >> shift)
			dst[h[b]] = e
			h[b]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// DistinctMeans returns the pane's distinct values ascending — a lossless
// means table — and, by position, each value's rank among them. It gives
// up and returns ok=false as soon as the pane holds more than limit
// distinct values.
func (p *Pane) DistinctMeans(limit int) (means []float64, idx []uint32, ok bool) {
	means, idx = p.means[:0], p.idx
	for i, e := range p.sorted {
		if i == 0 || e.key != p.sorted[i-1].key {
			if len(means) == limit {
				p.means = means
				return nil, nil, false
			}
			means = append(means, fromKey(e.key))
		}
		idx[e.pos] = uint32(len(means) - 1)
	}
	p.means = means
	return means, idx, true
}

// Splits returns q+1 non-decreasing split points for the sorted pane.
// ExactAlgo reads them off the sort: splits[i] is the order statistic at
// rank ⌈i·n/q⌉ (1-based; rank 0 reads the minimum), the rank GK.Query
// targets, so splits[0] is the minimum and splits[q] the maximum.
// GKAlgo and KLLAlgo stream the pane through a sketch of the given
// summary size instead; the seed only matters for KLLAlgo.
func (p *Pane) Splits(q, sketchSize int, algo SketchAlgo, seed int64) ([]float64, error) {
	if err := checkSplitArgs(len(p.sorted), q); err != nil {
		return nil, err
	}
	if algo != ExactAlgo {
		s, err := sketchSplits(p.vals, q, sketchSize, algo, seed)
		if err != nil {
			return nil, err
		}
		p.splits = append(p.splits[:0], s...)
		return p.splits, nil
	}
	n, uq := uint64(len(p.sorted)), uint64(q)
	splits := p.splits[:0]
	for i := uint64(0); i <= uq; i++ {
		r := (i*n + uq - 1) / uq
		if r > 0 {
			r--
		}
		splits = append(splits, fromKey(p.sorted[r].key))
	}
	p.splits = splits
	return splits, nil
}

// Buckets returns, by position, each value's bucket index under splits:
// exactly NewQuantileFromSplits(splits).Bucket(v), ties and clamping
// included, found by one monotone walk of the sorted values with a split
// cursor. splits must hold at least two non-decreasing points.
func (p *Pane) Buckets(splits []float64) []uint32 {
	keys := p.keys[:0]
	for _, s := range splits {
		keys = append(keys, sortKey(s))
	}
	p.keys = keys
	idx, last := p.idx, len(splits)-2 // last: the final bucket
	// lb is the lower bound Bucket searches for: the first split >= v. It
	// only moves forward because the values arrive ascending.
	lb := 0
	for _, e := range p.sorted {
		for lb < len(keys) && keys[lb] < e.key {
			lb++
		}
		b := lb - 1 // v lies strictly inside the bucket ending at split lb
		if lb < len(keys) && keys[lb] == e.key {
			b = lb // v sits on a split: the bucket starting there
		}
		idx[e.pos] = uint32(min(max(b, 0), last))
	}
	return idx
}

// Quantize finds q+1 splits with algo (see Splits) and returns the q
// bucket means — the split midpoints NewQuantileFromSplits computes — and
// every value's bucket index by position (see Buckets).
func (p *Pane) Quantize(q, sketchSize int, algo SketchAlgo, seed int64) (means []float64, idx []uint32, err error) {
	splits, err := p.Splits(q, sketchSize, algo, seed)
	if err != nil {
		return nil, nil, err
	}
	idx = p.Buckets(splits)
	p.means = appendMidpoints(p.means[:0], splits)
	return p.means, idx, nil
}

// appendMidpoints appends (splits[i]+splits[i+1])/2 for each bucket i.
func appendMidpoints(dst, splits []float64) []float64 {
	for i := 1; i < len(splits); i++ {
		dst = append(dst, (splits[i-1]+splits[i])/2)
	}
	return dst
}

// checkSplitArgs rejects the requests no split finder can serve.
func checkSplitArgs(n, q int) error {
	if n == 0 {
		return errors.New("quantizer: no values")
	}
	if q < 1 {
		return fmt.Errorf("quantizer: q=%d < 1", q)
	}
	return nil
}

// sketchSplits streams vals through a fresh GK or KLL sketch of the given
// summary size and returns its q+1 splits.
func sketchSplits(vals []float64, q, sketchSize int, algo SketchAlgo, seed int64) ([]float64, error) {
	if err := checkSplitArgs(len(vals), q); err != nil {
		return nil, err
	}
	if sketchSize < 2 {
		sketchSize = 2
	}
	var sk quantile.Sketch
	switch algo {
	case GKAlgo:
		sk = quantile.NewWithSize(sketchSize)
	case KLLAlgo:
		if sketchSize < 8 {
			sketchSize = 8
		}
		//lint:allow wire-determinism KLL's compaction draws from rand.New(rand.NewSource(seed)) with the caller's fixed seed, so its splits are a pure function of the values; the kll_default golden vector pins the bytes
		sk = quantile.NewKLL(sketchSize, seed)
	default:
		return nil, fmt.Errorf("quantizer: unknown sketch algorithm %d", algo)
	}
	sk.InsertAll(vals)
	return sk.Splits(q)
}
