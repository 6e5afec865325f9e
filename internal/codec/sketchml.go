package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"sketchml/internal/bitpack"
	"sketchml/internal/gradient"
	"sketchml/internal/hashing"
	"sketchml/internal/keycoding"
	"sketchml/internal/obs"
	"sketchml/internal/quantizer"
	"sketchml/internal/sketch/minmax"
)

// Options configures the SketchML codec. The zero value is not valid; start
// from DefaultOptions.
type Options struct {
	// Buckets is q, the number of quantile buckets per sign pane
	// (Section 3.2; the paper finds q=256 "often enough").
	Buckets int
	// SketchSize is m, the quantile sketch summary size (default 128).
	SketchSize int
	// Rows is s, the number of MinMaxSketch hash tables (default 2,
	// matching the paper's "size of MinMaxSketch is 2 × d/5").
	Rows int
	// ColsFraction sets t, the total MinMaxSketch bins, as a fraction of
	// the pane's nonzero count (default 0.2 = d/5).
	ColsFraction float64
	// MinCols floors the bin count for tiny gradients (default 8).
	MinCols int
	// Groups is r, the number of grouped sub-sketches (default 8); the
	// worst-case decoded index error is Buckets/Groups (Section 3.3).
	Groups int
	// Seed selects the hash family shared by encoder and decoder.
	Seed uint64
	// Parallelism bounds the worker pool used for the codec hot path:
	// panes encode concurrently and pane/group reconstruction decodes
	// concurrently. 0 (the default) means the SKETCHML_PARALLELISM
	// environment variable if it is set to a positive integer (the
	// race-matrix harness uses this), else one worker per available CPU
	// (GOMAXPROCS); 1 pins the serial path. The encoded bytes are
	// bit-identical at every setting — parallelism only changes wall time.
	Parallelism int
	// Algo selects how each pane's quantile splits are found. ExactAlgo
	// (the default) reads exact order statistics off the one sort that
	// also assigns every bucket index. GKAlgo and KLLAlgo (the algorithm
	// behind the DataSketches library the paper used) run the paper's
	// streaming sketch of SketchSize entries instead; they share the same
	// sort-based index assignment. The choice never affects the wire
	// format — only split quality and encode cost.
	Algo quantizer.SketchAlgo
	// Metrics, when non-nil, receives the codec's observability stream:
	// encode/decode counts and latencies, input floats vs. wire bytes, and
	// the quantile bucket-index distribution. nil (the default) disables
	// every instrument at the cost of one pointer compare per gated block;
	// the wire format is identical either way.
	Metrics *obs.Registry

	// Component switches for the Figure 8 ablation. MinMax requires
	// Quantize.
	DeltaKeys bool // delta-binary key encoding (the "Key" component)
	Quantize  bool // quantile-bucket quantification ("Quan")
	MinMax    bool // MinMaxSketch index compression ("MinMax")
}

// DefaultOptions returns the paper's default configuration with every
// component enabled.
func DefaultOptions() Options {
	return Options{
		Buckets:      256,
		SketchSize:   128,
		Rows:         2,
		ColsFraction: 0.2,
		MinCols:      8,
		Groups:       8,
		Seed:         0x5ee7c4b1d2a90f38,
		Algo:         quantizer.ExactAlgo,
		DeltaKeys:    true,
		Quantize:     true,
		MinMax:       true,
	}
}

// SketchML is the paper's compression framework.
type SketchML struct {
	opts Options
	met  *codecMetrics // nil unless Options.Metrics is set
}

// NewSketchML validates opts and builds the codec.
func NewSketchML(opts Options) (*SketchML, error) {
	if opts.Buckets < 1 || opts.Buckets > 1<<16 {
		return nil, fmt.Errorf("codec: Buckets %d out of [1, 65536]", opts.Buckets)
	}
	if opts.SketchSize < 2 {
		return nil, fmt.Errorf("codec: SketchSize %d < 2", opts.SketchSize)
	}
	if opts.Rows < 1 {
		return nil, fmt.Errorf("codec: Rows %d < 1", opts.Rows)
	}
	if opts.ColsFraction <= 0 || opts.ColsFraction > 1 {
		return nil, fmt.Errorf("codec: ColsFraction %v out of (0, 1]", opts.ColsFraction)
	}
	if opts.MinCols < 1 {
		opts.MinCols = 1
	}
	if opts.Groups < 1 {
		return nil, fmt.Errorf("codec: Groups %d < 1", opts.Groups)
	}
	if opts.Parallelism < 0 {
		return nil, fmt.Errorf("codec: Parallelism %d < 0", opts.Parallelism)
	}
	if opts.MinMax && !opts.Quantize {
		return nil, errors.New("codec: MinMax requires Quantize")
	}
	return &SketchML{opts: opts, met: newCodecMetrics(opts.Metrics)}, nil
}

// MustSketchML is NewSketchML that panics on bad options; for tests and
// example binaries with literal configs.
func MustSketchML(opts Options) *SketchML {
	c, err := NewSketchML(opts)
	if err != nil {
		panic(err)
	}
	return c
}

// Options returns the codec's configuration.
func (c *SketchML) Options() Options { return c.opts }

// Name implements Codec: "SketchML" for the full stack, otherwise the
// ablation name the paper uses ("Adam+Key", "Adam+Key+Quan", ...).
func (c *SketchML) Name() string {
	if c.opts.DeltaKeys && c.opts.Quantize && c.opts.MinMax {
		return "SketchML"
	}
	name := "Adam"
	if c.opts.DeltaKeys {
		name += "+Key"
	}
	if c.opts.Quantize {
		name += "+Quan"
	}
	if c.opts.MinMax {
		name += "+MinMax"
	}
	return name
}

const (
	smFlagDeltaKeys = 1 << 0
	smFlagQuantize  = 1 << 1
	smFlagMinMax    = 1 << 2
	smFlagWideKeys  = 1 << 3
)

// Encode implements Codec.
//
//sketchlint:hotpath
func (c *SketchML) Encode(g *gradient.Sparse) ([]byte, error) {
	m := c.met
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	//lint:allow hotpath-alloc Encode's contract is a fresh caller-owned message, and each MinMax pane builds a per-message grouped sketch; BENCH_ceilings.json pins the total allocs/op
	out, _, err := c.encode(g)
	if m != nil && err == nil {
		m.encodeNs.Since(t0)
		m.encodes.Inc()
		m.inFloats.Add(int64(len(g.Values)))
		m.outBytes.Add(int64(len(out)))
	}
	return out, err
}

// Analyze implements Analyzer.
func (c *SketchML) Analyze(g *gradient.Sparse) (Breakdown, error) {
	_, bd, err := c.encode(g)
	return bd, err
}

func (c *SketchML) encode(g *gradient.Sparse) ([]byte, Breakdown, error) {
	var bd Breakdown
	if err := g.Validate(); err != nil {
		return nil, bd, err
	}
	wide := wideKeys(g.Dim)
	var flags byte
	if c.opts.DeltaKeys {
		flags |= smFlagDeltaKeys
	}
	if c.opts.Quantize {
		flags |= smFlagQuantize
	}
	if c.opts.MinMax {
		flags |= smFlagMinMax
	}
	if wide {
		flags |= smFlagWideKeys
	}
	// Presize for the common shape: fixed header, two means tables, ~2.5
	// bytes per key after delta/bitpack compression. Undershoot only costs
	// one growth step.
	out := make([]byte, 0, 64+16*c.opts.Buckets+3*len(g.Keys))
	out = append(out, tagSketchML, flags)
	out = appendU64(out, g.Dim)
	out = appendU32(out, uint32(len(g.Keys)))
	// Rotate the hash seed per message, derived deterministically from the
	// gradient's content. A static seed would make the same keys collide in
	// the MinMaxSketch round after round, permanently decaying those
	// coordinates (and defeating error-feedback wrappers); rotation makes
	// the decay average out across rounds. The decoder reads the seed from
	// this header.
	msgSeed := hashing.Mix64(contentFingerprint(g), c.opts.Seed)
	out = appendU64(out, msgSeed)
	bd.Header = len(out)

	if !c.opts.Quantize {
		// "Adam+Key" ablation: delta keys + raw float64 values.
		var err error
		mark := len(out)
		out, err = c.appendKeys(out, g.Keys, wide)
		if err != nil {
			return nil, bd, err
		}
		bd.Keys = len(out) - mark
		mark = len(out)
		for _, v := range g.Values {
			out = appendF64(out, v)
		}
		bd.Values = len(out) - mark
		return out, bd, nil
	}

	out = appendU32(out, uint32(c.opts.Buckets))
	bd.Header += 4

	// Partition into sign panes, preserving ascending key order.
	ps := panes.split(g.Keys, g.Values)
	defer panes.put(&ps)
	if par := c.parallelism(); par > 1 {
		// Panes are independent; encode them concurrently into pooled
		// buffers and splice in paneID order for bit-identical output.
		var bufs [2]*[]byte
		var bds [2]Breakdown
		for i := range bufs {
			bufs[i] = getBytes()
		}
		defer putBytes(bufs[0])
		defer putBytes(bufs[1])
		// The fan-out closure escapes to the worker goroutines, so it gets
		// its own copy of the pane pair (heap-allocated on this path only)
		// and hands the grown buffers back for the deferred put.
		fan := ps
		err := forEach(par, 2, func(i int) error {
			var pt0 time.Time
			if c.met != nil {
				pt0 = time.Now()
			}
			var perr error
			*bufs[i], perr = c.encodePane((*bufs[i])[:0], &bds[i], msgSeed, g.Dim,
				&fan[i], uint64(i), wide)
			if c.met != nil && perr == nil {
				c.met.paneEncodeNs.Since(pt0)
			}
			return perr
		})
		ps = fan
		if err != nil {
			return nil, bd, err
		}
		for i := range bufs {
			out = append(out, *bufs[i]...)
			bd.Header += bds[i].Header
			bd.Keys += bds[i].Keys
			bd.Values += bds[i].Values
			bd.Meta += bds[i].Meta
		}
		return out, bd, nil
	}
	var err error
	for i := 0; i < 2; i++ {
		var pt0 time.Time
		if c.met != nil {
			pt0 = time.Now()
		}
		out, err = c.encodePane(out, &bd, msgSeed, g.Dim, &ps[i], uint64(i), wide)
		if err != nil {
			return nil, bd, err
		}
		if c.met != nil {
			c.met.paneEncodeNs.Since(pt0)
		}
	}
	return out, bd, nil
}

// contentFingerprint hashes a gradient's shape and a sample of its content
// into a per-message value for hash-seed rotation. It is deterministic for
// identical gradients.
func contentFingerprint(g *gradient.Sparse) uint64 {
	h := uint64(len(g.Keys))
	if n := len(g.Keys); n > 0 {
		h = hashing.Mix64(h, g.Keys[0])
		h = hashing.Mix64(h, g.Keys[n-1])
		h = hashing.Mix64(h, math.Float64bits(g.Values[0]))
		h = hashing.Mix64(h, math.Float64bits(g.Values[n-1]))
		h = hashing.Mix64(h, math.Float64bits(g.Values[n/2]))
	}
	return h
}

// paneBuckets is the quantile budget of a pane of n values. The q-entry
// means table costs 8q bytes per pane, which only amortizes when d >> q
// (the paper's regime). For small gradients, q is capped at d/16 so the
// table stays a small fraction of the message.
func (c *SketchML) paneBuckets(n int) int {
	return max(min(c.opts.Buckets, n/16), 2)
}

// encodePane serializes one sign pane. paneID feeds the hash seed
// derivation.
func (c *SketchML) encodePane(out []byte, bd *Breakdown, msgSeed uint64, dim uint64, ps *paneScratch, paneID uint64, wide bool) ([]byte, error) {
	keys := ps.keys
	out = appendU32(out, uint32(len(keys)))
	bd.Header += 4
	if len(keys) == 0 {
		return out, nil
	}
	qEff := c.paneBuckets(len(keys))
	// One sort of the pane yields both the splits and every value's
	// bucket index.
	ps.sort.Sort(ps.vals)
	means, buckets, err := ps.sort.Quantize(qEff, c.opts.SketchSize, c.opts.Algo, int64(c.opts.Seed))
	if err != nil {
		return nil, err
	}
	c.met.observeBucketIndexes(buckets, len(means))
	mark := len(out)
	out = appendU32(out, uint32(len(means)))
	for _, m := range means {
		out = appendF64(out, m)
	}
	bd.Meta += len(out) - mark

	if !c.opts.MinMax {
		// Explicit bit-packed index array aligned with the pane key list.
		mark = len(out)
		out, err = c.appendKeys(out, keys, wide)
		if err != nil {
			return nil, err
		}
		bd.Keys += len(out) - mark
		mark = len(out)
		out = bitpack.AppendBlock(out, buckets, bitpack.BitsFor(len(means)))
		bd.Values += len(out) - mark
		return out, nil
	}

	// MinMaxSketch path: grouped sketch + per-group key lists.
	cols := int(c.opts.ColsFraction * float64(len(keys)))
	if cols < c.opts.MinCols {
		cols = c.opts.MinCols
	}
	// Adapt the group count to the key density: splitting keys into r group
	// lists multiplies the expected delta gap by r (Appendix A.3's
	// bytes/key = ⌈log2(rD/d)/8⌉), so grouping only pays when r·D/d keeps
	// per-group deltas at one byte. Cap r so the expected group gap stays
	// below 256.
	groups := c.opts.Groups
	if fdim := float64(dim); fdim > 0 {
		if maxR := int(255 * float64(len(keys)) / fdim); maxR < groups {
			groups = maxR
		}
	}
	if groups < 1 {
		groups = 1
	}
	paneSeed := hashing.Mix64(paneID, msgSeed)
	grouped := minmax.NewGrouped(c.opts.Rows, cols, len(means), groups, paneSeed)
	ng := grouped.NumGroups()

	// Route each key to its group with a counting scatter over one reused
	// flat buffer instead of growing ng separate lists: pass 1 counts the
	// group sizes (also feeding the sketch inserts), pass 2 scatters keys
	// to contiguous per-group regions. Scattering in key order keeps every
	// group slice ascending — the same lists, hence the same bytes, the
	// per-group append construction produced.
	counts := make([]int, ng+1)
	for i, k := range keys {
		b := int(buckets[i])
		counts[grouped.GroupOf(b)+1]++
		grouped.Insert(k, b)
	}
	for g := 1; g <= ng; g++ {
		counts[g] += counts[g-1] // now counts[g] is group g's start offset
	}
	flat := append(ps.flat[:0], keys...) // sized to the pane; overwritten below
	ps.flat = flat
	cursors := make([]int, ng)
	copy(cursors, counts[:ng])
	for i, k := range keys {
		grp := grouped.GroupOf(int(buckets[i]))
		flat[cursors[grp]] = k
		cursors[grp]++
	}

	mark = len(out)
	out, err = grouped.AppendBinary(out)
	if err != nil {
		return nil, err
	}
	bd.Values += len(out) - mark
	mark = len(out)
	for grp := 0; grp < ng; grp++ {
		out, err = c.appendKeys(out, flat[counts[grp]:counts[grp+1]], wide)
		if err != nil {
			return nil, err
		}
	}
	bd.Keys += len(out) - mark
	return out, nil
}

// appendKeys writes a key list with the configured key codec.
func (c *SketchML) appendKeys(out []byte, keys []uint64, wide bool) ([]byte, error) {
	if c.opts.DeltaKeys {
		return keycoding.AppendDelta(out, keys)
	}
	out = appendU32(out, uint32(len(keys)))
	for _, k := range keys {
		if wide {
			out = appendU64(out, k)
		} else {
			out = appendU32(out, uint32(k))
		}
	}
	return out, nil
}

// decodeKeys reads a key list written by appendKeys into fresh storage.
func decodeKeys(r *reader, delta, wide bool) ([]uint64, error) {
	return decodeKeysInto(r, delta, wide, nil)
}

// decodeKeysInto reads a key list written by appendKeys into dst's
// storage, reused when its capacity covers the wire count and grown
// otherwise; the (possibly regrown) slice is returned.
func decodeKeysInto(r *reader, delta, wide bool, dst []uint64) ([]uint64, error) {
	if delta {
		keys, used, err := keycoding.DecodeDeltaInto(r.rest(), dst)
		if err != nil {
			return nil, err
		}
		if err := r.advance(used); err != nil {
			return nil, err
		}
		return keys, nil
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	kb := 4
	if wide {
		kb = 8
	}
	if int64(r.remain()) < int64(count)*int64(kb) {
		return nil, errTruncated
	}
	keys := dst
	if cap(keys) >= int(count) {
		keys = keys[:count]
	} else {
		//lint:allow hotpath-alloc grows the caller's reusable key buffer; amortized to zero once capacity warms up
		keys = make([]uint64, count)
	}
	for i := range keys {
		if wide {
			keys[i], err = r.u64()
		} else {
			var k32 uint32
			k32, err = r.u32()
			keys[i] = uint64(k32)
		}
		if err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// Decode implements Codec, returning a freshly allocated gradient. It is
// a thin wrapper over DecodeInto for callers that want a new result each
// call; steady-state callers reuse one gradient via DecodeInto and
// allocate nothing.
//
//sketchlint:hotpath
func (c *SketchML) Decode(data []byte) (*gradient.Sparse, error) {
	//lint:allow hotpath-alloc Decode's contract is a fresh caller-owned result; the zero-allocation path is DecodeInto
	g := &gradient.Sparse{}
	if err := c.DecodeInto(data, g); err != nil {
		return nil, err
	}
	return g, nil
}

// DecodeInto implements DecoderInto: it decodes data into dst, reusing
// dst's key/value storage and growing it only when capacity falls short.
// On success dst holds the decoded gradient; on error dst's contents are
// unspecified. Like Decode it is safe for concurrent use provided each
// goroutine passes its own dst.
//
//sketchlint:hotpath
func (c *SketchML) DecodeInto(data []byte, dst *gradient.Sparse) error {
	m := c.met
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	err := c.decodeInto(data, dst)
	if m != nil && err == nil {
		m.decodeNs.Since(t0)
		m.decodes.Inc()
		m.inBytes.Add(int64(len(data)))
	}
	return err
}

func (c *SketchML) decodeInto(data []byte, dst *gradient.Sparse) error {
	r := reader{data: data}
	if err := checkTag(&r, tagSketchML); err != nil {
		return err
	}
	flags, err := r.u8()
	if err != nil {
		return err
	}
	delta := flags&smFlagDeltaKeys != 0
	quant := flags&smFlagQuantize != 0
	mm := flags&smFlagMinMax != 0
	wide := flags&smFlagWideKeys != 0
	dim, err := r.u64()
	if err != nil {
		return err
	}
	count, err := r.u32()
	if err != nil {
		return err
	}
	seed, err := r.u64()
	if err != nil {
		return err
	}
	dst.Dim = dim
	dst.Reset()

	if !quant {
		keys, err := decodeKeysInto(&r, delta, wide, dst.Keys[:0])
		if err != nil {
			return err
		}
		dst.Keys = keys
		if uint32(len(keys)) != count {
			return fmt.Errorf("codec: key count %d, header says %d", len(keys), count)
		}
		if int64(r.remain()) < int64(len(keys))*8 {
			return errTruncated
		}
		vals := dst.Values
		if cap(vals) >= len(keys) {
			vals = vals[:len(keys)]
		} else {
			//lint:allow hotpath-alloc grows dst's reusable value storage; amortized to zero once capacity warms up
			vals = make([]float64, len(keys))
		}
		dst.Values = vals
		for i := range vals {
			if vals[i], err = r.f64(); err != nil {
				return err
			}
		}
		if err := dst.Validate(); err != nil {
			return fmt.Errorf("codec: corrupt message: %w", err)
		}
		return nil
	}

	if _, err := r.u32(); err != nil { // configured bucket count (informational)
		return err
	}
	// Bound the flat-scratch reservation before trusting the header: every
	// decoded entry costs at least one wire byte (a delta byte, key byte,
	// or packed index), so a count beyond the message length is hostile.
	if int(count) < 0 || int(count) > len(data) {
		return fmt.Errorf("codec: count %d exceeds message size %d", count, len(data))
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.reset(int(count))

	if par := c.parallelism(); par > 1 {
		// Locate the pane boundary with a cheap structural scan (headers and
		// flag streams only — no key or sketch materialization), then decode
		// both panes concurrently. Each pane writes to its own result slot,
		// so the merged output is deterministic. The fan-out allocates its
		// per-pane lists — the price of parallel decode, the same trade
		// gatherRound makes per round; the serial path below is the pooled
		// zero-allocation steady state.
		rest := r.rest()
		len0, err := skipPane(rest, delta, mm, wide)
		if err != nil {
			return fmt.Errorf("codec: pane 0: %w", err)
		}
		paneData := [2][]byte{rest[:len0], rest[len0:]}
		var paneLists [2][][]uint64
		var paneVLists [2][][]float64
		consumed := len0
		gpar := par / 2
		if gpar < 1 {
			gpar = 1
		}
		//lint:allow hotpath-alloc one closure per parallel decode for the pane fan-out; the serial path shares no state and allocates nothing
		err = forEach(par, 2, func(i int) error {
			var pt0 time.Time
			if c.met != nil {
				pt0 = time.Now()
			}
			//lint:allow hotpath-alloc per-pane cursor of the parallel fan-out; the serial path uses a stack reader
			pr := &reader{data: paneData[i]}
			pk, pv, perr := decodePane(pr, delta, mm, wide, uint64(i), seed, gpar)
			if perr != nil {
				return fmt.Errorf("codec: pane %d: %w", i, perr)
			}
			if c.met != nil {
				c.met.paneDecodeNs.Since(pt0)
			}
			if i == 1 {
				for _, list := range pv {
					for j := range list {
						list[j] = -list[j]
					}
				}
				consumed += pr.off // pane 1's tail offset; pane 0 consumed len0 by construction
			}
			paneLists[i] = pk
			paneVLists[i] = pv
			return nil
		})
		if err != nil {
			return err
		}
		if err := r.advance(consumed); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			sc.keyLists = append(sc.keyLists, paneLists[i]...)
			sc.valLists = append(sc.valLists, paneVLists[i]...)
		}
	} else {
		for paneID := uint64(0); paneID < 2; paneID++ {
			var pt0 time.Time
			if c.met != nil {
				pt0 = time.Now()
			}
			start := len(sc.valLists)
			if err := c.decodePaneInto(&r, sc, delta, mm, wide, paneID, seed); err != nil {
				return fmt.Errorf("codec: pane %d: %w", paneID, err)
			}
			if c.met != nil {
				c.met.paneDecodeNs.Since(pt0)
			}
			if paneID == 1 {
				for _, list := range sc.valLists[start:] {
					for i := range list {
						list[i] = -list[i]
					}
				}
			}
		}
	}
	if err := mergeSortedListsInto(dst, sc.keyLists, sc.valLists, sc); err != nil {
		return err
	}
	if uint32(len(dst.Keys)) != count {
		return fmt.Errorf("codec: decoded %d entries, header says %d", len(dst.Keys), count)
	}
	return nil
}

// skipPane returns the encoded length of one sign pane at the head of data
// without materializing keys, values, or sketches — only fixed headers and
// the delta flag streams are touched. It is the cheap structural scan that
// lets the decoder hand whole panes to parallel workers.
func skipPane(data []byte, delta, mm, wide bool) (int, error) {
	if len(data) < 4 {
		return 0, errTruncated
	}
	paneCount := binary.LittleEndian.Uint32(data)
	off := 4
	if paneCount == 0 {
		return off, nil
	}
	if len(data) < off+4 {
		return 0, errTruncated
	}
	nMeans := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if nMeans == 0 || nMeans > 1<<16 {
		return 0, fmt.Errorf("implausible means count %d", nMeans)
	}
	if len(data)-off < int(nMeans)*8 {
		return 0, errTruncated
	}
	off += int(nMeans) * 8

	//lint:allow hotpath-alloc one closure per parallel decode's structural pane scan; the serial steady state never calls skipPane
	skipKeys := func() error {
		if delta {
			_, used, err := keycoding.SkipDelta(data[off:])
			if err != nil {
				return err
			}
			off += used
			return nil
		}
		if len(data)-off < 4 {
			return errTruncated
		}
		count := int(binary.LittleEndian.Uint32(data[off:]))
		kb := 4
		if wide {
			kb = 8
		}
		need := 4 + count*kb
		if count < 0 || len(data)-off < need {
			return errTruncated
		}
		off += need
		return nil
	}

	if !mm {
		if err := skipKeys(); err != nil {
			return 0, err
		}
		used, err := bitpack.BlockLen(data[off:])
		if err != nil {
			return 0, err
		}
		return off + used, nil
	}

	if len(data)-off < 4 {
		return 0, errTruncated
	}
	numGroups := int(binary.LittleEndian.Uint32(data[off:])) // grouped header leads with n
	used, err := minmax.SkipGrouped(data[off:])
	if err != nil {
		return 0, err
	}
	off += used
	//lint:allow wire-taint every iteration consumes >=4 bytes of data or fails with errTruncated, so the loop runs at most len(data)/4 times regardless of the header value
	for grp := 0; grp < numGroups; grp++ {
		if err := skipKeys(); err != nil {
			return 0, fmt.Errorf("group %d keys: %w", grp, err)
		}
	}
	return off, nil
}

// decodePane parses one sign pane, returning per-group ascending key lists
// and their decoded magnitude lists. par bounds the workers used for value
// reconstruction across groups (the structural parse is inherently
// sequential in the byte stream). It backs the parallel fan-out only,
// where each pane needs independently owned output; the serial steady
// state goes through decodePaneInto, which reuses pooled scratch instead.
func decodePane(r *reader, delta, mm, wide bool, paneID, seed uint64, par int) ([][]uint64, [][]float64, error) {
	paneCount, err := r.u32()
	if err != nil {
		return nil, nil, err
	}
	if paneCount == 0 {
		return nil, nil, nil
	}
	nMeans, err := r.u32()
	if err != nil {
		return nil, nil, err
	}
	if nMeans == 0 || nMeans > 1<<16 {
		return nil, nil, fmt.Errorf("implausible means count %d", nMeans)
	}
	//lint:allow hotpath-alloc parallel-path pane output; the serial steady state reuses sc.means via decodePaneInto
	means := make([]float64, nMeans)
	for i := range means {
		if means[i], err = r.f64(); err != nil {
			return nil, nil, err
		}
	}

	if !mm {
		keys, err := decodeKeys(r, delta, wide)
		if err != nil {
			return nil, nil, err
		}
		idx, used, err := bitpack.DecodeBlock(r.rest())
		if err != nil {
			return nil, nil, err
		}
		if err := r.advance(used); err != nil {
			return nil, nil, err
		}
		if len(idx) != len(keys) {
			return nil, nil, fmt.Errorf("%d indexes for %d keys", len(idx), len(keys))
		}
		//lint:allow hotpath-alloc parallel-path pane output; the serial steady state draws from sc's flat value store
		vals := make([]float64, len(keys))
		for i, id := range idx {
			if int(id) >= len(means) {
				return nil, nil, fmt.Errorf("index %d out of %d buckets", id, len(means))
			}
			vals[i] = means[id]
		}
		//lint:allow hotpath-alloc parallel-path list headers; the serial steady state appends to sc.keyLists/sc.valLists
		return [][]uint64{keys}, [][]float64{vals}, nil
	}

	paneSeed := hashing.Mix64(paneID, seed)
	grouped, used, err := minmax.DecodeGrouped(r.rest(), paneSeed)
	if err != nil {
		return nil, nil, err
	}
	if err := r.advance(used); err != nil {
		return nil, nil, err
	}
	// The key lists are parsed sequentially (each one's offset depends on
	// the previous), then the sketch queries — the dominant decode cost —
	// fan out across groups. Queries are read-only on the sketch and every
	// group writes only its own slot, so the result is deterministic.
	ng := grouped.NumGroups()
	//lint:allow hotpath-alloc,unbounded-wire-alloc ng counts successfully decoded sketches; minmax.DecodeGrouped caps the header at 1<<16 groups, and this parallel-path output is replaced by pooled scratch in the serial decodePaneInto
	keyLists := make([][]uint64, ng)
	//lint:allow hotpath-alloc,unbounded-wire-alloc same bound and parallel-path rationale as keyLists above
	valLists := make([][]float64, ng)
	for grp := 0; grp < ng; grp++ {
		keys, err := decodeKeys(r, delta, wide)
		if err != nil {
			return nil, nil, fmt.Errorf("group %d keys: %w", grp, err)
		}
		keyLists[grp] = keys
	}
	if par <= 1 {
		// The loop body is duplicated rather than shared through a closure:
		// a func value handed to forEach anywhere in this function is
		// heap-allocated on every call, which would charge the serial decode
		// path two allocations it never had before parallelization.
		for grp := 0; grp < ng; grp++ {
			keys := keyLists[grp]
			//lint:allow hotpath-alloc parallel-path group output; the serial steady state draws from sc's flat value store
			vals := make([]float64, len(keys))
			for i, k := range keys {
				b, ok := grouped.Query(grp, k)
				if !ok {
					return nil, nil, fmt.Errorf("group %d: key %d missing from sketch", grp, k)
				}
				if b >= len(means) {
					b = len(means) - 1
				}
				vals[i] = means[b]
			}
			valLists[grp] = vals
		}
		return keyLists, valLists, nil
	}
	//lint:allow hotpath-alloc one closure per parallel pane decode; the serial path duplicates the loop body to stay allocation-free
	err = forEach(par, ng, func(grp int) error {
		keys := keyLists[grp]
		//lint:allow hotpath-alloc parallel-path group output; the serial steady state draws from sc's flat value store
		vals := make([]float64, len(keys))
		for i, k := range keys {
			b, ok := grouped.Query(grp, k)
			if !ok {
				return fmt.Errorf("group %d: key %d missing from sketch", grp, k)
			}
			if b >= len(means) {
				b = len(means) - 1
			}
			vals[i] = means[b]
		}
		valLists[grp] = vals
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return keyLists, valLists, nil
}

// decodePaneInto is decodePane's pooled serial twin: it parses one sign
// pane and appends per-group ascending key lists (windows of sc's flat
// key store) and their decoded magnitude lists to sc.keyLists and
// sc.valLists. Once sc's capacities are warm it allocates nothing.
func (c *SketchML) decodePaneInto(r *reader, sc *decodeScratch, delta, mm, wide bool, paneID, seed uint64) error {
	paneCount, err := r.u32()
	if err != nil {
		return err
	}
	if paneCount == 0 {
		return nil
	}
	nMeans, err := r.u32()
	if err != nil {
		return err
	}
	if nMeans == 0 || nMeans > 1<<16 {
		return fmt.Errorf("implausible means count %d", nMeans)
	}
	means := sc.means
	if cap(means) >= int(nMeans) {
		means = means[:nMeans]
	} else {
		//lint:allow hotpath-alloc grows the reusable means table; nMeans is bounds-checked above and the capacity amortizes to zero once warm
		means = make([]float64, nMeans)
	}
	sc.means = means
	for i := range means {
		if means[i], err = r.f64(); err != nil {
			return err
		}
	}

	if !mm {
		keys, err := decodeKeysInto(r, delta, wide, sc.keyTail())
		if err != nil {
			return err
		}
		sc.claimKeys(keys)
		idx, used, err := bitpack.DecodeBlockInto(r.rest(), sc.idx[:0])
		if err != nil {
			return err
		}
		sc.idx = idx
		if err := r.advance(used); err != nil {
			return err
		}
		if len(idx) != len(keys) {
			return fmt.Errorf("%d indexes for %d keys", len(idx), len(keys))
		}
		vals := sc.grabVals(len(keys))
		for i, id := range idx {
			if int(id) >= len(means) {
				return fmt.Errorf("index %d out of %d buckets", id, len(means))
			}
			vals[i] = means[id]
		}
		sc.keyLists = append(sc.keyLists, keys)
		sc.valLists = append(sc.valLists, vals)
		return nil
	}

	paneSeed := hashing.Mix64(paneID, seed)
	grouped, used, err := minmax.DecodeGroupedReuse(r.rest(), paneSeed, sc.grouped)
	if err != nil {
		return err
	}
	sc.grouped = grouped
	if err := r.advance(used); err != nil {
		return err
	}
	// Unlike decodePane, key parsing and sketch queries interleave per
	// group: each group's sketch is fully decoded before its keys arrive,
	// and queries are read-only, so the output is identical to the
	// parse-all-then-query order.
	ng := grouped.NumGroups()
	for grp := 0; grp < ng; grp++ {
		keys, err := decodeKeysInto(r, delta, wide, sc.keyTail())
		if err != nil {
			return fmt.Errorf("group %d keys: %w", grp, err)
		}
		sc.claimKeys(keys)
		vals := sc.grabVals(len(keys))
		for i, k := range keys {
			//lint:allow wire-taint Query hashes the key through the family (index = hash mod buckets) and clamps the bucket to numBuckets, so wire-derived keys cannot index out of range
			b, ok := grouped.Query(grp, k)
			if !ok {
				return fmt.Errorf("group %d: key %d missing from sketch", grp, k)
			}
			if b >= len(means) {
				b = len(means) - 1
			}
			vals[i] = means[b]
		}
		sc.keyLists = append(sc.keyLists, keys)
		sc.valLists = append(sc.valLists, vals)
	}
	return nil
}

// mergeSortedListsInto k-way-merges disjoint ascending key lists (with
// parallel value lists) into dst, which must already carry its Dim and
// have been Reset. The merge cursors live in sc so the warm path stays
// allocation-free.
func mergeSortedListsInto(dst *gradient.Sparse, keyLists [][]uint64, valLists [][]float64, sc *decodeScratch) error {
	pos := sc.pos
	if cap(pos) >= len(keyLists) {
		pos = pos[:len(keyLists)]
		for i := range pos {
			pos[i] = 0
		}
	} else {
		//lint:allow hotpath-alloc grows the reusable merge-cursor scratch, one int per group; amortized to zero once warm
		pos = make([]int, len(keyLists))
	}
	sc.pos = pos
	for {
		best := -1
		var bestKey uint64 = math.MaxUint64
		for i, l := range keyLists {
			if pos[i] < len(l) && l[pos[i]] <= bestKey {
				if l[pos[i]] == bestKey && best >= 0 {
					return fmt.Errorf("codec: duplicate key %d across lists", bestKey)
				}
				best = i
				bestKey = l[pos[i]]
			}
		}
		if best < 0 {
			break
		}
		dst.Keys = append(dst.Keys, bestKey)
		dst.Values = append(dst.Values, valLists[best][pos[best]])
		pos[best]++
	}
	if err := dst.Validate(); err != nil {
		return fmt.Errorf("codec: merged gradient invalid: %w", err)
	}
	return nil
}
