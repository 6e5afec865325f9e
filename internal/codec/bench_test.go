package codec

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sketchml/internal/gradient"
)

// BenchmarkEncodeDecode measures the codec hot path across the operating
// points that matter for the paper's economics: bucket count q (quantization
// resolution), group count r (MinMaxSketch splitting), gradient sparsity,
// and the Parallelism knob. Each point benches Encode and Decode separately
// with allocation reporting, so `make bench` tracks both ns/op and
// allocs/op regressions. compressed-B/msg reports the wire size, tying the
// CPU cost to the bytes it saves.
func BenchmarkEncodeDecode(b *testing.B) {
	type point struct {
		buckets int // q
		groups  int // r
		nnz     int
		par     int // 0 = GOMAXPROCS
	}
	points := []point{
		{256, 8, 500, 1},
		{256, 8, 5000, 1},
		{256, 8, 5000, 0},
		{256, 8, 50000, 1},
		{256, 8, 50000, 0},
		{64, 8, 5000, 1},
		{256, 16, 5000, 1},
	}
	rng := rand.New(rand.NewSource(77))
	grads := map[int]*gradientArg{}
	for _, p := range points {
		if grads[p.nnz] == nil {
			grads[p.nnz] = &gradientArg{randomGradient(rng, 1<<22, p.nnz)}
		}
	}

	for _, p := range points {
		opts := DefaultOptions()
		opts.Buckets = p.buckets
		opts.Groups = p.groups
		opts.Parallelism = p.par
		c := MustSketchML(opts)
		g := grads[p.nnz].g

		// par=0 means "all cores"; label it by what it resolved to, with a
		// "max" marker so the name never collides with an explicit level on
		// machines where GOMAXPROCS happens to equal it.
		parLabel := fmt.Sprintf("par%d", p.par)
		if p.par == 0 {
			parLabel = fmt.Sprintf("parmax%d", runtime.GOMAXPROCS(0))
		}
		name := fmt.Sprintf("q%d_r%d_nnz%d_%s", p.buckets, p.groups, p.nnz, parLabel)

		msg, err := c.Encode(g)
		if err != nil {
			b.Fatalf("%s: encode: %v", name, err)
		}

		b.Run("Encode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(msg)), "compressed-B/msg")
			for i := 0; i < b.N; i++ {
				if _, err := c.Encode(g); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Decode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(msg)), "compressed-B/msg")
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
		// DecodeInto with a reused destination is the steady-state receive
		// path: once the destination and pooled scratch warm up it must run
		// allocation-free on the serial plan (bench-check pins the ceiling).
		b.Run("DecodeInto/"+name, func(b *testing.B) {
			var dst gradient.Sparse
			if err := c.DecodeInto(msg, &dst); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.DecodeInto(msg, &dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(msg)), "compressed-B/msg")
		})
	}
}

// BenchmarkMerge measures the wire-to-wire MergeInto path that interior
// tree nodes and every ring hop run once per round: decode both inputs
// structurally, sum the key union, re-emit one message. The points span
// both output paths — small panes stay on the exact-means path (the
// steady-state interior hot loop), large panes overflow the cap and
// re-quantize from the same pane sort (priced like an Encode). Each
// SketchML point runs on the serial plan (_par1, allocation-free warm) and
// with a two-worker input decode (_par2, which allocates its per-pane
// lists); naming the plan rather than inheriting GOMAXPROCS keeps the rows
// comparable across hosts. Raw rows price the lossless alternative a tree
// of adam workers would pay. merged-B/msg ties the CPU cost to the bytes
// the merge puts back on the uplink.
func BenchmarkMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(78))
	opts := DefaultOptions()
	opts.MinMax = false // merged output is MinMax-off; bench the mergeable config
	// paletteGradient draws values from a small fixed set of magnitudes —
	// the shape of an already-quantized message, whose decoded values are
	// bucket means. With few distinct sums the merge stays on the
	// exact-means path; fully random values overflow the cap and price the
	// re-quantize path instead.
	paletteGradient := func(nnz, palette int) *gradient.Sparse {
		mags := make([]float64, palette)
		for i := range mags {
			mags[i] = (rng.ExpFloat64() + 0.1) * 0.02
		}
		m := map[uint64]float64{}
		for len(m) < nnz {
			v := mags[rng.Intn(palette)]
			if rng.Intn(2) == 0 {
				v = -v
			}
			m[uint64(rng.Int63n(1<<22))] = v
		}
		return gradient.FromMap(1<<22, m)
	}
	type point struct {
		name    string
		m       Merger
		nnz     int
		palette int // 0 = fully random values (re-quantize path)
	}
	var points []point
	for _, par := range []int{1, 2} {
		o := opts
		o.Parallelism = par
		points = append(points,
			point{fmt.Sprintf("SketchML_exact_nnz5000_par%d", par), MustSketchML(o), 5000, 32},
			point{fmt.Sprintf("SketchML_requant_nnz5000_par%d", par), MustSketchML(o), 5000, 0},
			point{fmt.Sprintf("SketchML_requant_nnz50000_par%d", par), MustSketchML(o), 50000, 0})
	}
	points = append(points,
		point{"Raw_nnz5000", &Raw{}, 5000, 0},
		point{"Raw_nnz50000", &Raw{}, 50000, 0})
	for _, p := range points {
		c := p.m.(Codec)
		gen := func() *gradient.Sparse {
			if p.palette > 0 {
				return paletteGradient(p.nnz, p.palette)
			}
			return randomGradient(rng, 1<<22, p.nnz)
		}
		ma, err := c.Encode(gen())
		if err != nil {
			b.Fatal(err)
		}
		mb, err := c.Encode(gen())
		if err != nil {
			b.Fatal(err)
		}
		b.Run("MergeInto/"+p.name, func(b *testing.B) {
			dst, err := p.m.MergeInto(nil, ma, mb)
			if err != nil {
				b.Fatal(err)
			}
			merged := len(dst)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = p.m.MergeInto(dst, ma, mb); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(merged), "merged-B/msg")
		})
	}
}
