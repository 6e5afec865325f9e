package quantizer

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// paneCase is one input the sort-based pane path must handle exactly.
type paneCase struct {
	name string
	vals []float64
}

func paneCases() []paneCase {
	rng := rand.New(rand.NewSource(31))
	exp := make([]float64, 3000)
	for i := range exp {
		exp[i] = rng.ExpFloat64() * 0.02
	}
	// Few distinct values, so runs of duplicates straddle most splits.
	dups := make([]float64, 1000)
	for i := range dups {
		dups[i] = float64(rng.Intn(7)) * 0.125
	}
	signed := make([]float64, 500)
	for i := range signed {
		signed[i] = rng.NormFloat64()
	}
	sub := math.SmallestNonzeroFloat64
	return []paneCase{
		{"exponential", exp},
		{"signed_zeros", []float64{0.5, math.Copysign(0, -1), 0.25, 0, math.Copysign(0, -1), 1, 0, 0.5}},
		{"all_equal", []float64{0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3}},
		{"n1", []float64{0.7}},
		{"n_below_q", []float64{0.9, 0.1, 0.5}},
		{"subnormal_and_max", []float64{math.MaxFloat64, sub, 4 * sub, 1, math.MaxFloat64, 2 * sub, 0, 1e-310, 1e300}},
		{"duplicates", dups},
		{"signed", signed},
	}
}

// canon folds −0.0 onto +0.0, the canonicalisation the sort applies.
func canon(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

// referenceOrder is the specification of Pane.Sort: positions ordered by
// canonical value, ties in position order.
func referenceOrder(vals []float64) []ranked {
	ref := make([]ranked, len(vals))
	for i, v := range vals {
		ref[i] = ranked{key: sortKey(v), pos: uint32(i)}
	}
	slices.SortStableFunc(ref, func(a, b ranked) int {
		return cmp.Compare(canon(vals[a.pos]), canon(vals[b.pos]))
	})
	return ref
}

// TestPaneSortMatchesStableSort: the radix order equals a stable
// comparison sort of the canonical values, so ties keep position order
// and −0.0 sorts with +0.0.
func TestPaneSortMatchesStableSort(t *testing.T) {
	for _, tc := range paneCases() {
		t.Run(tc.name, func(t *testing.T) {
			var p Pane
			p.Sort(tc.vals)
			if !slices.Equal(p.sorted, referenceOrder(tc.vals)) {
				t.Fatalf("radix order differs from slices.SortStableFunc:\n got %v\nwant %v",
					p.sorted, referenceOrder(tc.vals))
			}
			for _, e := range p.sorted {
				if got, want := fromKey(e.key), canon(tc.vals[e.pos]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("key of position %d decodes to %v, want %v", e.pos, got, want)
				}
			}
		})
	}
}

// TestPaneSortReuse: a warm Pane re-sorted with shorter and longer inputs
// gives the same order as a fresh one.
func TestPaneSortReuse(t *testing.T) {
	var warm Pane
	for _, tc := range paneCases() {
		warm.Sort(tc.vals)
		if want := referenceOrder(tc.vals); !slices.Equal(warm.sorted, want) {
			t.Fatalf("%s: reused pane sorted wrong", tc.name)
		}
	}
}

// TestPaneExactSplitsAreOrderStatistics: splits[i] is the value at
// 1-based rank ⌈i·n/q⌉ of the sorted pane (the minimum for i=0).
func TestPaneExactSplitsAreOrderStatistics(t *testing.T) {
	for _, tc := range paneCases() {
		sorted := make([]float64, len(tc.vals))
		for i, v := range tc.vals {
			sorted[i] = canon(v)
		}
		slices.Sort(sorted)
		n := len(sorted)
		for _, q := range []int{1, 2, 3, 7, 16, 256} {
			var p Pane
			p.Sort(tc.vals)
			splits, err := p.Splits(q, 128, ExactAlgo, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(splits) != q+1 {
				t.Fatalf("%s q=%d: %d splits", tc.name, q, len(splits))
			}
			for i, s := range splits {
				r := int(math.Ceil(float64(i) * float64(n) / float64(q)))
				want := sorted[max(r-1, 0)]
				if math.Float64bits(s) != math.Float64bits(want) {
					t.Fatalf("%s q=%d: splits[%d] = %v, want rank-%d value %v", tc.name, q, i, s, r, want)
				}
			}
			if splits[0] != sorted[0] || splits[q] != sorted[n-1] {
				t.Fatalf("%s q=%d: splits do not span [min, max]", tc.name, q)
			}
		}
	}
}

// checkBuckets asserts the walk reproduces Quantile.Bucket for every value.
func checkBuckets(t *testing.T, label string, p *Pane, vals, splits []float64) {
	t.Helper()
	z, err := NewQuantileFromSplits(append([]float64(nil), splits...))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	idx := p.Buckets(splits)
	for i, v := range vals {
		if got, want := int(idx[i]), z.Bucket(v); got != want {
			t.Fatalf("%s: value %v (position %d) walked to bucket %d, Bucket says %d (splits %v)",
				label, v, i, got, want, splits)
		}
	}
}

// TestPaneBucketsMatchQuantileBucket: the walk's index for every value is
// exactly NewQuantileFromSplits(splits).Bucket(v) — for exact splits, for
// GK and KLL splits fed through the same walk, and for arbitrary split
// sets that do not come from the pane at all (values outside the range
// clamp, duplicated splits resolve to their first bucket).
func TestPaneBucketsMatchQuantileBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, tc := range paneCases() {
		var p Pane
		p.Sort(tc.vals)
		for _, q := range []int{1, 2, 5, 16, 64} {
			for _, algo := range []SketchAlgo{ExactAlgo, GKAlgo, KLLAlgo} {
				splits, err := p.Splits(q, 32, algo, 7)
				if err != nil {
					t.Fatal(err)
				}
				checkBuckets(t, tc.name, &p, tc.vals, splits)
			}
			// Random split sets: sampled pane values plus off-range points,
			// sorted, with forced duplicates.
			splits := make([]float64, q+1)
			for i := range splits {
				switch rng.Intn(5) {
				case 0:
					splits[i] = rng.NormFloat64() * 10
				default:
					splits[i] = canon(tc.vals[rng.Intn(len(tc.vals))])
				}
			}
			slices.Sort(splits)
			if q > 2 {
				splits[1] = splits[2]
			}
			checkBuckets(t, tc.name+"/random", &p, tc.vals, splits)
		}
	}
}

// TestPaneQuantizeMatchesBuildQuantile: for every split finder, Quantize's
// means and indexes equal those of the Quantile that BuildQuantileAlgo
// builds from the same splits.
func TestPaneQuantizeMatchesBuildQuantile(t *testing.T) {
	for _, tc := range paneCases() {
		for _, algo := range []SketchAlgo{ExactAlgo, GKAlgo, KLLAlgo} {
			const q, m, seed = 16, 64, 3
			z, err := BuildQuantileAlgo(tc.vals, q, m, algo, seed)
			if err != nil {
				t.Fatal(err)
			}
			var p Pane
			p.Sort(tc.vals)
			means, idx, err := p.Quantize(q, m, algo, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(means, z.Means()) {
				t.Fatalf("%s algo %d: means %v, BuildQuantileAlgo %v", tc.name, algo, means, z.Means())
			}
			for i, v := range tc.vals {
				if int(idx[i]) != z.Bucket(v) {
					t.Fatalf("%s algo %d: index %d for %v, Bucket %d", tc.name, algo, idx[i], v, z.Bucket(v))
				}
			}
		}
	}
}

// TestPaneDistinctMeans: the lossless table is the sorted distinct
// values, each index is its value's rank in it, and the limit is exact.
func TestPaneDistinctMeans(t *testing.T) {
	for _, tc := range paneCases() {
		var want []float64
		for _, v := range tc.vals {
			want = append(want, canon(v))
		}
		slices.Sort(want)
		want = slices.Compact(want)

		var p Pane
		p.Sort(tc.vals)
		means, idx, ok := p.DistinctMeans(len(want))
		if !ok || !slices.Equal(means, want) {
			t.Fatalf("%s: distinct means %v (ok=%v), want %v", tc.name, means, ok, want)
		}
		for i, v := range tc.vals {
			if r, _ := slices.BinarySearch(want, canon(v)); int(idx[i]) != r {
				t.Fatalf("%s: index %d for %v, want rank %d", tc.name, idx[i], v, r)
			}
		}
		if _, _, ok := p.DistinctMeans(len(want) - 1); ok {
			t.Fatalf("%s: %d distinct values fit a limit of %d", tc.name, len(want), len(want)-1)
		}
	}
}

func TestPaneSplitsErrors(t *testing.T) {
	var p Pane
	p.Sort(nil)
	if _, err := p.Splits(4, 128, ExactAlgo, 0); err == nil {
		t.Error("empty pane accepted")
	}
	p.Sort([]float64{1, 2})
	if _, err := p.Splits(0, 128, ExactAlgo, 0); err == nil {
		t.Error("q=0 accepted")
	}
	if _, err := p.Splits(4, 128, SketchAlgo(99), 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
