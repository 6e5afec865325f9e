package experiments

import (
	"math/rand"
	"testing"

	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
	"sketchml/internal/quantizer"
)

// expGradient draws a mixed-sign gradient with exponentially distributed
// magnitudes over random keys, the near-zero-concentrated shape of
// Figure 4.
func expGradient(seed int64, dim uint64, nnz int) *gradient.Sparse {
	rng := rand.New(rand.NewSource(seed))
	m := map[uint64]float64{}
	for len(m) < nnz {
		v := rng.ExpFloat64() * 0.02
		if rng.Intn(2) == 0 {
			v = -v
		}
		m[uint64(rng.Int63n(int64(dim)))] = v
	}
	return gradient.FromMap(dim, m)
}

// TestExactSplitsQualityGate: the default exact split finder must
// reconstruct gradients at least as well as the GK sketch it replaced.
// Over seeds 1–30, exact's mean relative squared reconstruction error
// ‖g−ĝ‖²/‖g‖² may not exceed GK's, on first gradients of the KDD10- and
// KDD12-like tasks and on an exponential gradient, with the MinMaxSketch
// on and off.
func TestExactSplitsQualityGate(t *testing.T) {
	const seeds = 30
	inputs := []struct {
		name string
		grad func(seed int64) *gradient.Sparse
	}{
		{"KDD10", func(s int64) *gradient.Sparse { return firstGradient(dataset.KDD10Like(s), 0.1) }},
		{"KDD12", func(s int64) *gradient.Sparse { return firstGradient(dataset.KDD12Like(s), 0.1) }},
		{"exponential", func(s int64) *gradient.Sparse { return expGradient(s, 100000, 2000) }},
	}
	for _, in := range inputs {
		grads := make([]*gradient.Sparse, seeds)
		for i := range grads {
			grads[i] = in.grad(int64(i + 1))
		}
		for _, minMax := range []bool{true, false} {
			relErr := func(algo quantizer.SketchAlgo) float64 {
				opts := codec.DefaultOptions()
				opts.MinMax = minMax
				opts.Algo = algo
				c := codec.MustSketchML(opts)
				var sum float64
				for _, g := range grads {
					msg, err := c.Encode(g)
					if err != nil {
						t.Fatal(err)
					}
					dec, err := c.Decode(msg)
					if err != nil {
						t.Fatal(err)
					}
					norm := g.L2Norm()
					sum += gradient.SquaredDistance(g, dec) / (norm * norm)
				}
				return sum / seeds
			}
			exact, gk := relErr(quantizer.ExactAlgo), relErr(quantizer.GKAlgo)
			t.Logf("%s MinMax=%v: mean relative squared error exact %.4f, GK %.4f", in.name, minMax, exact, gk)
			if exact > gk {
				t.Errorf("%s MinMax=%v: exact splits reconstruct worse than GK: %.4f > %.4f",
					in.name, minMax, exact, gk)
			}
		}
	}
}
