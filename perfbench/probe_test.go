package main

import (
	"math"
	"testing"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/gradient"
	"sketchml/internal/model"
	"sketchml/internal/optim"
)

// plainCodec implements only codec.Codec; the partial codecs below add one
// optional interface each.
type plainCodec struct{}

func (plainCodec) Name() string                                 { return "plain" }
func (plainCodec) Encode(g *gradient.Sparse) ([]byte, error)    { return (&codec.Raw{}).Encode(g) }
func (plainCodec) Decode(data []byte) (*gradient.Sparse, error) { return (&codec.Raw{}).Decode(data) }

type decodeIntoOnly struct{ plainCodec }

func (decodeIntoOnly) DecodeInto([]byte, *gradient.Sparse) error { return nil }

type mergeOnly struct{ plainCodec }

func (mergeOnly) Merge(a, b []byte) ([]byte, error)                 { return a, nil }
func (mergeOnly) MergeInto(dst []byte, a, b []byte) ([]byte, error) { return a, nil }

// plainOptim has no StateMarshaler.
type plainOptim struct{}

func (plainOptim) Name() string                           { return "plain" }
func (plainOptim) Step([]float64, *gradient.Sparse) error { return nil }
func (plainOptim) Reset()                                 {}

type initModel interface{ InitTheta(theta []float64) }

// Each wrapper must implement exactly the optional interfaces of what it
// wraps: the trainer type-asserts them, so a dropped one changes the path
// the program takes and a spurious one promises what the layer lacks.
func TestWrappersExposeTheInnerInterfaces(t *testing.T) {
	p := newProbe(true, 1, 1)
	codecs := map[string]codec.Codec{
		"SketchML":       newSketchML(),
		"Raw":            newRaw(),
		"plain":          plainCodec{},
		"decodeIntoOnly": decodeIntoOnly{},
		"mergeOnly":      mergeOnly{},
	}
	for name, c := range codecs {
		w := wrapCodec(c, p, 0)
		_, innerDI := c.(codec.DecoderInto)
		_, wrapDI := w.(codec.DecoderInto)
		_, innerM := c.(codec.Merger)
		_, wrapM := w.(codec.Merger)
		if innerDI != wrapDI || innerM != wrapM {
			t.Errorf("codec %s: DecoderInto %v→%v, Merger %v→%v", name, innerDI, wrapDI, innerM, wrapM)
		}
		if w.Name() != c.Name() {
			t.Errorf("codec %s: wrapper named %q", name, w.Name())
		}
	}

	optims := map[string]optim.Optimizer{
		"Adam":  optim.NewAdam(0.1, 4),
		"SGD":   optim.NewSGD(0.1),
		"plain": plainOptim{},
	}
	for name, o := range optims {
		w := wrapOptimizer(o, p, 0, false)
		_, inner := o.(optim.StateMarshaler)
		_, wrapped := w.(optim.StateMarshaler)
		if inner != wrapped {
			t.Errorf("optimizer %s: StateMarshaler %v→%v", name, inner, wrapped)
		}
	}

	models := map[string]model.Trainable{
		"LR": model.Wrap(model.LogisticRegression{}),
		"FM": model.FM{},
	}
	for name, m := range models {
		w := wrapModel(m, p)
		_, inner := m.(initModel)
		_, wrapped := w.(initModel)
		if inner != wrapped {
			t.Errorf("model %s: InitTheta %v→%v", name, inner, wrapped)
		}
	}
}

// A traced job must run the same program as an untraced one: on every
// workload both give bit-identical test loss, the same wire bytes and the
// same number of merges, and the trace sees every layer call.
func TestTracedJobMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every workload")
	}
	in, _ := generate(defaultSeed)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := &bench{w: w, seed: defaultSeed, in: in}
			b.planned, b.perRound = plan(w, in.train)
			plain, traced := b.runJob(false), b.runJob(true)
			if len(b.problems) > 0 {
				t.Fatal(b.problems)
			}
			if math.Float64bits(plain.res.FinalLoss) != math.Float64bits(traced.res.FinalLoss) {
				t.Errorf("test loss %v untraced, %v traced", plain.res.FinalLoss, traced.res.FinalLoss)
			}
			if u, v := upBytes(plain.res), upBytes(traced.res); u != v {
				t.Errorf("up bytes %d untraced, %d traced", u, v)
			}
			m := merges(plain.res)
			if m != merges(traced.res) {
				t.Errorf("merges %d untraced, %d traced", m, merges(traced.res))
			}
			if (m > 0) != (w.topology == cluster.TopologyTree) {
				t.Errorf("%d merges on a %v gather", m, w.topology)
			}

			var calls [numOps]int
			for _, s := range traced.trace.spans {
				calls[s.op]++
				if s.party < partyDriver || s.party >= w.workers {
					t.Fatalf("span %+v has party %d", s, s.party)
				}
			}
			rounds := b.planned
			if calls[opGrad] != rounds*w.workers {
				t.Errorf("%d gradient calls, want %d", calls[opGrad], rounds*w.workers)
			}
			if calls[opStep] != rounds*(w.workers+1) {
				t.Errorf("%d optimizer steps, want %d", calls[opStep], rounds*(w.workers+1))
			}
			if calls[opEval] != jobEpochs {
				t.Errorf("%d evaluations, want %d", calls[opEval], jobEpochs)
			}
			if int64(calls[opMerge]) != m {
				t.Errorf("trace saw %d merges, trainer reported %d", calls[opMerge], m)
			}
			for _, r := range traced.trace.breakdown() {
				if r.self < 0 || r.codec < 0 || r.codec > r.total-r.self {
					t.Fatalf("round breakdown %+v: codec cover must lie within the child cover", r)
				}
			}
		})
	}
}

func TestBreakdownCountsOverlapOnce(t *testing.T) {
	tr := &jobTrace{
		roundStart: []int64{0, 100},
		roundEnd:   []int64{100, 200},
		spans: []span{
			// Round 0: two overlapping decodes [10,40] and [20,50], an
			// encode [60,70] and a step [70,100].
			{start: 10, end: 40, party: partyDriver, round: 0, op: opDecode},
			{start: 20, end: 50, party: partyDriver, round: 0, op: opDecode},
			{start: 60, end: 70, party: partyDriver, round: 0, op: opEncode},
			{start: 70, end: 100, party: partyDriver, round: 0, op: opStep},
			// Worker calls are not the driver's children.
			{start: 0, end: 90, party: 0, round: 0, op: opGrad},
			// Round 1: an evaluation only.
			{start: 100, end: 150, party: partyDriver, round: 1, op: opEval},
		},
	}
	got := tr.breakdown()
	want := []roundBreakdown{
		{total: 100, self: 100 - 40 - 10 - 30, codec: 50},
		{total: 100, self: 50, codec: 0},
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("round %d: got %+v, want %+v", k, got[k], want[k])
		}
	}
}

func TestTailTakesTheRarestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 100}, {20, 50}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, p := tail(xs); p != c.want {
			t.Errorf("n=%d: tail at p%g, want p%g", c.n, p, c.want)
		}
	}
}

func TestScaleTakesTimesToTheReferenceHost(t *testing.T) {
	for _, c := range []struct {
		before, after time.Duration
		want          float64
	}{
		{refNominal, refNominal, 1},
		{2 * refNominal, 2 * refNominal, 0.5},
		{refNominal / 2, 3 * refNominal / 2, 1},
	} {
		if got := scale(c.before, c.after); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("scale(%v, %v) = %v, want %v", c.before, c.after, got, c.want)
		}
	}
}
