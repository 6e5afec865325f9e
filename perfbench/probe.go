package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
	"sketchml/internal/model"
	"sketchml/internal/optim"
	"sketchml/internal/trainer"
)

// The probe sits outside the program: it wraps the interfaces
// trainer.Config accepts (Trainable, CodecFactory, Optimizer) and times
// each layer at its public calls. Every job, traced or not, records two
// boundary stamps: the first gradient call (end of set-up) and the end of
// each driver optimizer step (a driver round boundary). A traced job also
// records one span per call into the model, the codec and the optimizer.

// op names one public call of one layer.
type op uint8

const (
	opGrad op = iota
	opEval
	opEncode
	opDecode
	opMerge
	opStep
	numOps
)

var opInfo = [numOps]struct{ layer, name string }{
	opGrad:   {"model", "grad"},
	opEval:   {"model", "eval"},
	opEncode: {"codec", "encode"},
	opDecode: {"codec", "decode"},
	opMerge:  {"codec", "merge"},
	opStep:   {"optim", "step"},
}

// Parties: workers are numbered from 0; the driver and a not yet resolved
// party get negative ids.
const (
	partyDriver  = -1
	partyUnknown = -2
)

// span is one timed call. Times are nanoseconds since the probe's origin.
type span struct {
	start, end int64
	gid        int64 // calling goroutine, for calls on a shared instance
	party      int
	round      int // driver round ordinal, assigned after the job
	bytes      int // encoded or merged message size
	op         op
	failed     bool
}

// probe collects one job's stamps and, when traced, its spans.
type probe struct {
	origin    time.Time
	driverGID int64
	traced    bool

	firstGrad atomic.Int64 // first BatchGradient start; 0 until it happens
	// bounds and peakLive are written by the driver goroutine only, and
	// read after trainer.Run has returned.
	bounds   []int64
	peakLive uint64
	live     []metrics.Sample

	codecs atomic.Int32 // CodecFactory calls so far

	mu      sync.Mutex
	spans   []span
	workers map[int64]int // goroutine id → worker, learned from worker codecs
	errs    []error
}

// newProbe starts a probe for a job the calling goroutine is about to run:
// that goroutine is the driver.
func newProbe(traced bool, roundsHint, workers int) *probe {
	p := &probe{
		driverGID: goid(),
		traced:    traced,
		bounds:    make([]int64, 0, roundsHint),
		live:      []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
		workers:   map[int64]int{},
	}
	if traced {
		// One grad, encode, decode and step per worker, plus the driver's
		// decodes, encode, decode and step, and merges: ample headroom so
		// appends do not reallocate mid-job.
		p.spans = make([]span, 0, roundsHint*(8*workers+8))
	}
	p.origin = time.Now()
	return p
}

func (p *probe) now() int64 { return int64(time.Since(p.origin)) }

func (p *probe) record(s span) {
	p.mu.Lock()
	p.spans = append(p.spans, s)
	p.mu.Unlock()
}

// instrument returns cfg with its model, codec and optimizer wrapped.
func (p *probe) instrument(cfg trainer.Config) trainer.Config {
	cfg.Trainable = wrapModel(cfg.Trainable, p)
	inner := cfg.CodecFactory
	cfg.CodecFactory = func() codec.Codec {
		// trainer.Run builds the driver's codec first, then one per worker
		// in index order, all from the driver goroutine.
		party := int(p.codecs.Add(1)) - 2
		c := inner()
		if !p.traced {
			return c
		}
		return wrapCodec(c, p, party)
	}
	innerOpt := cfg.Optimizer
	cfg.Optimizer = func(dim uint64) optim.Optimizer {
		// Each replica builds its optimizer on its own goroutine.
		o := innerOpt(dim)
		gid := goid()
		driver := gid == p.driverGID
		if !driver && !p.traced {
			return o
		}
		return wrapOptimizer(o, p, gid, driver)
	}
	return cfg
}

// goid returns the calling goroutine's id, parsed from the header line of
// its stack trace ("goroutine 42 [running]:").
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// ---- model ----

type modelProbe struct {
	inner model.Trainable
	p     *probe
}

// initModelProbe also forwards InitTheta, which the trainer probes for to
// initialize parameters (model.FM has it; linear models do not).
type initModelProbe struct {
	*modelProbe
	init interface{ InitTheta(theta []float64) }
}

func (m initModelProbe) InitTheta(theta []float64) { m.init.InitTheta(theta) }

func wrapModel(t model.Trainable, p *probe) model.Trainable {
	m := &modelProbe{inner: t, p: p}
	if init, ok := t.(interface{ InitTheta(theta []float64) }); ok {
		return initModelProbe{m, init}
	}
	return m
}

func (m *modelProbe) Name() string { return m.inner.Name() }

func (m *modelProbe) ParamDim(featureDim uint64) uint64 { return m.inner.ParamDim(featureDim) }

func (m *modelProbe) BatchGradient(theta []float64, batch []*dataset.Instance, lambda float64) (*gradient.Sparse, float64) {
	t0 := m.p.now()
	m.p.firstGrad.CompareAndSwap(0, t0)
	g, loss := m.inner.BatchGradient(theta, batch, lambda)
	if m.p.traced {
		m.p.record(span{start: t0, end: m.p.now(), gid: goid(), party: partyUnknown, op: opGrad})
	}
	return g, loss
}

func (m *modelProbe) Evaluate(theta []float64, d *dataset.Dataset) (float64, float64) {
	t0 := m.p.now()
	loss, acc := m.inner.Evaluate(theta, d)
	if m.p.traced {
		m.p.record(span{start: t0, end: m.p.now(), party: partyDriver, op: opEval})
	}
	return loss, acc
}

// ---- codec ----

// codecProbe wraps one party's codec instance. Optional interfaces are
// forwarded by the decodeIntoProbe and mergeProbe parts, combined in
// wrapCodec so the wrapper implements exactly what the inner codec does:
// a wrapper that dropped DecodeInto would send the trainer down its
// allocating fallback and the trace would time a different program.
type codecProbe struct {
	inner codec.Codec
	p     *probe
	party int
	bound atomic.Bool // worker goroutine registered with the probe
}

type decodeIntoProbe struct {
	c     *codecProbe
	inner codec.DecoderInto
}

type mergeProbe struct {
	c     *codecProbe
	inner codec.Merger
}

func wrapCodec(c codec.Codec, p *probe, party int) codec.Codec {
	base := &codecProbe{inner: c, p: p, party: party}
	di, hasDI := c.(codec.DecoderInto)
	mg, hasM := c.(codec.Merger)
	switch {
	case hasDI && hasM:
		return struct {
			*codecProbe
			decodeIntoProbe
			mergeProbe
		}{base, decodeIntoProbe{base, di}, mergeProbe{base, mg}}
	case hasDI:
		return struct {
			*codecProbe
			decodeIntoProbe
		}{base, decodeIntoProbe{base, di}}
	case hasM:
		return struct {
			*codecProbe
			mergeProbe
		}{base, mergeProbe{base, mg}}
	}
	return base
}

func (c *codecProbe) Name() string { return c.inner.Name() }

func (c *codecProbe) done(t0 int64, o op, n int, err error) {
	c.p.record(span{start: t0, end: c.p.now(), party: c.party, bytes: n, op: o, failed: err != nil})
}

func (c *codecProbe) Encode(g *gradient.Sparse) ([]byte, error) {
	if c.party >= 0 && !c.bound.Load() {
		// A worker encodes only on its own goroutine: learn which one, so
		// the shared model's calls and the worker's optimizer resolve to
		// this party.
		c.bound.Store(true)
		gid := goid()
		c.p.mu.Lock()
		if prev, ok := c.p.workers[gid]; ok && prev != c.party {
			c.p.errs = append(c.p.errs, fmt.Errorf("goroutine %d encodes for workers %d and %d", gid, prev, c.party))
		}
		c.p.workers[gid] = c.party
		c.p.mu.Unlock()
	}
	t0 := c.p.now()
	msg, err := c.inner.Encode(g)
	c.done(t0, opEncode, len(msg), err)
	return msg, err
}

func (c *codecProbe) Decode(data []byte) (*gradient.Sparse, error) {
	t0 := c.p.now()
	g, err := c.inner.Decode(data)
	c.done(t0, opDecode, len(data), err)
	return g, err
}

func (d decodeIntoProbe) DecodeInto(data []byte, dst *gradient.Sparse) error {
	t0 := d.c.p.now()
	err := d.inner.DecodeInto(data, dst)
	d.c.done(t0, opDecode, len(data), err)
	return err
}

func (m mergeProbe) Merge(a, b []byte) ([]byte, error) {
	t0 := m.c.p.now()
	out, err := m.inner.Merge(a, b)
	m.c.done(t0, opMerge, len(out), err)
	return out, err
}

func (m mergeProbe) MergeInto(dst []byte, a, b []byte) ([]byte, error) {
	t0 := m.c.p.now()
	out, err := m.inner.MergeInto(dst, a, b)
	m.c.done(t0, opMerge, len(out), err)
	return out, err
}

// ---- optimizer ----

// optimProbe wraps one replica's optimizer. The driver's marks a round
// boundary at the end of every step; that stamp is taken in untraced jobs
// too, since round time is an end-to-end metric.
type optimProbe struct {
	inner  optim.Optimizer
	p      *probe
	gid    int64
	driver bool
}

type stateOptimProbe struct {
	*optimProbe
	sm optim.StateMarshaler
}

func (o stateOptimProbe) MarshalState() []byte { return o.sm.MarshalState() }

func (o stateOptimProbe) UnmarshalState(data []byte) error { return o.sm.UnmarshalState(data) }

func wrapOptimizer(inner optim.Optimizer, p *probe, gid int64, driver bool) optim.Optimizer {
	o := &optimProbe{inner: inner, p: p, gid: gid, driver: driver}
	if sm, ok := inner.(optim.StateMarshaler); ok {
		return stateOptimProbe{o, sm}
	}
	return o
}

func (o *optimProbe) Name() string { return o.inner.Name() }

func (o *optimProbe) Reset() { o.inner.Reset() }

func (o *optimProbe) Step(theta []float64, g *gradient.Sparse) error {
	t0 := o.p.now()
	err := o.inner.Step(theta, g)
	t1 := o.p.now()
	if o.driver {
		o.p.bounds = append(o.p.bounds, t1)
		metrics.Read(o.p.live)
		if v := o.p.live[0].Value.Uint64(); v > o.p.peakLive {
			o.p.peakLive = v
		}
	}
	if o.p.traced {
		party := partyUnknown
		if o.driver {
			party = partyDriver
		}
		o.p.record(span{start: t0, end: t1, gid: o.gid, party: party, op: opStep, failed: err != nil})
	}
	return err
}
