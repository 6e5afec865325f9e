// Gather plans. The star driver links always exist and keep carrying
// broadcasts, end-of-run reports, and control frames; a topology decides
// only the gather half of each round, and it does so as data. A gatherPlan
// says which driver links deliver which key-range chunk and, for every
// worker, which aggregation links it receives from, what it merges, and
// where it sends. One executor runs any plan — driverGather.gather on the
// driver, workerLinks.gather on each worker — through one tolerant receive
// (recvChunk), so star, tree, and ring share every fault rule.
//
//   - Star: every worker sends its encoded gradient to the driver. No
//     worker steps.
//   - Tree: workers form a binary tree rooted at the driver (its children
//     are workers 0 and 1; worker w's children are 2w+2 and 2w+3). An
//     interior worker has one step: receive its children's aggregates
//     within half the round deadline and merge them wire-to-wire
//     (codec.Merger) into its own gradient in child order. It then sends
//     the result to its parent.
//   - Ring: the key space splits into W equal ranges and the ring runs the
//     classic reduce-scatter in W-1 steps of RoundDeadline/W each: at step
//     s worker w sends chunk (w-s) mod W to its successor and merges the
//     incoming chunk (w-s-1) mod W. Worker w ends holding the fully
//     reduced chunk (w+1) mod W and sends just that to the driver.
//
// Every message carries how many worker gradients it already sums; the
// driver weights an arrival on chunk c by 1/total[c], the gradients that
// reached chunk c this round, so the applied aggregate stays the unbiased
// mean whatever went missing in tolerant mode.

package trainer

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/gradient"
)

// gatherPlan is one run's gather schedule, built once from the config.
type gatherPlan struct {
	name    string      // topology name, for error messages
	chunks  int         // key-range chunks the gather reduces: W for ring, else 1
	inputs  []planInput // the driver's receives, in accumulation order
	workers []workerPlan
}

// planInput is one driver receive: driver link `link` delivers `chunk`.
type planInput struct{ link, chunk int }

// workerPlan is one worker's part of the gather: its steps, then a final
// send of chunk `final` to parent, or to the driver when parent is -1. A
// worker sends on at most one aggregation link (parent or next).
type workerPlan struct {
	parent int   // worker the final send goes to; -1: the driver
	next   int   // worker the step sends go to; -1: no step sends
	in     []int // workers this worker receives from, in merge order
	steps  []planStep
	final  int
}

// planStep optionally sends one chunk to next, then receives chunk recv
// from every in link — concurrently, within budget — and merges the
// arrivals in link order.
type planStep struct {
	send   int // chunk sent before receiving; -1 for none
	recv   int
	budget time.Duration
}

// newGatherPlan builds the gather plan of cfg's topology.
func newGatherPlan(cfg *Config) *gatherPlan {
	n := cfg.Workers
	p := &gatherPlan{name: cfg.Topology.String(), chunks: 1, workers: make([]workerPlan, n)}
	for w := range p.workers {
		p.workers[w] = workerPlan{parent: -1, next: -1}
	}
	switch cfg.Topology {
	case cluster.TopologyTree:
		for w := 2; w < n; w++ {
			parent := (w - 2) / 2
			p.workers[w].parent = parent
			p.workers[parent].in = append(p.workers[parent].in, w)
		}
		for w := range p.workers {
			if len(p.workers[w].in) > 0 {
				p.workers[w].steps = []planStep{{send: -1, recv: 0, budget: cfg.RoundDeadline / 2}}
			}
		}
	case cluster.TopologyRing:
		p.chunks = n
		mod := func(i int) int { return (i%n + n) % n }
		for w := range p.workers {
			wp := &p.workers[w]
			wp.final = mod(w + 1)
			if n > 1 {
				wp.next, wp.in = mod(w+1), []int{mod(w - 1)}
			}
			for s := 0; s < n-1; s++ {
				wp.steps = append(wp.steps, planStep{send: mod(w - s), recv: mod(w - s - 1), budget: cfg.RoundDeadline / time.Duration(n)})
			}
		}
	}
	for w := range p.workers {
		if p.workers[w].parent < 0 {
			p.inputs = append(p.inputs, planInput{link: w, chunk: p.workers[w].final})
		}
	}
	return p
}

// level is worker w's depth below the driver, the key of the per-level
// merge accounting (Result.LevelMergeNs): 0 for the driver's direct
// senders, then one more per parent hop.
func (p *gatherPlan) level(w int) int {
	d := 0
	for p.workers[w].parent >= 0 {
		w = p.workers[w].parent
		d++
	}
	return d
}

// ringBounds splits [0, dim] into chunks+1 equal-range boundaries. Every
// party derives the same bounds from dim alone, so no coordination round
// is needed.
func ringBounds(dim uint64, chunks int) []uint64 {
	bounds := make([]uint64, chunks+1)
	for i := 0; i <= chunks; i++ {
		bounds[i] = uint64(float64(i) / float64(chunks) * float64(dim))
	}
	bounds[chunks] = dim
	return bounds
}

// workerLinks is one worker's aggregation wiring plus its persistent
// per-round buffers.
type workerLinks struct {
	w      int
	plan   *workerPlan
	bounds []uint64       // chunk key bounds (len chunks+1)
	out    cluster.Conn   // send end of the link to plan.parent or plan.next
	in     []cluster.Conn // receive ends, in plan.in order
	// held[i] keeps, per chunk, a frame that arrived on in[i] ahead of the
	// step that receives it (see recvChunk).
	held [][][]byte

	// Reusable buffers: the outbound frame, the merge target (swapped with
	// the message a merge replaces, so a failed merge leaves that message
	// intact), each chunk's message and gradient count, and each in link's
	// receive outcome.
	sendBuf  []byte
	mergeBuf []byte
	msg      [][]byte
	count    []int
	recvs    []recvOutcome
}

func (lk *workerLinks) close() {
	for _, c := range append([]cluster.Conn{lk.out}, lk.in...) {
		if c != nil {
			_ = c.Close()
		}
	}
}

// buildAggLinks wires the worker→worker aggregation links the plan uses
// and returns each worker's link view plus every connection end the driver
// must close on teardown. Star wires none.
func buildAggLinks(cfg *Config, plan *gatherPlan, wrap func(seedIdx int, inner cluster.Conn, outageFor int) *cluster.CountingConn, dim uint64) ([]workerLinks, []cluster.Conn) {
	bounds := ringBounds(dim, plan.chunks)
	links := make([]workerLinks, cfg.Workers)
	for w := range links {
		wp := &plan.workers[w]
		links[w] = workerLinks{
			w: w, plan: wp, bounds: bounds,
			in:    make([]cluster.Conn, len(wp.in)),
			held:  make([][][]byte, len(wp.in)),
			msg:   make([][]byte, plan.chunks),
			count: make([]int, plan.chunks),
			recvs: make([]recvOutcome, len(wp.in)),
		}
		for i := range links[w].held {
			links[w].held[i] = make([][]byte, plan.chunks)
		}
	}
	var aux []cluster.Conn
	for w := range links {
		wp := &plan.workers[w]
		to, outage := wp.parent, w
		if to < 0 {
			to, outage = wp.next, -1
		}
		if to < 0 {
			continue
		}
		// Edge w→to. The receiving end is the instrumented one: chaos
		// faults on receive, so drops, corruption, and outages hit the
		// frames w sends. Its chaos seed index sits past the driver links'
		// (Workers+w), so every link faults independently but reproducibly.
		// A worker whose final send goes to a parent carries its
		// ChaosOutage here instead of on its driver link (see RunContext):
		// an interior node dropping out degrades its subtree's gather while
		// its broadcasts keep flowing. The buffer holds MaxStrikes+2 rounds
		// of frames, so a peer absent for as long as the strike ledger
		// tolerates never blocks its sender.
		sendEnd, recvEnd := cluster.Pair((cfg.MaxStrikes + 2) * cfg.Workers)
		wrapped := wrap(cfg.Workers+w, recvEnd, outage)
		links[w].out = sendEnd
		links[to].in[slices.Index(plan.workers[to].in, w)] = wrapped
		aux = append(aux, sendEnd, wrapped)
	}
	return links, aux
}

// recvOutcome is the result of one chunk receive on one link.
type recvOutcome struct {
	g          *gradient.Sparse // decoded message (driver receives); aliases the decode target
	msg        []byte           // codec message; aliases the transport buffer, nil on a miss
	count      int              // worker gradients summed into msg
	frameBytes int64            // every frame received, discarded ones included
	decodeNs   int64
	timeouts   int
	corrupt    int
	stale      int
	err        error // strict mode only; tolerant mode turns every fault into a miss
}

// recvChunk receives chunk `chunk` of the given round from worker peer on
// conn: the one receive every gather link uses, driver and worker alike.
// In strict mode (no RoundDeadline) it blocks until a frame arrives, and
// any anomaly is an error. In tolerant mode it waits until deadline: a
// stale frame (another round or chunk) and a corrupt one (bad envelope,
// bad prefix, or a payload that fails decode) are counted and skipped, and
// the wait goes on. Deadline expiry is a timeout; a closed link is a miss
// without one. Either way the outcome is empty, never an abort.
//
// held, when non-nil, keeps a frame that arrives for another chunk of the
// same round until the receive for that chunk. A ring link carries W-1
// chunks per round in order, so when one is lost the next can arrive while
// this receive still waits; discarding it would lose that chunk too, and
// whether it came before or after the deadline would decide which.
//
// dst, when non-nil, is the decode target: the message is decoded into it
// (codec.DecodeReuse) and the outcome's g aliases it, so a steady-state
// driver gather allocates no gradients.
func recvChunk(cfg Config, conn cluster.Conn, peer, round, chunk int, deadline time.Time, held [][]byte, dst *gradient.Sparse) recvOutcome {
	var out recvOutcome
	for {
		var msg []byte
		if held != nil && held[chunk] != nil {
			msg, held[chunk] = held[chunk], nil
		} else {
			var wait time.Duration
			if cfg.tolerant() {
				if wait = time.Until(deadline); wait <= 0 {
					out.timeouts++
					return out
				}
			}
			var err error
			msg, err = cluster.RecvWithTimeout(conn, wait)
			if errors.Is(err, cluster.ErrTimeout) {
				out.timeouts++
				return out
			}
			if err != nil {
				if !cfg.tolerant() {
					out.err = fmt.Errorf("trainer: recv from worker %d: %w", peer, err)
				}
				return out
			}
			out.frameBytes += int64(len(msg))
		}
		kind, tag, payload, err := parseFrame(msg)
		if err != nil {
			if !cfg.tolerant() {
				out.err = fmt.Errorf("trainer: frame from worker %d: %w", peer, err)
				return out
			}
			out.corrupt++
			continue
		}
		if (kind != frameGrad && kind != frameAgg) || tag != round {
			if !cfg.tolerant() {
				out.err = fmt.Errorf("trainer: worker %d sent kind 0x%02x round %d during round %d", peer, kind, tag, round)
				return out
			}
			out.stale++
			continue
		}
		count, c, body, err := parseGatherPayload(kind, payload)
		if err != nil {
			if !cfg.tolerant() {
				out.err = fmt.Errorf("trainer: frame from worker %d: %w", peer, err)
				return out
			}
			out.corrupt++
			continue
		}
		if c != chunk {
			if !cfg.tolerant() {
				out.err = fmt.Errorf("trainer: worker %d sent chunk %d during chunk %d of round %d", peer, c, chunk, round)
				return out
			}
			if held != nil && c < len(held) {
				held[c] = append([]byte(nil), msg...)
			} else {
				out.stale++
			}
			continue
		}
		if dst != nil {
			t0 := time.Now()
			g, err := codec.DecodeReuse(cfg.Codec, body, dst)
			out.decodeNs += time.Since(t0).Nanoseconds()
			if err != nil {
				if !cfg.tolerant() {
					out.err = fmt.Errorf("trainer: decode from worker %d: %w", peer, err)
					return out
				}
				out.corrupt++
				continue
			}
			out.g = g
		}
		out.msg, out.count = body, count
		return out
	}
}

// gather runs this worker's part of one round's gather: encode the local
// gradient (one message per chunk), run the plan's steps, and send the
// final chunk to the parent or the driver. A missing or unusable frame
// leaves its chunk with the gradients already summed — the count on the
// wire keeps the driver's weighting unbiased — and only strict mode
// aborts. Step deadlines accumulate from the first step, so a step that
// waits out its budget still sends its next chunk a full budget before the
// successor's deadline for it.
func (lk *workerLinks) gather(cfg Config, driver cluster.Conn, g *gradient.Sparse, round int, rep *workerReport) error {
	whole := [1]*gradient.Sparse{g}
	parts := whole[:]
	if len(lk.msg) > 1 {
		parts = splitByRange(g, lk.bounds)
	}
	t0 := time.Now()
	for c, part := range parts {
		msg, err := cfg.Codec.Encode(part)
		if err != nil {
			rep.encodeNs += time.Since(t0).Nanoseconds()
			return fmt.Errorf("trainer: worker encode: %w", err)
		}
		lk.msg[c], lk.count[c] = msg, 1
	}
	rep.encodeNs += time.Since(t0).Nanoseconds()

	deadline := time.Now()
	for _, st := range lk.plan.steps {
		deadline = deadline.Add(st.budget)
		if st.send >= 0 {
			lk.sendBuf = appendGatherFrame(lk.sendBuf[:0], round, lk.count[st.send], st.send, lk.msg[st.send])
			if err := lk.out.Send(lk.sendBuf); err != nil && !cfg.tolerant() {
				return fmt.Errorf("trainer: worker %d send to worker %d: %w", lk.w, lk.plan.next, err)
			}
			// A dead out link in tolerant mode: the receiver misses this
			// chunk and keeps its own partial sum.
		}
		if err := lk.mergeStep(cfg, round, st, deadline, rep); err != nil {
			return err
		}
	}

	final := lk.plan.final
	lk.sendBuf = appendGatherFrame(lk.sendBuf[:0], round, lk.count[final], final, lk.msg[final])
	if lk.plan.parent < 0 {
		// The driver link is the protocol spine: a failed send is fatal.
		if err := driver.Send(lk.sendBuf); err != nil {
			return fmt.Errorf("trainer: worker send: %w", err)
		}
		return nil
	}
	if err := lk.out.Send(lk.sendBuf); err != nil && !cfg.tolerant() {
		return fmt.Errorf("trainer: worker %d send to parent: %w", lk.w, err)
	}
	// A dead uplink in tolerant mode: this subtree misses the round, and
	// the broadcast on the driver link keeps it in sync.
	return nil
}

// mergeStep receives one step's chunk from every in link, concurrently
// when there are several, and merges the arrivals wire-to-wire in link
// order.
func (lk *workerLinks) mergeStep(cfg Config, round int, st planStep, deadline time.Time, rep *workerReport) error {
	if len(lk.in) == 1 {
		lk.recvs[0] = recvChunk(cfg, lk.in[0], lk.plan.in[0], round, st.recv, deadline, lk.held[0], nil)
	} else {
		var wg sync.WaitGroup
		wg.Add(len(lk.in))
		for i := range lk.in {
			go func(i int, cfg Config) {
				defer wg.Done()
				lk.recvs[i] = recvChunk(cfg, lk.in[i], lk.plan.in[i], round, st.recv, deadline, lk.held[i], nil)
			}(i, cfg)
		}
		wg.Wait()
	}
	merger := cfg.Codec.(codec.Merger)
	c := st.recv
	for i := range lk.recvs {
		r := &lk.recvs[i]
		rep.timeouts += int64(r.timeouts)
		rep.corrupt += int64(r.corrupt)
		rep.aggBytes += r.frameBytes
		if r.err != nil {
			return r.err
		}
		if r.msg == nil {
			continue
		}
		t0 := time.Now()
		merged, err := merger.MergeInto(lk.mergeBuf, lk.msg[c], r.msg)
		rep.mergeNs += time.Since(t0).Nanoseconds()
		if err != nil {
			if !cfg.tolerant() {
				return fmt.Errorf("trainer: worker %d merge chunk %d from worker %d: %w", lk.w, c, lk.plan.in[i], err)
			}
			rep.corrupt++
			continue
		}
		lk.msg[c], lk.mergeBuf = merged, lk.msg[c][:0]
		lk.count[c] += r.count
		rep.merges++
	}
	return nil
}

// driverGather is the driver's per-run gather state: the plan plus, per
// input, a strike counter, a persistent decode target, and an outcome
// slot, and the per-chunk arrival totals. Allocated once, so a
// steady-state round allocates nothing here.
type driverGather struct {
	plan    *gatherPlan
	strikes []int             // consecutive missed rounds per input
	reuse   []gradient.Sparse // decode target per input
	outs    []recvOutcome     // this round's outcome per input
	totals  []int             // worker gradients summed per chunk this round
	wg      sync.WaitGroup
}

func newDriverGather(plan *gatherPlan) *driverGather {
	n := len(plan.inputs)
	return &driverGather{
		plan:    plan,
		strikes: make([]int, n),
		reuse:   make([]gradient.Sparse, n),
		outs:    make([]recvOutcome, n),
		totals:  make([]int, plan.chunks),
	}
}

// gather runs the driver's half of one round's gather: receive every plan
// input (on one goroutine per input when there are several), then fold the
// arrivals into acc sequentially in input order, so float summation — and
// thus training — stays deterministic. The decode meter sums per-input
// decode durations, not wall time, so DecodeTime reports the same CPU cost
// at any parallelism.
//
// Every rule reads the per-chunk totals (how many worker gradients reached
// each chunk) and never the topology. An arrival on chunk c is weighted
// 1/total[c]. Strict mode (RoundDeadline == 0) requires every total to be
// W, and any fault aborts. In tolerant mode a round whose totals fall
// short of W is degraded; it aborts only on quorum loss (Σ total below
// ⌈MinGatherFraction·W·chunks⌉) or when one input link misses MaxStrikes
// consecutive rounds.
//
//sketchlint:hotpath
func (d *driverGather) gather(cfg Config, round int, conns []*cluster.CountingConn, acc *gradient.Accumulator, es *EpochStats, driverDecode *time.Duration) error {
	p := d.plan
	deadline := time.Now().Add(cfg.RoundDeadline)
	if len(p.inputs) == 1 {
		in := p.inputs[0]
		//lint:allow hotpath-alloc recvChunk allocates only on fault paths (decode error, strict-mode abort); the clean-path receive is allocation-free
		d.outs[0] = recvChunk(cfg, conns[in.link], in.link, round, in.chunk, deadline, nil, &d.reuse[0])
	} else {
		d.wg.Add(len(p.inputs))
		for i := range p.inputs {
			// cfg travels as a goroutine argument (copied onto the new
			// goroutine's stack): captured, the >128-byte struct would be
			// moved to the heap by reference once per round.
			//lint:allow hotpath-alloc one goroutine closure per worker per round; the fan-out is the parallel-decode design
			go func(i int, cfg Config) {
				defer d.wg.Done()
				in := d.plan.inputs[i]
				d.outs[i] = recvChunk(cfg, conns[in.link], in.link, round, in.chunk, deadline, nil, &d.reuse[i])
			}(i, cfg)
		}
		d.wg.Wait()
	}
	clear(d.totals)
	for i := range d.outs {
		o := &d.outs[i]
		*driverDecode += time.Duration(o.decodeNs)
		es.Timeouts += o.timeouts
		es.CorruptFrames += o.corrupt
		es.StaleFrames += o.stale
		if o.err != nil {
			return o.err
		}
		if o.g != nil {
			d.totals[p.inputs[i].chunk] += o.count
			es.RawUpBytes += rawWireBytes(o.g)
			es.DecodedBytes += int64(len(o.msg))
		}
	}
	sum, degraded := 0, false
	for c, t := range d.totals {
		sum += t
		degraded = degraded || t < cfg.Workers
		if t != cfg.Workers && !cfg.tolerant() {
			return fmt.Errorf("trainer: strict %s gather summed %d/%d gradients for chunk %d in round %d",
				p.name, t, cfg.Workers, c, round)
		}
	}
	if cfg.tolerant() {
		want := cfg.Workers * p.chunks
		quorum := max(1, int(math.Ceil(cfg.MinGatherFraction*float64(want))))
		if sum < quorum {
			return fmt.Errorf("trainer: round %d: quorum lost, only %d/%d gradients aggregated (need %d)",
				round, sum, want, quorum)
		}
		for i := range d.outs {
			if d.outs[i].g != nil {
				d.strikes[i] = 0
				continue
			}
			d.strikes[i]++
			es.Strikes++
			if d.strikes[i] >= cfg.MaxStrikes {
				return fmt.Errorf("trainer: worker %d missed %d consecutive rounds (through round %d)",
					p.inputs[i].link, d.strikes[i], round)
			}
		}
		// Whole-gradient equivalents (a ring chunk is 1/chunks of a
		// gradient), rounded up so a degraded round skips at least one.
		es.SkippedGrads += (want - sum + p.chunks - 1) / p.chunks
		if degraded {
			es.DegradedRounds++
		}
	}
	for i := range d.outs {
		if d.outs[i].g == nil {
			continue
		}
		if err := acc.Add(d.outs[i].g, 1.0/float64(d.totals[p.inputs[i].chunk])); err != nil {
			return err
		}
	}
	return nil
}
