// Command perfbench is the repository's end-to-end training benchmark.
//
//	perfbench --workload star-sketchml --seed 1 --seconds 10 --trace 0
//
// It generates the workload's data from the seed, trains through the
// public trainer.Run API in this one process, checks the outputs and
// prints every metric by name and unit; the last line of standard output
// is one JSON object. --trace 0 reports the end-to-end metrics from
// untraced jobs; --trace 1 reports the per-layer metrics from traced jobs
// (with untraced jobs interleaved to measure the tracing overhead) and
// writes one traced job as Chrome trace-event JSON under --trace-dir.
// Times are scaled to a reference host speed (see refkernel.go).
// See README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sketchml/internal/dataset"
	"sketchml/internal/trainer"
)

const (
	// defaultSeed is the seed a run uses when --seed is not given.
	defaultSeed = 1
	// heldOutSeed is kept out of the runs made while writing a change, so
	// a claimed gain can be re-checked on a seed it was not tuned on.
	heldOutSeed = 20261017
	// setupReps is how many times the data set-up is repeated per run; its
	// median is reported.
	setupReps = 15
	// minJobs is the least number of timed jobs a run makes, however short
	// --seconds is.
	minJobs = 4
	// warmUp is how long untimed jobs run before timing starts, so heap
	// sizing and lazy set-up finish first.
	warmUp = time.Second
	// lossTolerance bounds |test_loss - baseline| / baseline, where the
	// baseline is a single-worker Raw run of the same task and seed.
	// SketchML is lossy: over seeds 1-40 its loss ratio to the baseline
	// stays within 0.97-1.11 on every workload.
	lossTolerance = 0.15
	// procs is GOMAXPROCS. Every party shares one P, so a job needs one
	// CPU of the host, the reference kernel's single goroutine measures
	// the speed of that CPU, and runs on larger hosts stay comparable.
	procs = 1
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "star-sketchml", "workload to run")
	seed := fs.Int64("seed", defaultSeed, "seed for the workload's data and batching")
	seconds := fs.Int("seconds", 30, "how long the timed jobs run")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics from untraced jobs; 1: per-layer metrics from traced jobs")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "where --trace 1 writes the Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d: %v\n", *name, *seconds, *traceMode, err)
		return 2
	}
	runtime.GOMAXPROCS(procs)

	b := &bench{w: w, seed: *seed, out: stdout}
	before := liveHeap()
	b.ref = newRefKernel()
	b.refHeap = liveHeap() - before
	b.setUp()
	b.runJobs(time.Duration(*seconds)*time.Second, *traceMode == 1)
	b.check()
	fmt.Fprintf(stdout, "workload %s seed %d (default %d, held out %d): %d timed jobs of %d rounds, GOMAXPROCS %d\n",
		w.name, b.seed, defaultSeed, heldOutSeed, len(b.jobs), b.planned, procs)
	fmt.Fprintf(stdout, "reference kernel: median %.2f ms over %d runs (reference host %v); times below are scaled to the reference host\n",
		median(b.refMs), len(b.refMs), refNominal)

	var ms []metric
	if *traceMode == 1 {
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, *seed))
		if err := b.exportTrace(path); err != nil {
			b.failf("trace export: %v", err)
		}
		ms = b.perLayer()
	} else {
		ms = b.endToEnd()
	}
	return b.report(ms)
}

// job is one finished training job: trainer.Run over the workload's data.
type job struct {
	res          *trainer.Result
	err          error
	traced       bool
	failedRounds int
	wall         time.Duration // the whole trainer.Run call
	setup        time.Duration // trainer.Run start to its first gradient call
	roundsMs     []float64     // driver round durations
	peakLive     uint64        // highest live heap seen at a round boundary
	rt           rtCounters    // runtime counters over the job
	trace        *jobTrace
	// scale takes the job's times to the reference host: refNominal over
	// the mean of the reference kernel runs before and after the job.
	scale float64
}

type bench struct {
	w    workload
	seed int64
	out  io.Writer

	in   inputs
	genS []float64 // data set-up times, scaled to the reference host

	ref     *refKernel
	refMs   []float64     // every reference kernel run's time
	lastRef time.Duration // the latest reference kernel run's time
	refHeap uint64        // live heap the reference kernel holds

	planned    int // rounds per job
	perRound   int // training instances per round
	baseLoss   float64
	baseRounds int
	baseFailed bool
	problems   []string

	warm []job // untimed warm-up jobs; warm[0] is the reference output
	jobs []job // timed jobs
	// lossWrong marks a reference loss that failed a check: then every
	// job's output is wrong and all their rounds count as failed.
	lossWrong bool
}

func (b *bench) failf(format string, a ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, a...))
}

// measureRef runs the reference kernel, records its time and returns the
// scale for the work done since the previous run.
func (b *bench) measureRef() float64 {
	d := b.ref.run()
	b.refMs = append(b.refMs, float64(d)/1e6)
	f := scale(b.lastRef, d)
	b.lastRef = d
	return f
}

// setUp generates the data setupReps times (the same seed gives the same
// data every time), each between two reference kernel runs, runs the
// single-worker Raw baseline and the warm-up jobs.
func (b *bench) setUp() {
	b.ref.run() // the first run pages in the kernel's buffers
	b.measureRef()
	for i := 0; i < setupReps; i++ {
		var d time.Duration
		b.in = inputs{} // let the previous copy go before generating the next
		runtime.GC()    // so every set-up starts from the same heap
		b.in, d = generate(b.seed)
		b.genS = append(b.genS, d.Seconds()*b.measureRef())
	}
	b.planned, b.perRound = plan(b.w, b.in.train)

	base, err := trainer.Run(baselineConfig(b.seed), b.in.train, b.in.test)
	b.baseRounds, _ = plan(workload{workers: 1}, b.in.train)
	if err != nil {
		b.baseFailed = true
		b.failf("baseline run: %v", err)
	} else {
		b.baseLoss = base.FinalLoss
	}
	for t0 := time.Now(); len(b.warm) == 0 || time.Since(t0) < warmUp; {
		b.warm = append(b.warm, b.runJob(false))
	}
}

// plan mirrors trainer.Run's batch geometry: rounds per job and training
// instances per round.
func plan(w workload, train *dataset.Dataset) (rounds, perRound int) {
	workers := max(1, w.workers)
	n := train.N()
	global := max(int(batchFraction*float64(n)), workers)
	local := max(global/workers, 1)
	shard := (n + workers - 1) / workers
	perEpoch := max((shard+local-1)/local, 1)
	return perEpoch * jobEpochs, local * workers
}

// runJobs runs timed jobs until d has passed (and at least minJobs), each
// between two reference kernel runs. With traced set, jobs alternate
// untraced and traced.
func (b *bench) runJobs(d time.Duration, traced bool) {
	start := time.Now()
	b.measureRef()
	for i := 0; i < minJobs || time.Since(start) < d; i++ {
		j := b.runJob(traced && i%2 == 1)
		j.scale = b.measureRef()
		b.jobs = append(b.jobs, j)
	}
}

func (b *bench) runJob(traced bool) job {
	before := readRuntime()
	p := newProbe(traced, b.planned, b.w.workers)
	cfg := p.instrument(b.w.config(b.seed))
	res, err := trainer.Run(cfg, b.in.train, b.in.test)
	j := job{res: res, err: err, traced: traced, wall: time.Since(p.origin)}
	j.rt = readRuntime().sub(before)

	if err == nil {
		first := p.firstGrad.Load()
		j.setup = time.Duration(first)
		prev := first
		for _, t := range p.bounds {
			j.roundsMs = append(j.roundsMs, float64(t-prev)/1e6)
			prev = t
		}
		j.peakLive = p.peakLive
		if traced {
			j.trace, j.err = resolve(p)
		}
	}
	if j.err != nil {
		j.failedRounds = b.planned
		b.failf("job: %v", j.err)
		return j
	}
	// A degraded round is a failed one; strict mode (no RoundDeadline)
	// should never produce one.
	for _, e := range res.Epochs {
		j.failedRounds += e.DegradedRounds
	}
	if res.CompletedRounds != b.planned || len(j.roundsMs) != b.planned {
		j.failedRounds = b.planned
		b.failf("job completed %d rounds, %d driver steps; want %d", res.CompletedRounds, len(j.roundsMs), b.planned)
	}
	return j
}

// check verifies the outputs: test loss is finite, within lossTolerance
// of the single-worker Raw baseline, and bit-equal across every job of the
// seed; every job also sends the same bytes and merges as often as the
// reference, so traced jobs time the same program as untraced ones. A job
// that fails a check counts all its rounds as failed.
func (b *bench) check() {
	ref := b.warm[0]
	if ref.err != nil {
		return
	}
	loss := ref.res.FinalLoss
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		b.lossWrong = true
		b.failf("test loss %v is not finite", loss)
	}
	if b.baseLoss > 0 && math.Abs(loss-b.baseLoss) > lossTolerance*b.baseLoss {
		b.lossWrong = true
		b.failf("test loss %.6f differs from the single-worker Raw baseline %.6f by more than %.0f%%", loss, b.baseLoss, 100*lossTolerance)
	}
	for _, js := range [][]job{b.warm[1:], b.jobs} {
		for i := range js {
			j := &js[i]
			if j.err != nil {
				continue
			}
			var bad []string
			if math.Float64bits(j.res.FinalLoss) != math.Float64bits(loss) {
				bad = append(bad, fmt.Sprintf("test loss %v, want %v", j.res.FinalLoss, loss))
			}
			if upBytes(j.res) != upBytes(ref.res) {
				bad = append(bad, fmt.Sprintf("up bytes %d, want %d", upBytes(j.res), upBytes(ref.res)))
			}
			if merges(j.res) != merges(ref.res) {
				bad = append(bad, fmt.Sprintf("merges %d, want %d", merges(j.res), merges(ref.res)))
			}
			if len(bad) > 0 {
				j.failedRounds = b.planned
				b.failf("a job (traced %v) differs from the reference job: %s", j.traced, strings.Join(bad, "; "))
			}
		}
	}
}

// tally counts the rounds every run of this benchmark attempted (the
// baseline's and every job's) and those that failed.
func (b *bench) tally() (attempted, failed int) {
	attempted = b.baseRounds
	if b.baseFailed {
		failed = b.baseRounds
	}
	for _, js := range [][]job{b.warm, b.jobs} {
		for _, j := range js {
			attempted += b.planned
			if b.lossWrong {
				failed += b.planned
			} else {
				failed += j.failedRounds
			}
		}
	}
	return attempted, failed
}

func upBytes(r *trainer.Result) int64 {
	var n int64
	for _, e := range r.Epochs {
		n += e.UpBytes
	}
	return n
}

func merges(r *trainer.Result) int64 {
	var n int64
	for _, e := range r.Epochs {
		n += e.Merges
	}
	return n
}

// okJobs returns the timed jobs that ran cleanly, traced or not.
func (b *bench) okJobs(traced bool) []job {
	var out []job
	for _, j := range b.jobs {
		if j.err == nil && j.traced == traced {
			out = append(out, j)
		}
	}
	return out
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // how it was taken; printed, not in the JSON
}

func (b *bench) endToEnd() []metric {
	jobs := b.okJobs(false)
	var rounds, tails, tput, rawTput, setup, heap []float64
	tailP := 0.0
	for _, j := range jobs {
		for _, r := range j.roundsMs {
			rounds = append(rounds, r*j.scale)
		}
		var v float64
		v, tailP = tail(j.roundsMs)
		tails = append(tails, v*j.scale)
		samples := float64(b.planned * b.perRound)
		tput = append(tput, samples/(j.wall.Seconds()*j.scale))
		rawTput = append(rawTput, samples/j.wall.Seconds())
		setup = append(setup, j.setup.Seconds()*j.scale)
		heap = append(heap, float64(j.peakLive-b.refHeap)/1e6)
	}
	attempted, failed := b.tally()
	var loss, ratio, up float64
	if ref := b.warm[0]; ref.err == nil {
		loss, up = ref.res.FinalLoss, ref.res.AvgUpBytesPerRound()
		if b.baseLoss > 0 {
			ratio = loss / b.baseLoss
		}
	}
	n := len(jobs)
	return []metric{
		{"samples_per_s", median(tput), "1/s", fmt.Sprintf("median over %d jobs of %d instances / job wall time (unscaled: %.6g)", n, b.planned*b.perRound, median(rawTput))},
		{"round_ms_p50", median(rounds), "ms", fmt.Sprintf("%d driver rounds", len(rounds))},
		{"round_ms_tail", median(tails), "ms", fmt.Sprintf("median over %d jobs of each job's p%g of its %d rounds", n, tailP, b.planned)},
		{"test_loss_ratio", ratio, "ratio", fmt.Sprintf("test loss %.6f after %d rounds / single-worker Raw baseline %.6f", loss, b.planned, b.baseLoss)},
		{"up_bytes_per_round", up, "B", "worker-to-driver wire bytes per round"},
		{"peak_heap_mb", median(heap), "MB", fmt.Sprintf("median over %d jobs of the peak live heap at round boundaries, less the reference kernel's %.2f MB", n, float64(b.refHeap)/1e6)},
		{"setup_s", median(b.genS) + median(setup), "s", fmt.Sprintf("median of %d data set-ups + median trainer set-up to first gradient", setupReps)},
		{"completed_round_frac", 1 - float64(failed)/float64(attempted), "frac", fmt.Sprintf("1 - %d failed / %d attempted rounds", failed, attempted)},
	}
}

// perLayer derives the per-layer metrics: model, codec and optimizer from
// the traced jobs' spans, cluster from trainer.Result, runtime from the
// untraced jobs (so the tracer's own allocations do not count).
func (b *bench) perLayer() []metric {
	traced, plain := b.okJobs(true), b.okJobs(false)
	nt := float64(max(len(traced), 1))

	var durs [numOps][]float64
	var bytesEnc []float64
	var busy [numOps]float64
	var roundNs float64
	var codecErrs int
	var self, drvCodec []float64
	for _, j := range traced {
		for _, s := range j.trace.spans {
			d := float64(s.end-s.start) * j.scale
			durs[s.op] = append(durs[s.op], d)
			busy[s.op] += d
			if s.op == opEncode {
				bytesEnc = append(bytesEnc, float64(s.bytes))
			}
			if s.failed && opInfo[s.op].layer == "codec" {
				codecErrs++
			}
		}
		for _, r := range j.trace.breakdown() {
			roundNs += float64(r.total) * j.scale
			self = append(self, float64(r.self)/1e6*j.scale)
			drvCodec = append(drvCodec, float64(r.codec)/1e6*j.scale)
		}
	}
	calls := func(o op) float64 { return float64(len(durs[o])) / nt }
	us := func(o op, p float64) float64 { return percentile(durs[o], p) / 1e3 }
	tailUs := func(o op) float64 { v, _ := tail(durs[o]); return v / 1e3 }
	share := func(o op) float64 {
		if roundNs == 0 {
			return 0
		}
		return busy[o] / roundNs
	}
	var tracedWall, plainWall []float64
	for _, j := range traced {
		tracedWall = append(tracedWall, j.wall.Seconds()*j.scale)
	}
	var alloc, gcs, pause, user, util, meter []float64
	var rts []rtCounters
	for _, j := range plain {
		plainWall = append(plainWall, j.wall.Seconds()*j.scale)
		alloc = append(alloc, float64(j.rt.allocBytes)/1024/float64(b.planned))
		gcs = append(gcs, float64(j.rt.gcCycles))
		pause = append(pause, float64(j.rt.pauseNs)/1e6)
		user = append(user, j.rt.userCPU)
		util = append(util, j.rt.userCPU/(j.wall.Seconds()*float64(procs)))
		var meterS float64
		for _, e := range j.res.Epochs {
			meterS += (e.EncodeTime + e.DecodeTime).Seconds()
		}
		if j.rt.userCPU > 0 {
			meter = append(meter, meterS/j.rt.userCPU)
		}
		rts = append(rts, j.rt)
	}
	overhead := 0.0
	if len(tracedWall) > 0 && len(plainWall) > 0 {
		overhead = median(tracedWall)/median(plainWall) - 1
	}

	// Cluster counters: per-round traffic from one job (every job sends
	// the same bytes, as check verifies), fault counts summed over all.
	var up, down, decoded float64
	var corrupt, timeouts int64
	if ref := b.warm[0]; ref.err == nil {
		r := ref.res
		up, down = r.AvgUpBytesPerRound(), r.AvgDownBytesPerRound()
		var dec int64
		for _, e := range r.Epochs {
			dec += e.DecodedBytes
		}
		decoded = float64(dec) / float64(b.planned)
	}
	for _, js := range [][]job{b.warm, b.jobs} {
		for _, j := range js {
			if j.res == nil {
				continue
			}
			corrupt += j.res.WorkerCorruptFrames
			timeouts += j.res.WorkerTimeouts
			for _, e := range j.res.Epochs {
				corrupt += int64(e.CorruptFrames)
				timeouts += int64(e.Timeouts)
			}
		}
	}

	perJob := fmt.Sprintf("per job of %d rounds", b.planned)
	ofRounds := "summed span time / summed driver round time"
	return []metric{
		{"model.grad_calls", calls(opGrad), "count", perJob},
		{"model.grad_us_p50", us(opGrad, 50), "us", ""},
		{"model.grad_us_tail", tailUs(opGrad), "us", tailNote(durs[opGrad])},
		{"model.grad_busy_share", share(opGrad), "frac", ofRounds},
		{"model.eval_ms_p50", us(opEval, 50) / 1e3, "ms", ""},
		{"codec.encode_calls", calls(opEncode), "count", perJob},
		{"codec.encode_us_p50", us(opEncode, 50), "us", ""},
		{"codec.encode_us_tail", tailUs(opEncode), "us", tailNote(durs[opEncode])},
		{"codec.encode_busy_share", share(opEncode), "frac", ofRounds},
		{"codec.encode_bytes_p50", median(bytesEnc), "B", "encoded message size"},
		{"codec.decode_calls", calls(opDecode), "count", perJob},
		{"codec.decode_us_p50", us(opDecode, 50), "us", ""},
		{"codec.decode_us_tail", tailUs(opDecode), "us", tailNote(durs[opDecode])},
		{"codec.decode_busy_share", share(opDecode), "frac", ofRounds},
		{"codec.merge_calls", calls(opMerge), "count", perJob},
		{"codec.merge_us_p50", us(opMerge, 50), "us", ""},
		{"codec.merge_us_tail", tailUs(opMerge), "us", tailNote(durs[opMerge])},
		{"codec.merge_busy_share", share(opMerge), "frac", ofRounds},
		{"codec.errors", float64(codecErrs), "count", "failed codec calls, all traced jobs"},
		{"optim.step_calls", calls(opStep), "count", perJob},
		{"optim.step_us_p50", us(opStep, 50), "us", ""},
		{"optim.step_busy_share", share(opStep), "frac", ofRounds},
		{"trainer.round_self_ms_p50", median(self), "ms", "driver round minus the driver's own model, codec and optimizer spans"},
		{"trainer.driver_codec_ms_p50", median(drvCodec), "ms", "driver's decode+encode cover per round"},
		{"cluster.up_bytes_per_round", up, "B", ""},
		{"cluster.down_bytes_per_round", down, "B", "per worker"},
		{"cluster.decoded_bytes_per_round", decoded, "B", "bytes the driver decoded"},
		{"cluster.corrupt_frames", float64(corrupt), "count", "all jobs"},
		{"cluster.timeouts", float64(timeouts), "count", "all jobs"},
		{"runtime.alloc_kb_per_round", median(alloc), "KiB", "untraced jobs"},
		{"runtime.gc_cycles", median(gcs), "count", "per untraced job"},
		{"runtime.gc_pause_ms", median(pause), "ms", "per untraced job"},
		{"runtime.sched_latency_us_p99", schedP99(rts) * 1e6, "us", "untraced jobs, bucket upper edge"},
		{"runtime.user_cpu_s", median(user), "s", "per untraced job, /cpu/classes/user"},
		{"runtime.cpu_util", median(util), "frac", fmt.Sprintf("user CPU / (job wall time x GOMAXPROCS %d)", procs)},
		{"dataset.generate_s", median(b.genS), "s", fmt.Sprintf("median of %d", setupReps)},
		{"codec.meter_cpu_ratio", median(meter), "frac", "program's EncodeTime+DecodeTime / user CPU"},
		{"trace_overhead_frac", overhead, "frac", fmt.Sprintf("median traced job wall (%d jobs) / median untraced (%d jobs) - 1", len(tracedWall), len(plainWall))},
	}
}

func tailNote(xs []float64) string {
	_, p := tail(xs)
	return fmt.Sprintf("p%g of %d calls", p, len(xs))
}

// exportTrace writes the first traced job as Chrome trace-event JSON and
// prints each layer's busy and self time in it.
func (b *bench) exportTrace(path string) error {
	traced := b.okJobs(true)
	if len(traced) == 0 {
		return errors.New("no traced job ran cleanly")
	}
	t := traced[0].trace
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := writeChromeTrace(path, t, b.w.workers); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "trace: %s\n", path)
	// Only driver rounds have child spans; every call span is a leaf, so
	// its self time is its duration.
	var roundNs, selfNs int64
	for _, r := range t.breakdown() {
		roundNs += r.total
		selfNs += r.self
	}
	fmt.Fprintf(b.out, "self time, one job (%d rounds, %.1f ms of driver rounds; shares are of that time):\n", len(t.roundEnd), float64(roundNs)/1e6)
	fmt.Fprintf(b.out, "  %-16s %9.2f ms  %5.1f%%\n", "trainer.round", float64(selfNs)/1e6, 100*float64(selfNs)/float64(roundNs))
	var byOp [numOps]int64
	for _, s := range t.spans {
		byOp[s.op] += s.end - s.start
	}
	for o := op(0); o < numOps; o++ {
		label := opInfo[o].layer + "." + opInfo[o].name
		fmt.Fprintf(b.out, "  %-16s %9.2f ms  %5.1f%%\n", label, float64(byOp[o])/1e6, 100*float64(byOp[o])/float64(roundNs))
	}
	return nil
}

// report prints the metrics and the result line, and returns the exit
// code: nonzero when any check failed.
func (b *bench) report(ms []metric) int {
	for _, m := range ms {
		fmt.Fprintf(b.out, "  %-34s %14.6g %-5s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, p := range b.problems {
		fmt.Fprintf(b.out, "CHECK FAILED: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	attempted, failed := b.tally()
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(b.problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]value{},
	}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			out.Correct = false
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(b.out, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
