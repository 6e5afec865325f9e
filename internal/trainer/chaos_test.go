package trainer

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
	"sketchml/internal/model"
)

// Tolerant-gather unit tests run unconditionally; the full chaos soak at
// the bottom is gated behind SKETCHML_CHAOS_SOAK=1 (see `make chaos-soak`)
// because it deliberately burns real wall-clock time on round deadlines.

// tolerantCfg upgrades the gather harness config to degraded-round mode
// with explicit knobs (the harness bypasses Config.fill).
func tolerantCfg(cfg Config) Config {
	cfg.RoundDeadline = 80 * time.Millisecond
	cfg.MinGatherFraction = 0.5
	cfg.MaxStrikes = 3
	return cfg
}

func TestTolerantGatherProceedsWithMissingWorker(t *testing.T) {
	const workers = 4
	cfg, driverSide, workerSide, g, msg := gatherHarness(t, workers)
	cfg = tolerantCfg(cfg)
	for w := 0; w < workers; w++ {
		if w == 3 {
			continue // silent worker: its gradient never arrives
		}
		if err := workerSide[w].Send(appendFrame(nil, frameGrad, 0, msg)); err != nil {
			t.Fatal(err)
		}
	}
	acc := gradient.NewAccumulator(gatherDim)
	dg := newGather(cfg)
	strikes := dg.strikes
	var es EpochStats
	var decode time.Duration
	if err := dg.gather(cfg, 0, driverSide, acc, &es, &decode); err != nil {
		t.Fatalf("degraded round aborted: %v", err)
	}
	if es.Timeouts != 1 || es.SkippedGrads != 1 || es.Strikes != 1 || es.DegradedRounds != 1 {
		t.Errorf("counters = %+v, want one timeout/skip/strike/degraded round", es)
	}
	if strikes[3] != 1 {
		t.Errorf("strikes = %v, want worker 3 at 1", strikes)
	}
	// Three arrivals at weight 1/3 must reconstruct roughly the decoded
	// gradient mean: sum over the accumulated vector should be close to the
	// sketch-decoded single gradient's sum (all three sent the same bytes).
	want, err := cfg.Codec.Decode(msg)
	if err != nil {
		t.Fatal(err)
	}
	var wantSum, gotSum float64
	for _, v := range want.Values {
		wantSum += v
	}
	agg := acc.Sum()
	for _, v := range agg.Values {
		gotSum += v
	}
	if diff := wantSum - gotSum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("rescaled aggregate sum %v != single-gradient sum %v", gotSum, wantSum)
	}
	_ = g
}

func TestTolerantGatherQuorumLoss(t *testing.T) {
	const workers = 4
	cfg, driverSide, workerSide, _, msg := gatherHarness(t, workers)
	cfg = tolerantCfg(cfg)
	cfg.MinGatherFraction = 0.75 // quorum: 3 of 4
	for w := 0; w < 2; w++ {
		if err := workerSide[w].Send(appendFrame(nil, frameGrad, 0, msg)); err != nil {
			t.Fatal(err)
		}
	}
	acc := gradient.NewAccumulator(gatherDim)
	var es EpochStats
	var decode time.Duration
	err := newGather(cfg).gather(cfg, 0, driverSide, acc, &es, &decode)
	if err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("expected quorum-loss abort, got %v", err)
	}
}

func TestTolerantGatherMaxStrikesAborts(t *testing.T) {
	const workers = 2
	cfg, driverSide, workerSide, _, msg := gatherHarness(t, workers)
	cfg = tolerantCfg(cfg)
	if err := workerSide[0].Send(appendFrame(nil, frameGrad, 0, msg)); err != nil {
		t.Fatal(err)
	}
	dg := newGather(cfg)
	strikes := dg.strikes
	strikes[1] = cfg.MaxStrikes - 1 // one more miss crosses the line
	acc := gradient.NewAccumulator(gatherDim)
	var es EpochStats
	var decode time.Duration
	err := dg.gather(cfg, 0, driverSide, acc, &es, &decode)
	if err == nil || !strings.Contains(err.Error(), "consecutive") {
		t.Fatalf("expected max-strikes abort, got %v", err)
	}
}

func TestTolerantGatherSkipsStaleAndCorruptFrames(t *testing.T) {
	const workers = 2
	cfg, driverSide, workerSide, _, msg := gatherHarness(t, workers)
	cfg = tolerantCfg(cfg)
	// The harness pairs have depth 1; this test queues three frames ahead
	// of the gather, so worker 0 gets a deeper link.
	a, b := cluster.Pair(4)
	driverSide[0], workerSide[0] = cluster.NewCounting(a), b
	// Worker 0's queue: a stale frame from round 3, a corrupt frame, then
	// the real round-5 gradient. The gather must discard the first two and
	// still accept the third within the same deadline budget.
	if err := workerSide[0].Send(appendFrame(nil, frameGrad, 3, msg)); err != nil {
		t.Fatal(err)
	}
	if err := workerSide[0].Send([]byte{0xFF, 0x00}); err != nil {
		t.Fatal(err)
	}
	if err := workerSide[0].Send(appendFrame(nil, frameGrad, 5, msg)); err != nil {
		t.Fatal(err)
	}
	if err := workerSide[1].Send(appendFrame(nil, frameGrad, 5, msg)); err != nil {
		t.Fatal(err)
	}
	acc := gradient.NewAccumulator(gatherDim)
	var es EpochStats
	var decode time.Duration
	if err := newGather(cfg).gather(cfg, 5, driverSide, acc, &es, &decode); err != nil {
		t.Fatal(err)
	}
	if es.StaleFrames != 1 || es.CorruptFrames != 1 {
		t.Errorf("stale=%d corrupt=%d, want 1 and 1", es.StaleFrames, es.CorruptFrames)
	}
	if es.DegradedRounds != 0 || es.SkippedGrads != 0 {
		t.Errorf("round wrongly degraded: %+v", es)
	}
}

// TestTolerantCleanRunMatchesStrict pins that enabling the deadline on a
// fault-free run changes nothing: all W gradients arrive every round, the
// 1/W weighting matches the strict path bit for bit.
func TestTolerantCleanRunMatchesStrict(t *testing.T) {
	train, test := smallData(t)
	base := Config{
		Model: model.LogisticRegression{}, Codec: codec.MustSketchML(codec.DefaultOptions()),
		Optimizer: adamFactory(0.1), Workers: 3, Epochs: 2, Seed: 5,
	}
	strict, err := Run(base, train, test)
	if err != nil {
		t.Fatal(err)
	}
	tol := base
	tol.RoundDeadline = 2 * time.Second
	got, err := Run(tol, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if got.FinalLoss != strict.FinalLoss {
		t.Errorf("tolerant clean run loss %v != strict %v", got.FinalLoss, strict.FinalLoss)
	}
	for i := range got.Epochs {
		es := got.Epochs[i]
		if es.Timeouts+es.SkippedGrads+es.CorruptFrames+es.StaleFrames+es.Strikes+es.DegradedRounds != 0 {
			t.Errorf("epoch %d: clean run accrued robustness counters: %+v", i, es)
		}
	}
	if got.WorkerTimeouts != 0 || got.WorkerSkippedSteps != 0 || got.LostReports != 0 || got.WorkerFailures != 0 {
		t.Errorf("clean run reported worker-side faults: %+v", got)
	}
}

// soakCounters condenses the per-epoch robustness counters for comparison.
type soakCounters struct {
	timeouts, skipped, corrupt, stale, strikes, degraded int
}

func soakTally(r *Result) soakCounters {
	var c soakCounters
	for _, es := range r.Epochs {
		c.timeouts += es.Timeouts
		c.skipped += es.SkippedGrads
		c.corrupt += es.CorruptFrames
		c.stale += es.StaleFrames
		c.strikes += es.Strikes
		c.degraded += es.DegradedRounds
	}
	return c
}

// soakSeed gates a chaos soak behind SKETCHML_CHAOS_SOAK=1 and returns the
// fault seed: 1, or SKETCHML_CHAOS_SEED when set.
func soakSeed(t *testing.T) int64 {
	t.Helper()
	if os.Getenv("SKETCHML_CHAOS_SOAK") != "1" {
		t.Skip("set SKETCHML_CHAOS_SOAK=1 (or run `make chaos-soak`) to enable")
	}
	seed := int64(1)
	if s := os.Getenv("SKETCHML_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SKETCHML_CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	return seed
}

// soakRun runs one chaos training run, failing the test if it aborts or
// does not finish within two minutes (a deadlock).
func soakRun(t *testing.T, cfg Config, train, test *dataset.Dataset) *Result {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(cfg, train, test)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("%s chaos run aborted: %v", cfg.Topology, o.err)
		}
		return o.res
	case <-time.After(2 * time.Minute):
		t.Fatalf("%s chaos run deadlocked", cfg.Topology)
		return nil
	}
}

// TestChaosSoak trains under sustained injected faults — frame drops,
// corruption, duplication, delays, and one worker's mid-run disconnect +
// rejoin — and demands the four headline robustness properties:
//
//  1. the run completes (no deadlock, no abort) under -race;
//  2. the fault schedule and every driver-side robustness counter are
//     exactly reproducible from the seed;
//  3. training quality stays within 10% of the fault-free baseline;
//  4. the degraded-round machinery demonstrably engaged (counters nonzero).
//
// Gated behind SKETCHML_CHAOS_SOAK=1 because each run spends real
// wall-clock time on expired round deadlines. SKETCHML_CHAOS_SEED overrides
// the fault seed (the race matrix sweeps a second seed this way).
func TestChaosSoak(t *testing.T) {
	seed := soakSeed(t)
	train, test := smallData(t)
	base := Config{
		Model:     model.LogisticRegression{},
		Codec:     codec.MustSketchML(codec.DefaultOptions()),
		Optimizer: adamFactory(0.1),
		Workers:   4,
		Epochs:    3,
		Lambda:    0.01,
		Seed:      2,
	}
	clean, err := Run(base, train, test)
	if err != nil {
		t.Fatal(err)
	}

	chaosCfg := base
	chaosCfg.RoundDeadline = 250 * time.Millisecond
	// Quorum of 1: the soak exercises degraded rounds and strikes, not the
	// quorum abort (unit-tested above); a higher floor would make rare
	// multi-worker coincidence rounds abort the whole soak.
	chaosCfg.MinGatherFraction = 0.25
	chaosCfg.MaxStrikes = 10
	chaosCfg.Chaos = &cluster.ChaosSpec{
		Seed:        seed,
		RecvDrop:    0.06, // ≥5% of worker→driver gradient frames vanish
		RecvCorrupt: 0.06, // ≥1% arrive with flipped bytes (6% so the ~33-frame run sees several)
		RecvDup:     0.03,
		SendDelay:   0.05,
		DelayMin:    time.Millisecond,
		DelayMax:    4 * time.Millisecond,
	}
	// Worker 2 "disconnects" mid-run: its link drops everything for frame
	// ordinals [12, 15) in each direction, then heals and the worker
	// rejoins via round-tag fast-forward. The window must stay well clear
	// of MaxStrikes (the driver sees ~2x the window in consecutive misses)
	// and of the final rounds (so the end-of-run report gets through).
	chaosCfg.ChaosOutage = map[int]cluster.OutageWindow{2: {Start: 12, End: 15}}

	a := soakRun(t, chaosCfg, train, test)
	b := soakRun(t, chaosCfg, train, test)

	// Determinism: both runs saw byte-identical faults, so every
	// driver-side robustness counter and the trained model must agree.
	for i := range a.Epochs {
		ea, eb := a.Epochs[i], b.Epochs[i]
		if ea.Timeouts != eb.Timeouts || ea.SkippedGrads != eb.SkippedGrads ||
			ea.CorruptFrames != eb.CorruptFrames || ea.StaleFrames != eb.StaleFrames ||
			ea.Strikes != eb.Strikes || ea.DegradedRounds != eb.DegradedRounds {
			t.Errorf("epoch %d robustness counters differ across same-seed runs:\n  %+v\n  %+v", i, ea, eb)
		}
	}
	if a.FinalLoss != b.FinalLoss {
		t.Errorf("same-seed chaos runs trained different models: loss %v vs %v", a.FinalLoss, b.FinalLoss)
	}

	// The machinery engaged: faults were injected and survived.
	c := soakTally(a)
	if c.timeouts == 0 || c.skipped == 0 || c.strikes == 0 || c.degraded == 0 {
		t.Errorf("soak never degraded a round: %+v", c)
	}
	if c.corrupt == 0 {
		t.Errorf("no corrupt frames detected despite %v corruption rate", chaosCfg.Chaos.RecvCorrupt)
	}
	if c.stale == 0 {
		t.Errorf("no stale frames detected despite duplication and drops: %+v", c)
	}
	if a.WorkerTimeouts == 0 || a.WorkerSkippedSteps == 0 {
		t.Errorf("outage never reached worker 2: timeouts=%d skipped=%d",
			a.WorkerTimeouts, a.WorkerSkippedSteps)
	}
	if a.WorkerFailures != 0 {
		t.Errorf("%d workers died during the soak", a.WorkerFailures)
	}

	// Graceful degradation: the chaos run must still converge close to the
	// clean baseline.
	if a.FinalLoss > clean.FinalLoss*1.10 {
		t.Errorf("chaos loss %v more than 10%% above clean loss %v", a.FinalLoss, clean.FinalLoss)
	}
	t.Logf("seed %d: clean loss %.4f, chaos loss %.4f, counters %+v, worker timeouts %d, skipped steps %d, lost reports %d",
		seed, clean.FinalLoss, a.FinalLoss, c, a.WorkerTimeouts, a.WorkerSkippedSteps, a.LostReports)
}

// TestChaosSoakTree is the tree-gather counterpart of TestChaosSoak: the
// same sustained fault mix, but routed through a binary gather tree where
// worker 0 is the interior node merging the subtree {0, 2, 3} wire-to-wire
// before anything reaches the driver. The outage hits worker 0's driver
// link — an interior-node disconnect — so the driver transiently loses that
// entire merged subtree and must degrade at subtree granularity (three
// gradients skipped per missed round) while worker 1's root keeps quorum
// alive. Faults on the aggregation links themselves (child uplinks) are
// absorbed below the driver: the interior node counts them and delivers a
// partial count, which the driver turns into per-count weighting instead of
// a timeout. Same gate and seed override as TestChaosSoak; `make
// chaos-soak` runs both (-run TestChaosSoak is an unanchored match).
func TestChaosSoakTree(t *testing.T) {
	seed := soakSeed(t)
	train, test := smallData(t)
	base := Config{
		Model:     model.LogisticRegression{},
		Codec:     codec.MustSketchML(codec.DefaultOptions()),
		Optimizer: adamFactory(0.1),
		Workers:   4,
		Epochs:    3,
		Lambda:    0.01,
		Seed:      2,
		Topology:  cluster.TopologyTree,
	}
	clean, err := Run(base, train, test)
	if err != nil {
		t.Fatal(err)
	}

	chaosCfg := base
	chaosCfg.RoundDeadline = 250 * time.Millisecond
	chaosCfg.MinGatherFraction = 0.25 // quorum 1: worker 1's root alone carries outage rounds
	chaosCfg.MaxStrikes = 10
	chaosCfg.Chaos = &cluster.ChaosSpec{
		Seed:        seed,
		RecvDrop:    0.06,
		RecvCorrupt: 0.06,
		RecvDup:     0.03,
		SendDelay:   0.05,
		DelayMin:    time.Millisecond,
		DelayMax:    4 * time.Millisecond,
	}
	// Interior-node outage: worker 0's driver link goes dark for frame
	// ordinals [12, 15), taking the merged {0,2,3} subtree with it.
	chaosCfg.ChaosOutage = map[int]cluster.OutageWindow{0: {Start: 12, End: 15}}

	a := soakRun(t, chaosCfg, train, test)
	b := soakRun(t, chaosCfg, train, test)

	// Determinism: per-link fault schedules are seeded, so both runs must
	// agree on every robustness counter — driver-side and interior-node —
	// and on the trained model.
	for i := range a.Epochs {
		ea, eb := a.Epochs[i], b.Epochs[i]
		if ea.Timeouts != eb.Timeouts || ea.SkippedGrads != eb.SkippedGrads ||
			ea.CorruptFrames != eb.CorruptFrames || ea.StaleFrames != eb.StaleFrames ||
			ea.Strikes != eb.Strikes || ea.DegradedRounds != eb.DegradedRounds {
			t.Errorf("epoch %d robustness counters differ across same-seed runs:\n  %+v\n  %+v", i, ea, eb)
		}
	}
	if a.FinalLoss != b.FinalLoss {
		t.Errorf("same-seed tree chaos runs trained different models: loss %v vs %v", a.FinalLoss, b.FinalLoss)
	}
	if a.WorkerTimeouts != b.WorkerTimeouts || a.WorkerCorruptFrames != b.WorkerCorruptFrames {
		t.Errorf("interior-node counters differ across same-seed runs: timeouts %d/%d corrupt %d/%d",
			a.WorkerTimeouts, b.WorkerTimeouts, a.WorkerCorruptFrames, b.WorkerCorruptFrames)
	}

	// The tree actually merged (this is not a star run in disguise), and the
	// fault machinery engaged at both levels.
	c := soakTally(a)
	var merges int64
	for _, es := range a.Epochs {
		merges += es.Merges
	}
	if merges == 0 {
		t.Error("tree soak recorded zero wire-to-wire merges")
	}
	if c.timeouts == 0 || c.degraded == 0 {
		t.Errorf("soak never degraded a round: %+v", c)
	}
	// The interior outage must have cost the driver whole subtrees: each
	// missed root-0 round skips its full 3-worker subtree at once.
	if c.skipped < 3 {
		t.Errorf("interior-node outage never cost a full subtree: %d gradients skipped, want >= 3", c.skipped)
	}
	if c.corrupt+int(a.WorkerCorruptFrames) == 0 {
		t.Errorf("no corrupt frames detected anywhere despite %v corruption rate", chaosCfg.Chaos.RecvCorrupt)
	}
	if a.WorkerFailures != 0 {
		t.Errorf("%d workers died during the tree soak", a.WorkerFailures)
	}

	// Graceful degradation: within 10% of the fault-free tree baseline.
	if a.FinalLoss > clean.FinalLoss*1.10 {
		t.Errorf("tree chaos loss %v more than 10%% above clean loss %v", a.FinalLoss, clean.FinalLoss)
	}
	t.Logf("seed %d: clean tree loss %.4f, chaos loss %.4f, counters %+v, merges %d, worker timeouts %d, worker corrupt %d",
		seed, clean.FinalLoss, a.FinalLoss, c, merges, a.WorkerTimeouts, a.WorkerCorruptFrames)
}

// TestChaosSoakRing is the ring-gather counterpart of TestChaosSoak: the
// same fault mix on every link, including the ring edges, so reduce-scatter
// steps lose, corrupt and duplicate chunk frames and the affected chunks
// reach the driver with partial counts. Worker 2's driver link also goes
// dark for frame ordinals [12, 15), so its fully reduced chunk misses
// those rounds and the driver degrades at chunk granularity. Same gate and
// seed override as TestChaosSoak.
func TestChaosSoakRing(t *testing.T) {
	seed := soakSeed(t)
	train, test := smallData(t)
	base := Config{
		Model:     model.LogisticRegression{},
		Codec:     codec.MustSketchML(codec.DefaultOptions()),
		Optimizer: adamFactory(0.1),
		Workers:   4,
		Epochs:    3,
		Lambda:    0.01,
		Seed:      2,
		Topology:  cluster.TopologyRing,
	}
	clean, err := Run(base, train, test)
	if err != nil {
		t.Fatal(err)
	}

	chaosCfg := base
	chaosCfg.RoundDeadline = 250 * time.Millisecond
	// A quorum of one gradient's chunk: the soak exercises degraded rounds
	// and strikes, not the quorum abort.
	chaosCfg.MinGatherFraction = 1.0 / 16
	chaosCfg.MaxStrikes = 10
	chaosCfg.Chaos = &cluster.ChaosSpec{
		Seed:        seed,
		RecvDrop:    0.06,
		RecvCorrupt: 0.06,
		RecvDup:     0.03,
		SendDelay:   0.05,
		DelayMin:    time.Millisecond,
		DelayMax:    4 * time.Millisecond,
	}
	chaosCfg.ChaosOutage = map[int]cluster.OutageWindow{2: {Start: 12, End: 15}}

	a := soakRun(t, chaosCfg, train, test)
	b := soakRun(t, chaosCfg, train, test)

	// Determinism: driver-side and worker-side counters and the trained
	// model agree across same-seed runs.
	for i := range a.Epochs {
		ea, eb := a.Epochs[i], b.Epochs[i]
		if ea.Timeouts != eb.Timeouts || ea.SkippedGrads != eb.SkippedGrads ||
			ea.CorruptFrames != eb.CorruptFrames || ea.StaleFrames != eb.StaleFrames ||
			ea.Strikes != eb.Strikes || ea.DegradedRounds != eb.DegradedRounds {
			t.Errorf("epoch %d robustness counters differ across same-seed runs:\n  %+v\n  %+v", i, ea, eb)
		}
	}
	if a.FinalLoss != b.FinalLoss {
		t.Errorf("same-seed ring chaos runs trained different models: loss %v vs %v", a.FinalLoss, b.FinalLoss)
	}
	if a.WorkerTimeouts != b.WorkerTimeouts || a.WorkerCorruptFrames != b.WorkerCorruptFrames {
		t.Errorf("worker counters differ across same-seed runs: timeouts %d/%d corrupt %d/%d",
			a.WorkerTimeouts, b.WorkerTimeouts, a.WorkerCorruptFrames, b.WorkerCorruptFrames)
	}

	// The ring reduced wire-to-wire, and every fault class was detected:
	// drops and the outage as timeouts, corruption as corrupt frames,
	// duplicates as stale frames, and missed chunks as skipped gradients,
	// strikes and degraded rounds.
	c := soakTally(a)
	var merges int64
	for _, es := range a.Epochs {
		merges += es.Merges
	}
	if merges == 0 {
		t.Error("ring soak recorded zero wire-to-wire merges")
	}
	if c.timeouts == 0 || c.skipped == 0 || c.strikes == 0 || c.degraded == 0 {
		t.Errorf("soak never degraded a round: %+v", c)
	}
	if c.corrupt+int(a.WorkerCorruptFrames) == 0 {
		t.Errorf("no corrupt frames detected anywhere despite %v corruption rate", chaosCfg.Chaos.RecvCorrupt)
	}
	if c.stale == 0 {
		t.Errorf("no stale frames detected despite duplication and drops: %+v", c)
	}
	if a.WorkerTimeouts == 0 {
		t.Error("no ring step or broadcast wait ever expired on a worker")
	}
	if a.WorkerFailures != 0 {
		t.Errorf("%d workers died during the ring soak", a.WorkerFailures)
	}

	// Graceful degradation: within 10% of the fault-free ring baseline.
	if a.FinalLoss > clean.FinalLoss*1.10 {
		t.Errorf("ring chaos loss %v more than 10%% above clean loss %v", a.FinalLoss, clean.FinalLoss)
	}
	t.Logf("seed %d: clean ring loss %.4f, chaos loss %.4f, counters %+v, merges %d, worker timeouts %d, worker corrupt %d",
		seed, clean.FinalLoss, a.FinalLoss, c, merges, a.WorkerTimeouts, a.WorkerCorruptFrames)
}
