package trainer

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/gradient"
)

// These tests drive the driver gather — the fan-in that receives and
// decodes one message per plan input on its own goroutine — through its failure
// paths under -race: one worker delivering garbage (decode fails mid-
// gather) and one worker's connection dying (recv fails) while the other
// workers' decodes are still in flight. The gather must return a clean,
// attributed error without deadlocking on its WaitGroup or racing on the
// shared result slots. Part of the race-matrix sweep (make race-matrix).

const gatherDim = 4096

func gatherHarness(t *testing.T, workers int) (Config, []*cluster.CountingConn, []cluster.Conn, *gradient.Sparse, []byte) {
	t.Helper()
	c := codec.MustSketchML(codec.DefaultOptions())
	cfg := Config{Codec: c, Workers: workers}
	rng := rand.New(rand.NewSource(77))
	m := map[uint64]float64{}
	for len(m) < 120 {
		m[uint64(rng.Int63n(gatherDim))] = rng.NormFloat64() * 0.01
	}
	g := gradient.FromMap(gatherDim, m)
	msg, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	driverSide := make([]*cluster.CountingConn, workers)
	workerSide := make([]cluster.Conn, workers)
	for w := 0; w < workers; w++ {
		a, b := cluster.Pair(1)
		driverSide[w] = cluster.NewCounting(a)
		workerSide[w] = b
	}
	return cfg, driverSide, workerSide, g, msg
}

// newGather builds the driver gather of cfg's plan, as RunContext does.
func newGather(cfg Config) *driverGather { return newDriverGather(newGatherPlan(&cfg)) }

func TestGatherRoundDecodeFailureMidGather(t *testing.T) {
	const workers = 4
	cfg, driverSide, workerSide, _, msg := gatherHarness(t, workers)
	for w := 0; w < workers; w++ {
		payload := msg
		if w == 2 {
			payload = []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02}
		}
		if err := workerSide[w].Send(appendFrame(nil, frameGrad, 0, payload)); err != nil {
			t.Fatal(err)
		}
	}
	acc := gradient.NewAccumulator(gatherDim)
	var decode time.Duration
	err := newGather(cfg).gather(cfg, 0, driverSide, acc, &EpochStats{}, &decode)
	if err == nil {
		t.Fatal("the gather accepted a garbage message")
	}
	if !strings.Contains(err.Error(), "decode from worker 2") {
		t.Fatalf("error not attributed to the failing worker: %v", err)
	}
}

func TestGatherRoundRecvFailureMidGather(t *testing.T) {
	const workers = 4
	cfg, driverSide, workerSide, _, msg := gatherHarness(t, workers)
	for w := 0; w < workers; w++ {
		if w == 1 {
			// This worker dies before sending anything: its pair closes and
			// the driver's Recv must fail while the other three decodes run.
			if err := workerSide[w].Close(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := workerSide[w].Send(appendFrame(nil, frameGrad, 0, msg)); err != nil {
			t.Fatal(err)
		}
	}
	acc := gradient.NewAccumulator(gatherDim)
	var decode time.Duration
	err := newGather(cfg).gather(cfg, 0, driverSide, acc, &EpochStats{}, &decode)
	if err == nil {
		t.Fatal("the gather succeeded with a dead worker connection")
	}
	if !strings.Contains(err.Error(), "recv from worker 1") {
		t.Fatalf("error not attributed to the dead worker: %v", err)
	}
}

// TestGatherRoundAllHealthy pins the happy path the failure tests bracket:
// the same harness with every worker delivering a valid message must
// accumulate the mean gradient and report a nonzero decode duration.
func TestGatherRoundAllHealthy(t *testing.T) {
	const workers = 4
	cfg, driverSide, workerSide, _, msg := gatherHarness(t, workers)
	for w := 0; w < workers; w++ {
		if err := workerSide[w].Send(appendFrame(nil, frameGrad, 0, msg)); err != nil {
			t.Fatal(err)
		}
	}
	acc := gradient.NewAccumulator(gatherDim)
	var decode time.Duration
	if err := newGather(cfg).gather(cfg, 0, driverSide, acc, &EpochStats{}, &decode); err != nil {
		t.Fatal(err)
	}
	if decode <= 0 {
		t.Fatal("decode duration was not accumulated")
	}
}

// TestTolerantReceiveRules pins the one set of tolerant-receive rules on
// every topology's driver gather: a closed link is a miss without a
// timeout, a silent link is a miss with one, and a frame that passes its
// checksum but fails decode counts as corrupt while the receive keeps
// waiting for the real frame behind it.
func TestTolerantReceiveRules(t *testing.T) {
	const workers = 4
	// full[i] is the gradient count input i delivers on a clean round.
	full := map[cluster.Topology][]int{
		cluster.TopologyStar: {1, 1, 1, 1},
		cluster.TopologyTree: {3, 1}, // root 0 merges workers 2 and 3
		cluster.TopologyRing: {4, 4, 4, 4},
	}
	garbage := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02}
	for _, topo := range []cluster.Topology{cluster.TopologyStar, cluster.TopologyTree, cluster.TopologyRing} {
		for _, tc := range []struct {
			name                       string
			timeouts, corrupt, skipped int
		}{
			{"closed link", 0, 0, 1},
			{"silent link", 1, 0, 1},
			{"decode failure then valid frame", 0, 1, 0},
		} {
			cfg, driverSide, workerSide, _, msg := gatherHarness(t, workers)
			cfg.Topology = topo
			cfg = tolerantCfg(cfg)
			a, b := cluster.Pair(4) // input 1 queues two frames in one case
			driverSide[1], workerSide[1] = cluster.NewCounting(a), b
			d := newGather(cfg)
			for i, in := range d.plan.inputs {
				frame := func(payload []byte) []byte {
					return appendGatherFrame(nil, 0, full[topo][i], in.chunk, payload)
				}
				var err error
				switch {
				case i != 1:
					err = workerSide[in.link].Send(frame(msg))
				case tc.name == "closed link":
					err = workerSide[in.link].Close()
				case tc.name == "decode failure then valid frame":
					if err = workerSide[in.link].Send(frame(garbage)); err == nil {
						err = workerSide[in.link].Send(frame(msg))
					}
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			var es EpochStats
			var decode time.Duration
			if err := d.gather(cfg, 0, driverSide, gradient.NewAccumulator(gatherDim), &es, &decode); err != nil {
				t.Fatalf("%s, %s: %v", topo, tc.name, err)
			}
			if es.Timeouts != tc.timeouts || es.CorruptFrames != tc.corrupt || es.SkippedGrads != tc.skipped {
				t.Errorf("%s, %s: timeouts %d corrupt %d skipped %d, want %d %d %d", topo, tc.name,
					es.Timeouts, es.CorruptFrames, es.SkippedGrads, tc.timeouts, tc.corrupt, tc.skipped)
			}
		}
	}
}

// TestRecvChunkHoldsLaterChunk pins the hold rule: a frame for a later
// chunk of the same round, arriving while an earlier chunk's receive still
// waits, is kept for its own receive instead of being discarded as stale.
func TestRecvChunkHoldsLaterChunk(t *testing.T) {
	cfg, _, _, _, msg := gatherHarness(t, 4)
	cfg = tolerantCfg(cfg)
	in, out := cluster.Pair(4)
	// Chunk 1's frame was lost on the wire; chunk 2's arrives first.
	if err := out.Send(appendGatherFrame(nil, 0, 2, 2, msg)); err != nil {
		t.Fatal(err)
	}
	held := make([][]byte, 4)
	r := recvChunk(cfg, in, 3, 0, 1, time.Now().Add(cfg.RoundDeadline), held, nil)
	if r.msg != nil || r.timeouts != 1 || r.stale != 0 || held[2] == nil {
		t.Fatalf("chunk 1: msg %v timeouts %d stale %d, held chunk 2 %v", r.msg != nil, r.timeouts, r.stale, held[2] != nil)
	}
	// The held frame serves chunk 2's receive with nothing left on the wire.
	r = recvChunk(cfg, in, 3, 0, 2, time.Now().Add(cfg.RoundDeadline), held, nil)
	if r.count != 2 || string(r.msg) != string(msg) || held[2] != nil {
		t.Fatalf("chunk 2: count %d, message intact %v, slot cleared %v", r.count, string(r.msg) == string(msg), held[2] == nil)
	}
}
