package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// jobTrace is one traced job's spans with every span's party and driver
// round resolved, plus the driver round spans that parent them.
type jobTrace struct {
	spans      []span
	roundStart []int64 // driver round k spans [roundStart[k], roundEnd[k]]
	roundEnd   []int64
}

// resolve turns a finished traced probe into a jobTrace. Driver round k
// runs from the end of the driver's step k-1 (for round 0: the first
// gradient call) to the end of its step k. A driver call belongs to the
// round whose interval holds its start; a worker call belongs to the round
// its per-worker ordinal says (each worker makes the same number of calls
// of one kind every round). Calls after the last round (the final
// evaluation) get round -1.
func resolve(p *probe) (*jobTrace, error) {
	if len(p.errs) > 0 {
		return nil, p.errs[0]
	}
	rounds := len(p.bounds)
	if rounds == 0 {
		return nil, fmt.Errorf("no driver rounds recorded")
	}
	t := &jobTrace{
		spans:      p.spans,
		roundStart: make([]int64, rounds),
		roundEnd:   p.bounds,
	}
	t.roundStart[0] = p.firstGrad.Load()
	copy(t.roundStart[1:], p.bounds[:rounds-1])

	type key struct {
		party int
		op    op
	}
	groups := map[key][]int{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.party == partyUnknown {
			if s.gid == p.driverGID {
				s.party = partyDriver
			} else if w, ok := p.workers[s.gid]; ok {
				s.party = w
			} else {
				return nil, fmt.Errorf("%s.%s call on goroutine %d belongs to no party", opInfo[s.op].layer, opInfo[s.op].name, s.gid)
			}
		}
		if s.party == partyDriver {
			s.round = sort.Search(rounds, func(k int) bool { return p.bounds[k] >= s.start })
			if s.round == rounds {
				s.round = -1
			}
			continue
		}
		k := key{s.party, s.op}
		groups[k] = append(groups[k], i)
	}
	for _, idx := range groups {
		sort.Slice(idx, func(a, b int) bool { return t.spans[idx[a]].start < t.spans[idx[b]].start })
		for j, i := range idx {
			t.spans[i].round = j * rounds / len(idx)
		}
	}
	return t, nil
}

// unionLen returns how much of [lo, hi] the intervals cover.
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			covered += e - s
			cur = e
		}
	}
	return covered
}

// roundBreakdown is one driver round's time split.
type roundBreakdown struct {
	total, self, codec int64 // ns
}

// breakdown splits every driver round into the time its driver-side
// child spans (model, codec, optimizer) cover and its self time: the
// round minus that cover, i.e. waiting for workers, transport and
// aggregation. codec is the driver's codec cover alone: its critical-path
// decode and encode time. Overlapping children (the driver decodes its W
// messages concurrently) count once.
func (t *jobTrace) breakdown() []roundBreakdown {
	children := make([][][2]int64, len(t.roundEnd))
	codecs := make([][][2]int64, len(t.roundEnd))
	for _, s := range t.spans {
		if s.party != partyDriver || s.round < 0 {
			continue
		}
		iv := [2]int64{s.start, s.end}
		children[s.round] = append(children[s.round], iv)
		if opInfo[s.op].layer == "codec" {
			codecs[s.round] = append(codecs[s.round], iv)
		}
	}
	out := make([]roundBreakdown, len(t.roundEnd))
	for k := range out {
		lo, hi := t.roundStart[k], t.roundEnd[k]
		out[k] = roundBreakdown{
			total: hi - lo,
			self:  hi - lo - unionLen(children[k], lo, hi),
			codec: unionLen(codecs[k], lo, hi),
		}
	}
	return out
}

// chromeEvent is one Chrome trace-event ("X" complete event or "M"
// metadata), loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the job as Chrome trace-event JSON: thread 0
// holds the driver round spans (with their self time), thread 1 the
// driver's own calls, thread 2+w worker w's calls. Every call carries its
// round, which names its parent round span.
func writeChromeTrace(path string, t *jobTrace, workers int) error {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	events := []chromeEvent{
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 0, Args: map[string]any{"name": "driver round"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "driver"}},
	}
	for w := 0; w < workers; w++ {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: 2 + w,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", w)}})
	}
	for k, b := range t.breakdown() {
		events = append(events, chromeEvent{Name: "round", Cat: "trainer", Ph: "X",
			Ts: us(t.roundStart[k]), Dur: us(b.total), Pid: 1, Tid: 0,
			Args: map[string]any{"round": k, "self_us": us(b.self), "driver_codec_us": us(b.codec)}})
	}
	for _, s := range t.spans {
		args := map[string]any{"round": s.round}
		if s.bytes > 0 {
			args["bytes"] = s.bytes
		}
		if s.failed {
			args["failed"] = true
		}
		events = append(events, chromeEvent{Name: opInfo[s.op].name, Cat: opInfo[s.op].layer, Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.party + 2, Args: args})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
