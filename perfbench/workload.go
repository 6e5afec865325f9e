package main

import (
	"fmt"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/model"
	"sketchml/internal/optim"
	"sketchml/internal/trainer"
)

// Training task shared by every workload: the paper's KDD12-like logistic
// regression with Adam and the default batch fraction. One job is
// jobEpochs passes over the training split; with a 0.1 batch fraction an
// epoch is 10 driver rounds at any worker count, so a job is 100 rounds:
// enough for a per-job p90 with ten rounds beyond it.
const (
	trainFrac     = 0.75
	batchFraction = 0.1
	lambda        = 0.01
	adamLR        = 0.1
	jobEpochs     = 10
)

// workload is one benchmark configuration: a codec, a gather topology, a
// transport and a worker count, trained on data generated from the seed.
type workload struct {
	name     string
	why      string
	workers  int
	topology cluster.Topology
	tcp      bool
	codec    func() codec.Codec
}

func newSketchML() codec.Codec { return codec.MustSketchML(codec.DefaultOptions()) }

func newRaw() codec.Codec { return &codec.Raw{} }

var workloads = []workload{
	{
		name:     "star-sketchml",
		why:      "SketchML codec, star gather, in-memory links, W=2: the codec's encode path is the bottleneck",
		workers:  2,
		topology: cluster.TopologyStar,
		codec:    newSketchML,
	},
	{
		name:     "star-raw-tcp",
		why:      "Raw codec over loopback TCP, W=2: bypasses the sketch path, model-bound, exercises TCP framing",
		workers:  2,
		topology: cluster.TopologyStar,
		tcp:      true,
		codec:    newRaw,
	},
	{
		name:     "tree-sketchml",
		why:      "SketchML, tree gather, in-memory, W=4: the only workload with wire-to-wire merges",
		workers:  4,
		topology: cluster.TopologyTree,
		codec:    newSketchML,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// inputs is one seed's generated data.
type inputs struct {
	train, test *dataset.Dataset
}

// generate builds the seed's dataset and its train/test split, and reports
// how long that took: the data half of set-up time.
func generate(seed int64) (inputs, time.Duration) {
	t0 := time.Now()
	train, test := dataset.KDD12Like(seed).Split(trainFrac, seed)
	return inputs{train: train, test: test}, time.Since(t0)
}

// config is the workload's trainer configuration for one job. Every party
// gets its own codec instance through CodecFactory, so a timing wrapper
// can tell the parties apart; SketchML derives its hash seed from message
// content, so per-party instances produce the same bytes as a shared one.
func (w workload) config(seed int64) trainer.Config {
	return trainer.Config{
		Trainable:     model.Wrap(model.LogisticRegression{}),
		CodecFactory:  w.codec,
		Optimizer:     func(dim uint64) optim.Optimizer { return optim.NewAdam(adamLR, dim) },
		Workers:       w.workers,
		Topology:      w.topology,
		UseTCP:        w.tcp,
		BatchFraction: batchFraction,
		Epochs:        jobEpochs,
		Lambda:        lambda,
		Seed:          seed,
	}
}

// baselineConfig is the plain single-worker Raw run of the same task and
// seed that the output check compares test loss against.
func baselineConfig(seed int64) trainer.Config {
	return workload{workers: 1, codec: newRaw}.config(seed)
}
