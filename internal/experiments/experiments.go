// Package experiments regenerates every table and figure of the SketchML
// paper's evaluation (Section 4 and Appendix B) on the synthetic substrate
// described in DESIGN.md. Each experiment returns a Report containing the
// rendered rows/series plus the key numeric metrics, so the same code backs
// both cmd/sketchbench and the root bench_test.go benchmarks.
//
// Absolute numbers differ from the paper (50-node Tencent clusters are
// replaced by one machine plus a network cost model); the shapes — who
// wins, by roughly what factor, where crossovers fall — are the
// reproduction target.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/model"
	"sketchml/internal/optim"
	"sketchml/internal/trainer"
)

// Report is the outcome of one experiment.
type Report struct {
	ID      string
	Title   string
	Text    string             // rendered tables / histograms / series
	Metrics map[string]float64 // key metrics, stable names, for benches
}

func (r *Report) String() string {
	return fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Text)
}

// Config scales an experiment run.
type Config struct {
	// Scale multiplies dataset sizes and epoch counts; 1.0 reproduces the
	// repository defaults, smaller values give quicker approximate runs.
	Scale float64
	// Seed offsets all data generation.
	Seed int64
}

// DefaultConfig returns Scale 1.0, Seed 1.
func DefaultConfig() Config { return Config{Scale: 1, Seed: 1} }

func (c Config) scaled(n int) int {
	if c.Scale <= 0 {
		return n
	}
	v := int(float64(n) * c.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// runner is an experiment entry point.
type runner func(Config) (*Report, error)

var registry = map[string]struct {
	title string
	fn    runner
}{
	"fig4":  {"Nonuniform gradient values (histogram)", Fig4},
	"fig8a": {"Run time per epoch, component ablation", Fig8a},
	"fig8b": {"Message size and compression rate", Fig8b},
	"fig8c": {"CPU overhead of compression", Fig8c},
	"fig8d": {"Impact of batch size and sparsity", Fig8d},
	"fig9a": {"End-to-end run time, KDD12-like", Fig9a},
	"fig9b": {"End-to-end run time, CTR-like", Fig9b},
	"fig10": {"Convergence: loss vs time", Fig10},
	"tab2":  {"Model accuracy: converged loss / time", Table2},
	"fig11": {"Scalability: 5/10/50 workers", Fig11},
	"fig12": {"Distributed vs single node", Fig12},
	"fig13": {"Hyper-parameter sensitivity", Fig13},
	"tab3":  {"Sensitivity run times", Fig13},
	"fig14": {"Neural network (MLP) convergence", Fig14},
	"tab4":  {"Weight types", Table4},

	"ablation-minmax":   {"MinMaxSketch vs Count-Min strategy", AblationMinMaxVsCountMin},
	"ablation-sign":     {"Signed vs joint quantification", AblationSignSeparation},
	"ablation-grouping": {"Grouped sketch error vs r", AblationGrouping},
	"ablation-quantile": {"Quantile vs uniform quantization", AblationQuantileVsUniform},
	"ablation-keycodec": {"Delta-binary vs varint vs bitmap keys", AblationKeyCodecs},
	"ablation-lossy":    {"Related-work lossy baselines (1-bit, Top-K, error feedback)", AblationLossyBaselines},
	"ablation-sketch":   {"GK vs KLL vs exact quantile splits in the codec", AblationSketchAlgo},
	"extension-ps":      {"Parameter-server topology vs single driver", ExtensionParameterServer},
	"extension-fm":      {"Factorization machine through each codec", ExtensionFactorizationMachine},
	"extension-ssp":     {"Stale synchronous parallel under a straggler", ExtensionSSP},
}

// IDs returns every experiment id in stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns the human title for an experiment id.
func Title(id string) string { return registry[id].title }

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (*Report, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have: %s)",
			id, strings.Join(IDs(), ", "))
	}
	rep, err := e.fn(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	rep.ID = id
	rep.Title = e.title
	return rep, nil
}

// ---- shared helpers ----

// adam returns the paper's Adam optimizer factory at learning rate lr.
func adam(lr float64) trainer.OptimizerFactory {
	return func(dim uint64) optim.Optimizer { return optim.NewAdam(lr, dim) }
}

// threeCodecs returns the paper's Section 4.3 competitors.
func threeCodecs() []codec.Codec {
	return []codec.Codec{
		codec.MustSketchML(codec.DefaultOptions()),
		&codec.Raw{}, // "Adam"
		&codec.ZipML{Bits: 16},
	}
}

// ablationCodecs returns the paper's Figure 8 cumulative component stages.
func ablationCodecs() []codec.Codec {
	keyOnly := codec.DefaultOptions()
	keyOnly.Quantize, keyOnly.MinMax = false, false
	keyQuan := codec.DefaultOptions()
	keyQuan.MinMax = false
	return []codec.Codec{
		&codec.Raw{},
		codec.MustSketchML(keyOnly),
		codec.MustSketchML(keyQuan),
		codec.MustSketchML(codec.DefaultOptions()),
	}
}

// run executes one training configuration against a train/test pair with
// the paper's default 10% batch fraction.
func run(mdl model.Model, c codec.Codec, workers, epochs int,
	net cluster.NetworkModel, train, test *dataset.Dataset, seed int64) (*trainer.Result, error) {
	return runBatchFrac(mdl, c, workers, epochs, 0.1, net, train, test, seed)
}

// runBatchFrac is run with an explicit batch fraction (Figure 8(d) varies it).
func runBatchFrac(mdl model.Model, c codec.Codec, workers, epochs int, batchFrac float64,
	net cluster.NetworkModel, train, test *dataset.Dataset, seed int64) (*trainer.Result, error) {
	return runFull(mdl, c, workers, epochs, batchFrac, net, train, test, seed, 1)
}

// runFull exposes every knob, including the compute-scale calibration used
// by the CTR-like experiments (see trainer.Config.ComputeScale).
func runFull(mdl model.Model, c codec.Codec, workers, epochs int, batchFrac float64,
	net cluster.NetworkModel, train, test *dataset.Dataset, seed int64, computeScale float64) (*trainer.Result, error) {
	return trainer.Run(trainer.Config{
		Model:         mdl,
		Codec:         c,
		Optimizer:     adam(0.1),
		Workers:       workers,
		BatchFraction: batchFrac,
		Epochs:        epochs,
		Lambda:        0.01,
		Seed:          seed,
		Network:       net,
		ComputeScale:  computeScale,
	}, train, test)
}
