package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// quick returns a configuration small enough for CI while keeping the
// shapes measurable.
func quick() Config { return Config{Scale: 0.5, Seed: 1} }

// skipUnderRace skips tests whose assertions compare wall-clock compute
// against modeled network cost. Race-detector instrumentation inflates
// CPU time 10-20x while the network model's costs stay fixed, so those
// orderings flip regardless of code correctness. The concurrency-heavy
// packages (trainer, cluster) keep full -race coverage; only the
// performance-shape assertions here are excluded.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("wall-clock shape assertions are not meaningful under the race detector")
	}
}

func TestIDsAndTitles(t *testing.T) {
	ids := IDs()
	if len(ids) < 15 {
		t.Fatalf("only %d experiment ids", len(ids))
	}
	for _, id := range ids {
		if Title(id) == "" {
			t.Errorf("id %q has no title", id)
		}
	}
	if _, err := Run("nope", quick()); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFig4Shape(t *testing.T) {
	rep, err := Run("fig4", quick())
	if err != nil {
		t.Fatal(err)
	}
	// The defining property: gradient values concentrate near zero.
	if frac := rep.Metrics["fraction_near_zero"]; frac < 0.5 {
		t.Errorf("only %.2f of values near zero; expected a skewed distribution", frac)
	}
	if !strings.Contains(rep.Text, "#") {
		t.Error("histogram not rendered")
	}
}

func TestFig8aShape(t *testing.T) {
	skipUnderRace(t)
	rep, err := Run("fig8a", quick())
	if err != nil {
		t.Fatal(err)
	}
	// SketchML must beat plain Adam on every model (the paper's headline).
	for _, m := range []string{"LR", "SVM", "Linear"} {
		adam := rep.Metrics["Adam_"+m+"_seconds"]
		sk := rep.Metrics["SketchML_"+m+"_seconds"]
		if sk >= adam {
			t.Errorf("%s: SketchML %.3fs not faster than Adam %.3fs", m, sk, adam)
		}
	}
}

func TestFig8bShape(t *testing.T) {
	rep, err := Run("fig8b", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Message sizes must shrink monotonically across the component stages
	// and the full stack should beat 4x compression (paper: 7.24x).
	adam := rep.Metrics["Adam_bytes"]
	key := rep.Metrics["Adam+Key_bytes"]
	quan := rep.Metrics["Adam+Key+Quan_bytes"]
	full := rep.Metrics["SketchML_bytes"]
	if !(full < quan && quan < key && key < adam) {
		t.Errorf("sizes not monotone: %v %v %v %v", adam, key, quan, full)
	}
	if rate := rep.Metrics["SketchML_rate"]; rate < 4 {
		t.Errorf("compression rate %.2f, want >= 4", rate)
	}
}

func TestFig8cShape(t *testing.T) {
	skipUnderRace(t)
	rep, err := Run("fig8c", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Compression costs CPU: the full stack's codec share must exceed the
	// raw baseline's, but stay a minority of total CPU.
	raw := rep.Metrics["Adam_codec_share_pct"]
	full := rep.Metrics["SketchML_codec_share_pct"]
	if full <= raw {
		t.Errorf("SketchML codec share %.1f%% should exceed raw %.1f%%", full, raw)
	}
	if full > 90 {
		t.Errorf("codec share %.1f%% implausibly high", full)
	}
}

func TestFig8dShape(t *testing.T) {
	skipUnderRace(t)
	rep, err := Run("fig8d", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Smaller batches -> sparser gradients and more rounds -> slower epochs.
	if rep.Metrics["ratio_0.1_sparsity_pct"] <= rep.Metrics["ratio_0.01_sparsity_pct"] {
		t.Error("sparsity should decrease with batch ratio")
	}
	if rep.Metrics["ratio_0.1_seconds"] >= rep.Metrics["ratio_0.01_seconds"] {
		t.Error("smaller batches should make epochs slower")
	}
	// Bytes/key stays close to the paper's ~1.3.
	for _, k := range []string{"ratio_0.1_bytes_per_key", "ratio_0.01_bytes_per_key"} {
		if v := rep.Metrics[k]; v < 1.0 || v > 3.0 {
			t.Errorf("%s = %.2f outside plausible band", k, v)
		}
	}
}

func TestFig9aShape(t *testing.T) {
	skipUnderRace(t)
	rep, err := Run("fig9a", quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"LR", "SVM", "Linear"} {
		adam := rep.Metrics["Adam_"+m+"_seconds"]
		zip := rep.Metrics["ZipML-16bit_"+m+"_seconds"]
		sk := rep.Metrics["SketchML_"+m+"_seconds"]
		if !(sk < zip && zip < adam) {
			t.Errorf("%s ordering wrong: sketchml %.3f, zipml %.3f, adam %.3f", m, sk, zip, adam)
		}
	}
}

func TestFig9bSmallerSpeedupThanKDD12(t *testing.T) {
	skipUnderRace(t)
	// Section 4.3.2: CTR is denser, so SketchML's relative speedup shrinks
	// compared to the KDD12-like dataset.
	a, err := Run("fig9a", quick())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig9b", quick())
	if err != nil {
		t.Fatal(err)
	}
	kddSpeedup := a.Metrics["SketchML_LR_speedup"]
	ctrSpeedup := b.Metrics["SketchML_LR_speedup"]
	if kddSpeedup <= 1 || ctrSpeedup <= 1 {
		t.Fatalf("speedups should exceed 1: kdd %.2f ctr %.2f", kddSpeedup, ctrSpeedup)
	}
	if ctrSpeedup >= kddSpeedup {
		t.Errorf("CTR speedup %.2f should be below KDD12 speedup %.2f", ctrSpeedup, kddSpeedup)
	}
}

func TestFig11Shape(t *testing.T) {
	skipUnderRace(t)
	rep, err := Run("fig11", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Adam degrades at 50 workers; SketchML keeps improving.
	if rep.Metrics["Adam_LR_w50_seconds"] <= rep.Metrics["Adam_LR_w10_seconds"] {
		t.Error("Adam should degrade from 10 to 50 workers")
	}
	if rep.Metrics["SketchML_LR_w50_seconds"] >= rep.Metrics["SketchML_LR_w10_seconds"] {
		t.Error("SketchML should improve from 10 to 50 workers")
	}
}

func TestTable2Shape(t *testing.T) {
	skipUnderRace(t)
	rep, err := Run("tab2", Config{Scale: 0.4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// All three methods converge to comparable loss; SketchML converges in
	// less simulated time than Adam.
	for _, m := range []string{"LR", "SVM"} {
		adam := rep.Metrics["Adam_"+m+"_min_loss"]
		sk := rep.Metrics["SketchML_"+m+"_min_loss"]
		if sk > adam*1.25+0.02 {
			t.Errorf("%s: SketchML loss %.4f too far above Adam %.4f", m, sk, adam)
		}
		if rep.Metrics["SketchML_"+m+"_conv_seconds"] >= rep.Metrics["Adam_"+m+"_conv_seconds"] {
			t.Errorf("%s: SketchML should converge in less simulated time", m)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	skipUnderRace(t)
	rep, err := Run("fig12", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Distributed SketchML beats the single-node run, and 10 workers beat 5.
	single := rep.Metrics["SingleNode_LR_seconds"]
	five := rep.Metrics["SketchML-5_LR_seconds"]
	ten := rep.Metrics["SketchML-10_LR_seconds"]
	if !(ten < five && five < single) {
		t.Errorf("ordering wrong: single %.3f, 5w %.3f, 10w %.3f", single, five, ten)
	}
}

func TestFig13Shape(t *testing.T) {
	skipUnderRace(t)
	rep, err := Run("fig13", quick())
	if err != nil {
		t.Fatal(err)
	}
	// More rows cost more time per epoch (more sketch bytes), as Table 3.
	if rep.Metrics["row_4_seconds"] <= rep.Metrics["default_seconds"] {
		t.Error("4 rows should be slower per epoch than 2")
	}
	// Wider columns should not hurt convergence.
	if rep.Metrics["col_d/2_loss"] > rep.Metrics["default_loss"]*1.3+0.02 {
		t.Error("wider sketch should not degrade final loss materially")
	}
}

func TestTable4Shape(t *testing.T) {
	skipUnderRace(t)
	rep, err := Run("tab4", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Epoch time ordering: SketchML < ZipML-8 < ZipML-16 < float < double.
	order := []string{"SketchML", "ZipML-8bit", "ZipML-16bit", "Adam-float", "Adam"}
	for i := 1; i < len(order); i++ {
		a := rep.Metrics[order[i-1]+"_seconds"]
		b := rep.Metrics[order[i]+"_seconds"]
		if a >= b {
			t.Errorf("%s (%.3fs) should be faster than %s (%.3fs)", order[i-1], a, order[i], b)
		}
	}
}

func TestFig14Shape(t *testing.T) {
	skipUnderRace(t)
	rep, err := Run("fig14", Config{Scale: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// All codecs should learn something.
	for _, c := range []string{"SketchML", "Adam", "ZipML-16bit"} {
		if acc := rep.Metrics[c+"_accuracy"]; acc < 0.3 {
			t.Errorf("%s accuracy %.2f, want > 0.3", c, acc)
		}
	}
	// SketchML's compressed rounds finish sooner.
	if rep.Metrics["SketchML_total_seconds"] >= rep.Metrics["Adam_total_seconds"] {
		t.Error("SketchML should complete the iteration budget in less simulated time")
	}
}

func TestAblationMinMax(t *testing.T) {
	rep, err := Run("ablation-minmax", quick())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics["minmax_over_pct"] != 0 {
		t.Errorf("MinMaxSketch overestimated %.2f%%, must be 0", rep.Metrics["minmax_over_pct"])
	}
	if rep.Metrics["countmin_over_pct"] <= 0 {
		t.Error("Count-Min strategy should overestimate under collisions")
	}
}

func TestAblationSign(t *testing.T) {
	rep, err := Run("ablation-sign", quick())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics["separated_reversed_pct"] != 0 {
		t.Errorf("separated pipeline reversed %.3f%% of gradients, must be 0",
			rep.Metrics["separated_reversed_pct"])
	}
	if rep.Metrics["joint_reversed_pct"] <= 0 {
		t.Error("joint pipeline should exhibit reversed gradients")
	}
}

func TestAblationGrouping(t *testing.T) {
	rep, err := Run("ablation-grouping", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Worst-case error must respect the q/r bound and shrink with r.
	for _, r := range []int{1, 4, 8, 16} {
		worst := rep.Metrics[keyf("r%d_worst", r)]
		if worst >= 256/float64(r) {
			t.Errorf("r=%d worst error %.0f >= bound %d", r, worst, 256/r)
		}
	}
	if rep.Metrics["r16_mean"] > rep.Metrics["r1_mean"] {
		t.Error("more groups should reduce mean error")
	}
}

func keyf(format string, args ...any) string {
	return sprintf(format, args...)
}

func TestAblationQuantile(t *testing.T) {
	rep, err := Run("ablation-quantile", quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{16, 64, 256} {
		rq := rep.Metrics[keyf("q%d_quantile", q)]
		ru := rep.Metrics[keyf("q%d_uniform", q)]
		if rq >= ru {
			t.Errorf("q=%d: quantile rel err %.4f should beat uniform %.4f", q, rq, ru)
		}
	}
}

func TestAblationKeyCodec(t *testing.T) {
	rep, err := Run("ablation-keycodec", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Delta-binary must beat raw 4-byte keys at every density and beat the
	// bitmap at the sparse end.
	for _, nnz := range []int{2000, 20000, 200000} {
		d := rep.Metrics[keyf("nnz%d_delta", nnz)]
		if d >= 4 {
			t.Errorf("nnz=%d: delta %.2f B/key not below 4", nnz, d)
		}
	}
	if rep.Metrics["nnz2000_bitmap"] <= rep.Metrics["nnz2000_delta"] {
		t.Error("bitmap should lose to delta at high sparsity")
	}
}

// sprintf is a tiny alias so shape tests read compactly.
func sprintf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

func TestAblationLossy(t *testing.T) {
	rep, err := Run("ablation-lossy", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Error feedback must not hurt Top-K convergence.
	if rep.Metrics["TopK-0.1+EF_loss"] > rep.Metrics["TopK-0.1_loss"]*1.05 {
		t.Error("error feedback should not hurt Top-K convergence")
	}
	// 1-bit messages are the smallest of all.
	if rep.Metrics["OneBit_bytes"] >= rep.Metrics["SketchML_bytes"] {
		t.Error("OneBit messages should be smaller than SketchML's")
	}
	// SketchML converges to a sane loss (its decay costs some epochs but
	// not correctness).
	if rep.Metrics["SketchML_loss"] > rep.Metrics["Adam_loss"]*2 {
		t.Errorf("SketchML loss %.4f too far above Adam %.4f",
			rep.Metrics["SketchML_loss"], rep.Metrics["Adam_loss"])
	}
	// Naive mean-scale 1-bit + error feedback is unstable (the residual
	// inflates the scale); the experiment must surface that divergence.
	if rep.Metrics["OneBit+EF_loss"] < rep.Metrics["OneBit_loss"] {
		t.Log("note: OneBit+EF stabilized on this run")
	}
}

func TestAblationSketchAlgo(t *testing.T) {
	rep, err := Run("ablation-sketch", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Every split finder must produce a working codec with quality
	// comparable to GK's.
	gk := rep.Metrics["GK_l2"]
	if gk <= 0 {
		t.Fatalf("degenerate GK reconstruction error %v", gk)
	}
	for _, name := range []string{"KLL", "Exact"} {
		l2 := rep.Metrics[name+"_l2"]
		if l2 <= 0 {
			t.Fatalf("degenerate %s reconstruction error %v", name, l2)
		}
		if gk > l2*3 || l2 > gk*3 {
			t.Errorf("GK (%.3e) and %s (%.3e) reconstruction quality diverges >3x", gk, name, l2)
		}
		// The wire size must not depend on the split finder materially.
		if b1, b2 := rep.Metrics["GK_bytes"], rep.Metrics[name+"_bytes"]; math.Abs(b1-b2) > 0.05*b1 {
			t.Errorf("message sizes diverge: GK %v vs %s %v", b1, name, b2)
		}
	}
}

func TestExtensionParameterServer(t *testing.T) {
	rep, err := Run("extension-ps", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Sharding the aggregation link must help uncompressed Adam more than
	// already-compressed SketchML.
	adamSpeedup := rep.Metrics["Adam_ps_speedup"]
	skSpeedup := rep.Metrics["SketchML_ps_speedup"]
	if adamSpeedup <= 1 {
		t.Errorf("PS should speed up Adam: %.2fx", adamSpeedup)
	}
	if adamSpeedup <= skSpeedup {
		t.Errorf("PS should help Adam (%.2fx) more than SketchML (%.2fx)", adamSpeedup, skSpeedup)
	}
}

func TestExtensionFM(t *testing.T) {
	rep, err := Run("extension-fm", quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"SketchML", "Adam", "ZipML-16bit"} {
		if acc := rep.Metrics[c+"_accuracy"]; acc < 0.6 {
			t.Errorf("%s FM accuracy %.2f, want > 0.6", c, acc)
		}
	}
	if rep.Metrics["SketchML_seconds"] >= rep.Metrics["Adam_seconds"] {
		t.Error("SketchML should be faster per epoch on FM gradients too")
	}
}

func TestExtensionSSP(t *testing.T) {
	rep, err := Run("extension-ssp", quick())
	if err != nil {
		t.Fatal(err)
	}
	// More staleness -> the first epoch of updates lands sooner.
	if rep.Metrics["s8_first_epoch_seconds"] >= rep.Metrics["s0_first_epoch_seconds"] {
		t.Error("staleness 8 should land the first epoch sooner than BSP")
	}
	// Convergence survives the staleness.
	for _, s := range []int{0, 2, 8} {
		if loss := rep.Metrics[keyf("s%d_loss", s)]; loss > 0.6 {
			t.Errorf("staleness %d: loss %.4f, want < 0.6", s, loss)
		}
	}
}
