package main

import (
	"math/rand"
	"slices"
	"time"
)

// The host this benchmark runs on is shared: its speed per CPU second
// drifts by a quarter or more over minutes while neighbours load the
// machine, with no steal time to show for it, so CPU time drifts with
// wall time. Every timed job is therefore bracketed by a fixed reference
// kernel, and the job's times are scaled by refNominal over the kernel's
// time around it: a time reported as 5 ms is what the job would take on
// a host where the kernel takes refNominal. The kernel is this package's
// own code and uses none of the repository's, so a change to the program
// moves the job and not the reference.

// refNominal is the reference kernel's time on the reference host.
const refNominal = 50 * time.Millisecond

// refKernel does the same kinds of work as a training round: sparse
// gathers and scatters over a model-sized float vector, sorting floats
// (quantile sketches), hash-table updates (MinMaxSketch) and byte
// encoding. Its buffers are allocated once, so a run does not allocate
// and the garbage collector does not time itself into it.
type refKernel struct {
	theta []float64
	idx   []int32
	vals  []float64
	rand  []float64
	table map[int32]float64
	buf   []byte
	sink  float64
}

const (
	refDim     = 50000  // model dimension of the KDD12-like task
	refNNZ     = 25     // nonzeros per instance
	refKeys    = 200000 // keys gathered per pass
	refSort    = 4096   // floats sorted per pass
	refHashed  = 20000  // keys hashed per pass
	refPasses  = 26
	refEncoded = 3 // bytes written per encoded key
)

func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(7))
	k := &refKernel{
		theta: make([]float64, refDim),
		idx:   make([]int32, refKeys),
		vals:  make([]float64, refSort),
		rand:  make([]float64, refSort),
		table: make(map[int32]float64, refHashed),
		buf:   make([]byte, 0, refEncoded*refHashed),
	}
	for i := range k.theta {
		k.theta[i] = rng.NormFloat64()
	}
	for i := range k.idx {
		k.idx[i] = int32(rng.Intn(refDim))
	}
	for i := range k.rand {
		k.rand[i] = rng.Float64()
	}
	return k
}

// run does the kernel's fixed work once and returns how long it took.
func (k *refKernel) run() time.Duration {
	t0 := time.Now()
	var acc float64
	for pass := 0; pass < refPasses; pass++ {
		for i := 0; i+refNNZ <= len(k.idx); i += refNNZ {
			keys := k.idx[i : i+refNNZ]
			var dot float64
			for _, j := range keys {
				dot += k.theta[j]
			}
			g := 1 / (1 + dot*dot)
			for _, j := range keys {
				k.theta[j] -= 1e-6 * g
			}
			acc += g
		}
		copy(k.vals, k.rand)
		slices.Sort(k.vals)
		clear(k.table)
		for _, j := range k.idx[:refHashed] {
			k.table[j] += k.theta[j]
		}
		k.buf = k.buf[:0]
		for _, j := range k.idx[:refHashed] {
			k.buf = append(k.buf, byte(j), byte(j>>8), byte(j>>16))
		}
		acc += float64(len(k.table)) + k.vals[pass] + float64(k.buf[pass])
	}
	k.sink = acc
	return time.Since(t0)
}

// scale returns the factor that takes times measured between two kernel
// runs of durations before and after to the reference host.
func scale(before, after time.Duration) float64 {
	return 2 * float64(refNominal) / float64(before+after)
}
