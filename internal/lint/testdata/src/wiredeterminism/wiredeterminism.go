// Package wiredeterminism is a sketchlint test fixture for the
// wire-determinism analyzer: no time, rand, map-order, or
// GOMAXPROCS-derived value may reach bytes written to the wire.
package wiredeterminism

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// seedOfDay derives a value from the wall clock; the nondeterminism is
// reported where a caller writes it, not here.
func seedOfDay() uint64 {
	return uint64(time.Now().Unix())
}

// EncodeStamped writes a timestamp into the frame header.
func EncodeStamped(dst []byte) []byte {
	now := uint64(time.Now().UnixNano())
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], now) // want "time.Now value"
	return append(dst, hdr[:]...)
}

// EncodeSeeded writes a helper's clock-derived seed — the source is one
// call away from the sink.
func EncodeSeeded(dst []byte) []byte {
	return binary.LittleEndian.AppendUint64(dst, seedOfDay()) // want "time.Now value"
}

// EncodeParallelism leaks the worker count into the frame.
func EncodeParallelism(dst []byte) []byte {
	par := uint32(runtime.GOMAXPROCS(0))
	return binary.LittleEndian.AppendUint32(dst, par) // want "runtime.GOMAXPROCS value"
}

// EncodeMapOrder writes map entries in iteration order, which differs
// run to run.
func EncodeMapOrder(dst []byte, m map[uint32]uint32) []byte {
	for k := range m {
		dst = binary.LittleEndian.AppendUint32(dst, k) // want "map iteration order value"
	}
	return dst
}

// EncodeSorted ranges the same map but sorts the keys first; sorting
// launders the ordering nondeterminism.
func EncodeSorted(dst []byte, m map[uint32]uint32) []byte {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint32(dst, k)
	}
	return dst
}

// newFixedRand returns a generator with a constant seed: its draws repeat
// run to run, which the model cannot tell from a clock seed.
func newFixedRand() *rand.Rand {
	return rand.New(rand.NewSource(42))
}

// EncodeFixedSeed writes a fixed-seed draw; the allow on the constructor
// call vouches for the generator, so nothing is reported downstream.
func EncodeFixedSeed(dst []byte) []byte {
	//lint:allow wire-determinism constant seed: the draws repeat run to run
	r := newFixedRand()
	return binary.LittleEndian.AppendUint64(dst, r.Uint64())
}

// EncodeFixedSeedUnvouched is the same write without the allow.
func EncodeFixedSeedUnvouched(dst []byte) []byte {
	r := newFixedRand()
	return binary.LittleEndian.AppendUint64(dst, r.Uint64()) // want "math/rand.New value"
}

// EncodeTimed measures encode latency without letting the clock touch the
// payload — metrics-only nondeterminism is fine.
func EncodeTimed(dst []byte, v uint64) ([]byte, int64) {
	t0 := time.Now()
	dst = binary.LittleEndian.AppendUint64(dst, v)
	return dst, time.Since(t0).Nanoseconds()
}
