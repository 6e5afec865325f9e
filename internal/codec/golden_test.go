package codec

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"sketchml/internal/quantizer"
)

// TestWireFormatGolden pins every codec's wire format: a fixed gradient
// must encode to byte-identical messages across changes. A failure here
// means the wire format changed — which breaks mixed-version clusters —
// and must be deliberate (update the constants AND note the format break).
func TestWireFormatGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	g := randomGradient(rng, 100000, 1500)
	golden := []struct {
		name string
		size int
		sum  uint64
	}{
		{"Adam", 18014, 0x01033dbb8d38ca0b},
		{"Adam-float", 12014, 0xb868a1bd3030d8bf},
		{"ZipML-8bit", 7531, 0x459a1147a22ed974},
		{"ZipML-16bit", 9031, 0x2d425bf2d8ffbc72},
		{"OneBit", 2128, 0xb64286fa382062fd},
		{"TopK-0.5", 4067, 0xdf245d71da095d1b},
		{"SketchML", 3542, 0x032ffb1822c7b6b2},
	}
	codecs := allDecoders()
	// The SketchML entry was recorded under the GK split finder.
	gk := DefaultOptions()
	gk.Algo = quantizer.GKAlgo
	codecs[len(codecs)-1] = MustSketchML(gk)
	if len(codecs) != len(golden) {
		t.Fatalf("codec set changed: %d codecs, %d golden entries", len(codecs), len(golden))
	}
	for i, c := range codecs {
		msg, err := c.Encode(g)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		want := golden[i]
		if c.Name() != want.name {
			t.Fatalf("codec %d is %q, golden says %q", i, c.Name(), want.name)
		}
		h := fnv.New64a()
		h.Write(msg)
		if len(msg) != want.size || h.Sum64() != want.sum {
			t.Errorf("%s wire format changed: size %d (want %d), fnv 0x%016x (want 0x%016x)",
				c.Name(), len(msg), want.size, h.Sum64(), want.sum)
		}
	}
}
