package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// TestRLEBoundAndRoundTrip: every plane decodes back from its ops,
// the ops take at most one control byte per 128 words over the plane's
// bytes — the bound AppendRLE states and ACHY's encoder sizes its
// buffer by — and RLEBound refuses exactly the op streams too short to
// yield the words.
func TestRLEBoundAndRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words := func(ws ...uint32) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		return b
	}
	run := func(w uint32, n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = w
		}
		return out
	}
	var distinct, pairs, mixed []uint32
	for i := 0; i < 1000; i++ {
		distinct = append(distinct, uint32(i))
		pairs = append(pairs, uint32(i/2))         // runs of two only
		mixed = append(mixed, uint32(rng.Intn(3))) // short runs and singles
	}
	planes := map[string][]uint32{
		"empty":    nil,
		"one word": {7},
		"distinct": distinct,
		"pairs":    pairs,
		"mixed":    mixed,
	}
	for _, n := range []int{2, 128, 129, 130, 131, 257, 258, 259} {
		planes[fmt.Sprintf("run of %d", n)] = append(append([]uint32{1}, run(0x80000000, n)...), 2)
	}
	for name, ws := range planes {
		plane := words(ws...)
		ops := AppendRLE(nil, plane)
		if limit := len(plane) + (len(ws)+127)/128; len(ops) > limit {
			t.Errorf("%s: %d words in %d bytes of ops, over the bound %d", name, len(ws), len(ops), limit)
		}
		got := make([]byte, len(plane))
		rest, err := DecodeRLE(ops, got)
		if err != nil || len(rest) != 0 || !bytes.Equal(got, plane) {
			t.Errorf("%s: round trip: err %v, %d bytes left over, equal %v", name, err, len(rest), bytes.Equal(got, plane))
		}
		var rd Reader
		rd.RLEBound(len(ops), int64(len(ws)))
		if rd.Err() != nil {
			t.Errorf("%s: RLEBound refused the encoder's own ops: %v", name, rd.Err())
		}
	}
	for _, c := range []struct {
		n     int
		words int64
		ok    bool
	}{{5, 129, true}, {5, 130, false}, {10, 258, true}, {10, 259, false}, {0, 0, true}, {0, 1, false}} {
		var rd Reader
		rd.RLEBound(c.n, c.words)
		if (rd.Err() == nil) != c.ok {
			t.Errorf("RLEBound(%d bytes, %d words): err %v, want ok %v", c.n, c.words, rd.Err(), c.ok)
		}
	}
}
