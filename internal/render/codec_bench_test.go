package render

import (
	"encoding/binary"
	"math"
	"testing"
)

// BenchmarkCompressFramebuffer tracks the wire codecs of a rendered
// picture on a realistic sparsely-lit frame: the three the remote
// service chooses between — the lossless RLE default, the quantized
// preview tier, and the XOR-delta between two nearly identical frames
// (the Subscribe-follow regime) — and the sort-last partial a render
// worker sends back.
// bytes/pixel is the number that matters for the fan-out economics —
// it is what a subscriber pays per frame at each tier.
func BenchmarkCompressFramebuffer(b *testing.B) {
	const w, h = 512, 512
	fb := quantFrame(b, w, h, 40_000)

	// A neighboring frame for the delta pair: same scene, a few more
	// fragments — the frame-to-frame churn of a correlated series.
	next := quantFrame(b, w, h, 40_000)
	for i := 0; i < 2000; i++ {
		next.Color[(i*4099)%len(next.Color)] += 0.01
	}

	// A sort-last partial: one cell's footprint, the frame's middle half
	// of rows and columns, on the cleared background.
	part, err := NewFramebuffer(w, h)
	if err != nil {
		b.Fatal(err)
	}
	for y := h / 4; y < 3*h/4; y++ {
		i := y*w + w/4
		copy(part.Color[4*i:4*(i+w/2)], fb.Color[4*i:])
		copy(part.Depth[i:i+w/2], fb.Depth[i:])
	}

	perPixel := func(b *testing.B, blob []byte) {
		b.ReportMetric(float64(len(blob))/(w*h), "bytes/pixel")
		b.SetBytes(int64(len(blob)))
	}

	b.Run("lossless", func(b *testing.B) {
		b.ReportAllocs()
		var blob []byte
		for i := 0; i < b.N; i++ {
			blob = CompressFramebuffer(fb)
		}
		perPixel(b, blob)
	})
	b.Run("quantized", func(b *testing.B) {
		b.ReportAllocs()
		var blob []byte
		for i := 0; i < b.N; i++ {
			blob = CompressFramebufferQuantized(fb)
		}
		perPixel(b, blob)
	})
	// The delta codec's regime is fixed-layout streams (the remote
	// frame encodings), where unchanged regions stay byte-aligned
	// between versions — model that with the raw color planes rather
	// than the RLE blobs, whose op streams shift after the first edit.
	rawPlane := func(fb *Framebuffer) []byte {
		out := make([]byte, 0, 4*len(fb.Color))
		for _, v := range fb.Color {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		}
		return out
	}
	b.Run("delta", func(b *testing.B) {
		b.ReportAllocs()
		cur := rawPlane(next)
		base := rawPlane(fb)
		var blob []byte
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blob = CompressDelta(cur, base)
		}
		perPixel(b, blob)
	})
	b.Run("partial", func(b *testing.B) {
		b.ReportAllocs()
		blob := AppendPartial(nil, part, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blob = AppendPartial(blob[:0], part, 1)
		}
		perPixel(b, blob)
	})
	b.Run("decompress/lossless", func(b *testing.B) {
		b.ReportAllocs()
		blob := CompressFramebuffer(fb)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := DecompressFramebuffer(blob); err != nil {
				b.Fatal(err)
			}
		}
		perPixel(b, blob)
	})
	b.Run("decompress/quantized", func(b *testing.B) {
		b.ReportAllocs()
		blob := CompressFramebufferQuantized(fb)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := DecompressFramebufferQuantized(blob); err != nil {
				b.Fatal(err)
			}
		}
		perPixel(b, blob)
	})
	b.Run("decompress/partial", func(b *testing.B) {
		b.ReportAllocs()
		blob := CompressPartial(part, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := DecompressPartial(blob); err != nil {
				b.Fatal(err)
			}
		}
		perPixel(b, blob)
	})
}
