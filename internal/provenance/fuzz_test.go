package provenance

import (
	"bytes"
	"testing"
)

// FuzzLayerV2Decode drives the layer-file reader with arbitrary bytes and
// an arbitrary projection mask, generalizing TestLayerTruncationNeverPanics
// from every-byte truncations to every mutation the fuzzer can find. The
// corpus is seeded with real files of both formats — LayerBuilder images
// and the committed v1 files of the same layers: the tricky-value layer
// (NaN, ±Inf, -0.0, extreme ints, non-ASCII strings, vectors), the
// WCC-shaped layer, a small generic layer and an empty one — so mutations
// start from structurally valid files and dig into the dictionary, delta,
// and varint decoders rather than bouncing off the magic check. The
// invariant under test: decode never panics and never over-allocates; it
// either returns a layer or a clean error, for the full read and for every
// projected read.
//
// CI runs this as a 30s smoke via `go test -fuzz FuzzLayerV2Decode`.
func FuzzLayerV2Decode(f *testing.F) {
	seeds := []struct {
		l  *Layer
		v1 string
	}{
		{trickyLayer(2), "tricky-2.prov"},
		{wccLayer(1, 40, 3), "wcc-1-40-3.prov"},
		{sampleLayer(3, 8), "sample-3-8.prov"},
		{&Layer{Superstep: 0}, "empty-0.prov"}, // no records: header+footer only
	}
	for _, sd := range seeds {
		v2 := encodeLayerColumnar(sd.l)
		v1 := readV1Fixture(f, sd.v1)
		for _, mask := range []uint16{uint16(maskAll), uint16(maskCore), 0} {
			f.Add(v2, mask)
			f.Add(v1, mask)
		}
		// A mid-file truncation seed steers mutations toward the footer
		// bounds checks (v2 reads the file back-to-front).
		f.Add(v2[:len(v2)/2], uint16(maskAll))
	}
	f.Add([]byte{}, uint16(maskAll))

	f.Fuzz(func(t *testing.T, data []byte, mask uint16) {
		full, err := readRaw(data, maskAll)
		if err == nil && full == nil {
			t.Fatal("readLayer returned neither layer nor error")
		}
		proj, got, err := readLayer(bytes.NewReader(data), int64(len(data)), colMask(mask))
		if err != nil {
			return
		}
		if proj == nil {
			t.Fatal("projected readLayer returned neither layer nor error")
		}
		// A successful projected decode must honor the superset contract:
		// at least the requested columns plus the always-on core set.
		want := (colMask(mask) | maskCore) & maskAll
		if got&want != want {
			t.Fatalf("projected decode materialized mask %04x, missing bits of %04x", got, want)
		}
		// A projected decode may succeed where the full decode errors (a
		// corrupt byte in a skipped column is invisible to it), but when
		// both succeed they must agree on the layer shape.
		if full != nil && (len(proj.Records) != len(full.Records) || proj.Superstep != full.Superstep) {
			t.Fatalf("projected decode shape (%d records, ss %d) != full (%d records, ss %d)",
				len(proj.Records), proj.Superstep, len(full.Records), full.Superstep)
		}
	})
}
