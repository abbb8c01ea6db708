package provenance

import (
	"testing"

	"ariadne/internal/value"
)

// TestEncodedSizeMatchesEncoding checks that EncodedSize — the logical row
// size TotalBytes reports — bounds the size of each committed row-format
// (v1) file of the same layer, within the per-record varint slack the
// estimate allows.
func TestEncodedSizeMatchesEncoding(t *testing.T) {
	for name, l := range v1Fixtures() {
		actual := int64(len(readV1Fixture(t, name)))
		est := l.EncodedSize()
		// The estimate over-allocates varint headroom (up to ~12 bytes per
		// record plus message-peer slack); it must never undercount and
		// never exceed 2x.
		if est < actual || est > 2*actual+64 {
			t.Errorf("%s: estimate %d for a %d-byte v1 file", name, est, actual)
		}
	}
}

func TestValueEncodedSizeExact(t *testing.T) {
	vals := []value.Value{
		value.NullValue,
		value.NewBool(true),
		value.NewInt(-1),
		value.NewFloat(3.25),
		value.NewString(""),
		value.NewString("hello"),
		value.NewVector(nil),
		value.NewVector(make([]float64, 300)), // multi-byte uvarint length
	}
	for _, v := range vals {
		got := v.EncodedSize()
		actual := len(v.AppendBinary(nil))
		if got != actual {
			t.Errorf("%v (%v): EncodedSize %d, actual %d", v, v.Kind(), got, actual)
		}
	}
}
