package provenance

import (
	"bytes"
	"testing"
)

// FuzzLayerV2Decode drives the layer-file reader with arbitrary bytes and
// an arbitrary projection mask, generalizing TestLayerTruncationNeverPanics
// from every-byte truncations to every mutation the fuzzer can find. The
// corpus is seeded with LayerBuilder images of the tricky-value layer (NaN,
// ±Inf, -0.0, extreme ints, non-ASCII strings, vectors), the WCC-shaped
// layer, a small generic layer and an empty one — so mutations start from
// structurally valid files and dig into the dictionary, delta, and varint
// decoders rather than bouncing off the magic check — and with the
// committed v1 files of the same layers, which exercise the rejection path.
// Further seeds carry the repeat code: builder images of broadcast layers,
// whose send values are mostly repeats, and images with the code where it
// may not stand — a record's first send, the receive-value column. Version
// 4 seeds set the flags byte: a layer that derives its receive payloads,
// read here without its previous layer (a read projecting the payloads then
// fails), and one flagged so yet still holding its receive values.
// Every input is also read as the previous layer of a fixed layer that
// derives its receive payloads, seeded with that layer's true predecessor,
// so the derivation's transpose parses fuzzed vertex, send-peer and
// send-value columns: it either fails cleanly or fills receives whose
// senders the fixed layer stores, and from the true predecessor it gives
// back exactly the layer encoded.
// The invariant under test: decode never panics and never over-allocates;
// it either returns a layer or a clean error, for the full read and for
// every projected read, and a projected read decodes exactly the core and
// projected columns (the send peers only when projected or implied by the
// send values) and materializes nothing else. Every input is also read
// under the counts-only receive projection: where the full read accepts
// it, so does that read, each record holding as many zero receives as the
// full read's.
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
		for _, mask := range []uint16{uint16(maskAll), uint16(maskCore), 0, 1 << colSendPeers, uint16(maskCounts)} {
			f.Add(v2, mask)
			f.Add(v1, mask)
		}
		// A mid-file truncation seed steers mutations toward the footer
		// bounds checks (v2 reads the file back-to-front).
		f.Add(v2[:len(v2)/2], uint16(maskAll))
	}
	f.Add([]byte{}, uint16(maskAll))
	for _, l := range []*Layer{broadcastLayer(2, 12, 4), broadcastLayer(5, 3, 9)} {
		img := encodeLayerColumnar(l)
		for _, mask := range []uint16{uint16(maskAll), uint16(maskCore | 1<<colSendValues), 0} {
			f.Add(img, mask)
		}
	}
	f.Add(misplacedRepeat(colSendValues), uint16(maskAll))
	f.Add(misplacedRepeat(colRecvValues), uint16(maskAll))
	chain := derivedChain(5, 3)
	derived := oracleEncodeDerived(chain[2])
	for _, mask := range []uint16{uint16(maskAll), uint16(maskCore | 1<<colRecvPeers), 0, uint16(maskCounts)} {
		f.Add(derived, mask)
	}
	flagged := oracleEncodeColumnar(chain[2], layerVersionColumnar)
	flagged[5] = flagDerivedRecvs
	f.Add(flagged, uint16(maskAll))
	prev := encodeLayerColumnar(chain[1])
	f.Add(prev, uint16(maskAll))
	f.Add(prev[:len(prev)/2], uint16(maskAll))
	ownCols := maskAll &^ (1 << colRecvValues)
	wantOwn := layerBinary(project(chain[2], ownCols))
	wantAll := layerBinary(chain[2])

	f.Fuzz(func(t *testing.T, data []byte, mask uint16) {
		if l, _, err := readRawWork(derived, data, maskAll); err == nil {
			if !bytes.Equal(layerBinary(project(l, ownCols)), wantOwn) {
				t.Fatal("a derived read changed the layer's own columns")
			}
			if bytes.Equal(data, prev) && !bytes.Equal(layerBinary(l), wantAll) {
				t.Fatal("a derived read from the true predecessor differs from the layer encoded")
			}
		} else if bytes.Equal(data, prev) {
			t.Fatalf("a derived read from the true predecessor failed: %v", err)
		}
		full, err := readRaw(data, maskAll)
		if err == nil && full == nil {
			t.Fatal("readLayer returned neither layer nor error")
		}
		counts, countsErr := readRaw(data, maskCounts)
		if full != nil {
			if countsErr != nil {
				t.Fatalf("the full read accepts the input, the counts-only read fails: %v", countsErr)
			}
			sameRecvCounts(t, "counts-only read", full, counts)
		}
		proj, work, err := readRawWork(data, nil, colMask(mask))
		if err != nil {
			return
		}
		if proj == nil {
			t.Fatal("projected readLayer returned neither layer nor error")
		}
		// A successful projected decode reads exactly the requested columns
		// plus the always-on core set and the peers of requested message
		// values, each once, and materializes nothing more.
		want := colMask(mask).closed()
		if want.has(colSendPeers) != (mask&(1<<colSendPeers|1<<colSendValues) != 0) {
			t.Fatalf("mask %09b reads the send peers: %v", mask, want.has(colSendPeers))
		}
		if got := columnsOf(proj); got&^want.blocks() != 0 {
			t.Fatalf("projected decode materialized columns %09b outside %09b", got&^want.blocks(), want.blocks())
		}
		for col, w := range work {
			if blocks := int64(boolByte(want.blocks().has(col))); w.Blocks != blocks {
				t.Fatalf("projected decode (mask %09b) decoded %d blocks of column %d, want %d", want, w.Blocks, col, blocks)
			}
		}
		// A projected decode may succeed where the full decode errors (a
		// corrupt byte in a skipped column is invisible to it), but when
		// both succeed the projected one holds exactly the full one's data
		// in those columns.
		if full != nil && !bytes.Equal(encodeLayerColumnar(proj), encodeLayerColumnar(project(full, want))) {
			t.Fatalf("projected decode (%d records, ss %d) differs from the full decode (%d records, ss %d) projected to %09b",
				len(proj.Records), proj.Superstep, len(full.Records), full.Superstep, want)
		}
	})
}
