package provenance

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ariadne/internal/fault"
)

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestSpillWriteRetriesTransientErrors(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreConfig{
		SpillAll: true,
		SpillDir: dir,
		Fault:    fault.NewInjector(fault.IOErrors(fault.SiteSpillWrite, 2)),
	})
	defer s.Close()
	if err := s.AppendLayer(sampleLayer(0, 5)); err != nil {
		t.Fatalf("transient spill errors should be retried: %v", err)
	}
	// The layer landed at the final path, readable, with no temp debris.
	got, err := s.Layer(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 5 {
		t.Errorf("reloaded layer has %d records, want 5", len(got.Records))
	}
	for _, name := range listDir(t, dir) {
		if filepath.Ext(name) == ".tmp" {
			t.Errorf("temp file %s left behind", name)
		}
	}
}

func TestSpillWriteExhaustedRetriesLeaveNoPartialFile(t *testing.T) {
	// The write-behind pipeline: the enqueue succeeds, the exhausted write
	// surfaces at Sync (or the next AppendLayer), and the failed layer
	// reverts to resident so its provenance is not lost.
	t.Run("async", func(t *testing.T) {
		dir := t.TempDir()
		s := NewStore(StoreConfig{
			SpillAll: true,
			SpillDir: dir,
			Fault:    fault.NewInjector(fault.IOErrors(fault.SiteSpillWrite, 100)),
		})
		defer s.Close()
		if err := s.AppendLayer(sampleLayer(0, 5)); err != nil && !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("append = %v, want nil or deferred ErrInjected", err)
		}
		if err := s.Sync(); err != nil && !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("Sync = %v, want ErrInjected (or already surfaced at append)", err)
		}
		// The failed layer reverted to resident: still readable, counted as
		// unspilled.
		if s.SpilledLayers() != 0 {
			t.Errorf("failed spill still counted: %d spilled layers", s.SpilledLayers())
		}
		l, err := s.Layer(0)
		if err != nil || len(l.Records) != 5 {
			t.Errorf("failed-spill layer unreadable: %v", err)
		}
		// Neither a partial layer file nor a temp file may exist.
		if names := listDir(t, dir); len(names) != 0 {
			t.Errorf("failed spill left files behind: %v", names)
		}
	})
}

// formatCase is one layer file of the fault matrix.
type formatCase struct {
	name string
	raw  []byte
	// want is the layer the file decodes to; rejected is the error every
	// read of the file names instead, whole or cut past the version byte.
	want     *Layer
	rejected string
	// prev is the previous layer's file, which a layer that derives its
	// receive payloads reads them from.
	prev []byte
}

// formatCases are layer files of every version: sampleLayer(0, 6) as the
// committed v1 file, which the store rejects, and as a version 2 image,
// which it still reads; a broadcast layer, whose send-value column is
// mostly repeat codes, as a version 3 image and as the version 4 image the
// store writes; and a version 4 layer that derives its receive payloads,
// multi-edges with Compare-equal payloads among them, from its previous
// layer's sends.
func formatCases(t *testing.T) []formatCase {
	chain := derivedChain(5, 3)
	return []formatCase{
		{"v1", readV1Fixture(t, "sample-0-6.prov"), nil, "unsupported layer file version 1", nil},
		{"v2", oracleEncodeColumnar(sampleLayer(0, 6), layerVersionNoRepeat), sampleLayer(0, 6), "", nil},
		{"v3", oracleEncodeColumnar(broadcastLayer(1, 6, 4), layerVersionNoFlags), broadcastLayer(1, 6, 4), "", nil},
		{"v4", encodeLayerColumnar(broadcastLayer(1, 6, 4)), broadcastLayer(1, 6, 4), "", nil},
		{"v4-derived", oracleEncodeDerived(chain[2]), chain[2], "", encodeLayerColumnar(chain[1])},
	}
}

// maskCounts reads the core columns and the receive counts alone.
const maskCounts = maskCore | maskRecvCounts

// sameRecvCounts fails unless every record of counts, read under
// maskCounts, holds as many receives as the same record of full, and those
// zero.
func sameRecvCounts(t *testing.T, what string, full, counts *Layer) {
	t.Helper()
	if len(counts.Records) != len(full.Records) {
		t.Fatalf("%s: counts-only read holds %d records, the full read %d", what, len(counts.Records), len(full.Records))
	}
	for i := range full.Records {
		got := counts.Records[i].Recvs
		if len(got) != len(full.Records[i].Recvs) || slices.ContainsFunc(got, func(h MsgHalf) bool { return h.Peer != 0 || !h.Val.IsNull() }) {
			t.Fatalf("%s: record %d: counts-only read holds receives %v, the full read %d", what, i, got, len(full.Records[i].Recvs))
		}
	}
}

// readRaw decodes layer file bytes the way the store does (see readRawWork).
func readRaw(raw []byte, mask colMask) (*Layer, error) {
	l, _, err := readRawWork(raw, nil, mask)
	return l, err
}

// readRawWork decodes layer file bytes both ways the store reads a layer:
// as a resident image, whose blocks are subslices of it, and through a
// reader, as a spilled file is read, with prev (nil: none) the previous
// layer's file read the same way. The two must agree on the outcome, the
// work and the layer; it returns the layer and the work.
func readRawWork(raw, prev []byte, mask colMask) (*Layer, decodeWork, error) {
	var mem, file LayerViews
	var work, fileWork decodeWork
	var memPrev, filePrev layerFiles
	if prev != nil {
		memPrev, filePrev = opens(prev, false), opens(prev, true)
	}
	err := mem.read(image(raw), int64(len(raw)), mask, &work, memPrev, 1)
	fileErr := file.read(bytes.NewReader(raw), int64(len(raw)), mask, &fileWork, filePrev, 1)
	if (err == nil) != (fileErr == nil) || work != fileWork {
		return nil, work, fmt.Errorf("image read (%v, %v) and reader read (%v, %v) disagree", err, work, fileErr, fileWork)
	}
	if err != nil {
		return nil, work, err
	}
	l := mem.layer()
	if !bytes.Equal(layerBinary(l), layerBinary(file.layer())) {
		return nil, work, fmt.Errorf("image read and reader read decode different layers")
	}
	return l, work, nil
}

// decodedColumns returns the columns work shows a block decoded of.
func decodedColumns(work decodeWork) colMask {
	var m colMask
	for col, w := range work {
		if w.Blocks > 0 {
			m |= 1 << col
		}
	}
	return m
}

// TestLayerTruncationNeverPanics first checks that the v2, v3 and v4
// images decode to their layers and the v1 file errors naming its version,
// then reads each truncated at every byte boundary; each truncation must
// yield an error, never a panic, and a v1 cut that still holds the version
// byte must be rejected for it. The columnar legs also exercise the
// projected decode path, whose footer seek reads the file back-to-front. A
// layer that derives its receive payloads is read with its previous layer
// cut at every byte too: that read errors naming both layers.
func TestLayerTruncationNeverPanics(t *testing.T) {
	for _, fc := range formatCases(t) {
		t.Run(fc.name, func(t *testing.T) {
			got, _, err := readRawWork(fc.raw, fc.prev, maskAll)
			switch {
			case fc.rejected != "":
				if err == nil || !strings.Contains(err.Error(), fc.rejected) {
					t.Fatalf("read = %v, want %q", err, fc.rejected)
				}
			case err != nil:
				t.Fatal(err)
			default:
				assertLayersIdentical(t, fc.want, got)
				counts, err := readRaw(fc.raw, maskCounts)
				if err != nil {
					t.Fatalf("counts-only read: %v", err)
				}
				sameRecvCounts(t, "whole file", got, counts)
			}
			for cut := 0; cut < len(fc.raw); cut++ {
				for _, mask := range []colMask{maskAll, maskCore, maskCounts} {
					_, _, err := readRawWork(fc.raw[:cut], fc.prev, mask)
					if err == nil {
						t.Fatalf("truncation at byte %d of %d (mask %09b) decoded without error", cut, len(fc.raw), mask)
					}
					if fc.rejected != "" && cut > 4 && !strings.Contains(err.Error(), fc.rejected) {
						t.Fatalf("truncation at byte %d of %d: %v, want %q", cut, len(fc.raw), err, fc.rejected)
					}
				}
			}
			for cut := 0; cut < len(fc.prev); cut++ {
				_, _, err := readRawWork(fc.raw, fc.prev[:cut], maskAll)
				if err == nil || !strings.Contains(err.Error(), "layer 2 derives its receive payloads from layer 1") {
					t.Fatalf("previous layer cut at byte %d of %d: %v, want an error naming both layers", cut, len(fc.prev), err)
				}
			}
		})
	}
}

// TestLayerCorruptCountsNeverPanic flips bytes across the file (header
// counts, column footers, packed values, repeat codes) and checks decode
// errors out rather than over-allocating or panicking, in every format.
func TestLayerCorruptCountsNeverPanic(t *testing.T) {
	for _, fc := range formatCases(t) {
		t.Run(fc.name, func(t *testing.T) {
			for pos := 5; pos < len(fc.raw); pos++ {
				for _, bit := range []byte{0x80, 0xff} {
					b := append([]byte(nil), fc.raw...)
					b[pos] ^= bit
					// Any outcome but a panic is acceptable: some flips still
					// decode (payload bytes), corrupt counts must error. A
					// flip the full read accepts leaves the counts-only read
					// the same counts.
					full, _, err := readRawWork(b, fc.prev, maskAll)
					readRawWork(b, fc.prev, maskCore)
					counts, _, countsErr := readRawWork(b, fc.prev, maskCounts)
					if err == nil {
						if countsErr != nil {
							t.Fatalf("flip %#x at byte %d: the full read accepts it, the counts-only read fails: %v", bit, pos, countsErr)
						}
						sameRecvCounts(t, fmt.Sprintf("flip %#x at byte %d", bit, pos), full, counts)
					}
				}
			}
			for pos := 5; pos < len(fc.prev); pos++ {
				for _, bit := range []byte{0x80, 0xff} {
					b := append([]byte(nil), fc.prev...)
					b[pos] ^= bit
					readRawWork(fc.raw, b, maskAll)
				}
			}
		})
	}
}

func TestTruncateLayers(t *testing.T) {
	s := NewStore(StoreConfig{})
	defer s.Close()
	for ss := 0; ss < 5; ss++ {
		if err := s.AppendLayer(sampleLayer(ss, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.TruncateLayers(2); err != nil {
		t.Fatal(err)
	}
	if s.NumLayers() != 2 {
		t.Fatalf("layers = %d, want 2", s.NumLayers())
	}
	// Appending continues at the truncation point.
	if err := s.AppendLayer(sampleLayer(2, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateLayers(7); err == nil {
		t.Error("truncating beyond the layer count should fail")
	}

	// Layers that derive their receive payloads recount them from the
	// layers before them, and the layers appended again derive again.
	d := NewStore(StoreConfig{})
	defer d.Close()
	chain := derivedChain(9, 5)
	for _, l := range chain {
		if err := d.AppendLayer(l); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes, wantTuples := d.TotalBytes(), d.TotalTuples()
	if err := d.TruncateLayers(3); err != nil {
		t.Fatal(err)
	}
	if want := chain[0].EncodedSize() + chain[1].EncodedSize() + chain[2].EncodedSize(); d.TotalBytes() != want {
		t.Errorf("3 derived layers recount %d bytes, want %d", d.TotalBytes(), want)
	}
	for _, l := range chain[3:] {
		if err := d.AppendLayer(l); err != nil {
			t.Fatal(err)
		}
	}
	if d.TotalBytes() != wantBytes || d.TotalTuples() != wantTuples {
		t.Errorf("after truncation and re-append: %d bytes, %d tuples; want %d, %d", d.TotalBytes(), d.TotalTuples(), wantBytes, wantTuples)
	}
	for i, l := range chain {
		assertDerivedLayer(t, d, i, l)
	}
}

// assertDerivedLayer checks that layer i of s derives its receive payloads
// (all but layer 0) and reads back as l, bit for bit.
func assertDerivedLayer(t *testing.T, s *Store, i int, l *Layer) {
	t.Helper()
	want := oracleEncodeColumnar(l, layerVersionColumnar)
	if i > 0 {
		want = oracleEncodeDerived(l)
	}
	if got := layerImage(t, s, i); !bytes.Equal(got, want) {
		t.Errorf("layer %d: image is not the expected one", i)
	}
	got, err := s.Layer(i)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(layerBinary(got), layerBinary(l)) {
		t.Errorf("layer %d reads back differently", i)
	}
}

func TestReattachSpilledLayers(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreConfig{SpillAll: true, SpillDir: dir})
	for ss := 0; ss < 4; ss++ {
		if err := s.AppendLayer(sampleLayer(ss, 4)); err != nil {
			t.Fatal(err)
		}
	}
	wantTuples := s.TotalTuples()
	// The cross-process handoff point (a checkpoint) syncs the pipeline, so
	// every layer file is on disk before another process adopts them.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	// A fresh store (a new process) adopts the on-disk layers.
	s2 := NewStore(StoreConfig{SpillAll: true, SpillDir: dir})
	if err := s2.Reattach(3); err != nil {
		t.Fatal(err)
	}
	if s2.NumLayers() != 3 {
		t.Fatalf("reattached layers = %d, want 3", s2.NumLayers())
	}
	if s2.TotalTuples() >= wantTuples {
		t.Errorf("3 reattached layers should hold fewer tuples than all 4")
	}
	l, err := s2.Layer(1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Superstep != 1 || len(l.Records) != 4 {
		t.Errorf("reattached layer 1 = ss %d, %d records", l.Superstep, len(l.Records))
	}
	// The resumed run re-appends layer 3 (and may overwrite its old file).
	if err := s2.AppendLayer(sampleLayer(3, 4)); err != nil {
		t.Fatal(err)
	}
	if s2.TotalTuples() != wantTuples {
		t.Errorf("tuples after re-append = %d, want %d", s2.TotalTuples(), wantTuples)
	}
	// Drain the async writer before t.TempDir cleanup, or the re-appended
	// layer's spill file can appear mid-RemoveAll.
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}

	// Reattached layers that derive their receive payloads recount them from
	// the files before them, and the first layer appended after the
	// reattached ones derives from the last reattached file.
	dir = t.TempDir()
	d := NewStore(StoreConfig{SpillAll: true, SpillDir: dir})
	chain := derivedChain(11, 5)
	for _, l := range chain {
		if err := d.AppendLayer(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	wantBytes, wantDisk := d.TotalBytes(), d.DiskBytes()
	d2 := NewStore(StoreConfig{SpillAll: true, SpillDir: dir})
	if err := d2.Reattach(3); err != nil {
		t.Fatal(err)
	}
	for _, l := range chain[3:] {
		if err := d2.AppendLayer(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := d2.Sync(); err != nil {
		t.Fatal(err)
	}
	if d2.TotalBytes() != wantBytes || d2.DiskBytes() != wantDisk {
		t.Errorf("reattached and re-appended: %d bytes, %d on disk; want %d, %d", d2.TotalBytes(), d2.DiskBytes(), wantBytes, wantDisk)
	}
	for i, l := range chain {
		assertDerivedLayer(t, d2, i, l)
	}
}
