package provenance

import (
	"testing"
)

// BenchmarkSpillPipeline times the write-behind spill path: each iteration
// interleaves layer *construction* — rows built, then encoded into an image
// by the LayerBuilder, standing in for a superstep's compute and capture —
// with appends under SpillAll, so the writer goroutine's write+fsync of one
// image overlaps the next layer's build. `make bench-micro` records it
// ungated.
func BenchmarkSpillPipeline(b *testing.B) {
	const (
		layersPerRun = 12
		recsPerLayer = 2000
	)
	b.ReportAllocs()
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore(StoreConfig{SpillAll: true, SpillDir: dir})
		for ss := 0; ss < layersPerRun; ss++ {
			if err := s.AppendLayer(sampleLayer(ss, recsPerLayer)); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
