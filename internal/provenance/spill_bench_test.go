package provenance

import (
	"testing"
)

// BenchmarkSpillPipeline compares the synchronous spill path (the finished
// layer image written and fsynced inline in the append) against the async
// write-behind. Each iteration interleaves layer *construction* — rows
// built, then encoded into an image by the LayerBuilder, standing in for a
// superstep's compute and capture — with appends under SpillAll: the sync
// leg serializes build -> write, the async leg overlaps the writer
// goroutine's write+fsync of one image with the next layer's build. Both
// legs spill the same already-built images, so the async/sync time ratio
// measures only what the write-behind hides; `make bench-micro` records it
// ungated (on one core there is little but fsync to hide).
func BenchmarkSpillPipeline(b *testing.B) {
	const (
		layersPerRun = 12
		recsPerLayer = 2000
	)
	for _, mode := range []struct {
		name string
		sync bool
	}{{"sync", true}, {"async", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			dir := b.TempDir()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := NewStore(StoreConfig{
					SpillAll:  true,
					SpillDir:  dir,
					SyncSpill: mode.sync,
				})
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
		})
	}
}
