package provenance

import (
	"testing"
)

// BenchmarkStoreFormat measures the on-disk footprint and write cost of the
// layer file format over a WCC-shaped capture (integer labels, label
// messages, a shared emitted table — the workload behind the paper's Table
// 3/4 storage numbers). The headline metric is B/tuple = DiskBytes /
// TotalTuples; TestColumnarSmallerThanRowFormat holds the format to at
// least 3x denser than the v1 row files earlier builds wrote.
func BenchmarkStoreFormat(b *testing.B) {
	const (
		layersPerRun = 8
		recsPerLayer = 4000
		fanout       = 4
	)
	layers := make([]*Layer, layersPerRun)
	for ss := range layers {
		layers[ss] = wccLayer(ss, recsPerLayer, fanout)
	}
	b.Run("v2", func(b *testing.B) {
		b.ReportAllocs()
		dir := b.TempDir()
		var bytesPerTuple float64
		for i := 0; i < b.N; i++ {
			s := NewStore(StoreConfig{SpillAll: true, SpillDir: dir})
			for _, l := range layers {
				if err := s.AppendLayer(l); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Sync(); err != nil {
				b.Fatal(err)
			}
			bytesPerTuple = float64(s.DiskBytes()) / float64(s.TotalTuples())
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(bytesPerTuple, "B/tuple")
	})
}
