package provenance

import (
	"math/rand"
	"slices"
	"testing"

	"ariadne/internal/value"
)

// BenchmarkDerivedRead times a read that derives a layer's receive
// payloads from the previous layer's sends, reported per received message,
// on two shapes: a dense flood (every one of 50 000 vertices sends its
// value to 10 neighbours in ascending order, as a PageRank superstep does)
// and a sparse frontier (1 000 vertices spread over 4M vertex IDs, each
// receiving from 3 senders).
func BenchmarkDerivedRead(b *testing.B) {
	for _, shape := range []struct {
		name          string
		senders, span int
		fanout        int
	}{
		{"dense", 50000, 50000, 10},
		{"sparse", 3000, 4 << 20, 1},
	} {
		b.Run(shape.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			prev := &Layer{Superstep: 0}
			var targets []VertexID
			if shape.fanout == 1 {
				for range 1000 {
					targets = append(targets, VertexID(r.Intn(shape.span)))
				}
			}
			for i := range shape.senders {
				v := VertexID(i * (shape.span / shape.senders))
				rec := Record{Vertex: v, PrevActive: -1, HasValue: true, Value: value.NewFloat(float64(i))}
				var dsts []VertexID
				for range shape.fanout {
					if targets != nil {
						dsts = append(dsts, targets[r.Intn(len(targets))])
					} else {
						dsts = append(dsts, VertexID(r.Intn(shape.span)))
					}
				}
				slices.Sort(dsts)
				for _, d := range dsts {
					rec.Sends = append(rec.Sends, MsgHalf{Peer: d, Val: rec.Value})
				}
				prev.Records = append(prev.Records, rec)
			}
			l := receivesOf(prev, r, func(VertexID) bool { return true })
			prevImg, img := encodeLayerColumnar(prev), encodeDerived(l, 1)
			msgs := 0
			for _, rec := range l.Records {
				msgs += len(rec.Recvs)
			}
			var v LayerViews
			var work decodeWork
			proj := maskCore | 1<<colRecvValues
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := v.read(image(img), int64(len(img)), proj, &work, opens(prevImg, false), 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(msgs), "ns/msg")
		})
	}
}
