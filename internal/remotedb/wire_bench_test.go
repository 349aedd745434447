package remotedb

import (
	"encoding/gob"
	"fmt"
	"io"
	"testing"

	"repro/internal/relation"
)

// benchTuples builds n tuples of (int, int, string) — the shape the framed
// transport ships on every scan.
func benchTuples(n int) []relation.Tuple {
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{
			relation.Int(int64(i)),
			relation.Int(int64(i % 97)),
			relation.Str(fmt.Sprintf("tag-%03d", i%251)),
		}
	}
	return tuples
}

// benchFrame builds a representative response frame: one typed batch of n
// benchTuples.
func benchFrame(n int) *wireFrame {
	payload, err := encodeBatch(benchTuples(n), 3)
	if err != nil {
		panic(err)
	}
	return &wireFrame{ID: 7, Kind: frameBatch, Batch: payload}
}

// BenchmarkGobEncoderReuse measures why the transport keeps one gob encoder
// per connection: gob sends a type descriptor the first time a type crosses
// an encoder, so a fresh encoder per message re-pays descriptor encoding and
// transmission on every frame.
func BenchmarkGobEncoderReuse(b *testing.B) {
	f := benchFrame(512)
	b.Run("fresh-encoder-per-frame", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := gob.NewEncoder(io.Discard).Encode(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused-encoder", func(b *testing.B) {
		b.ReportAllocs()
		enc := gob.NewEncoder(io.Discard)
		if err := enc.Encode(f); err != nil { // descriptors paid once, up front
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRelationBulkAppend measures the frame-decode materialization path:
// AppendAll validates arities then grows the tuple slice once per batch,
// where per-tuple Append pays amortized regrowth and a schema check per call.
func BenchmarkRelationBulkAppend(b *testing.B) {
	schema := relation.NewSchema(
		relation.Attr{Name: "id", Kind: relation.KindInt},
		relation.Attr{Name: "grp", Kind: relation.KindInt},
	)
	batch := make([]relation.Tuple, 512)
	for i := range batch {
		batch[i] = relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % 7))}
	}
	b.Run("append-per-tuple", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := relation.New("out", schema)
			for _, t := range batch {
				if err := r.Append(t); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("append-all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := relation.New("out", schema)
			if err := r.AppendAll(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}
