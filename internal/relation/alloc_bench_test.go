package relation

import "testing"

// Allocation benchmarks for the hot tuple paths (EXPERIMENTS.md records the
// before/after numbers). These guard the hash-keyed fast paths: Tuple.Hash64
// vs the string Key, Distinct's dedup set, and the hash-join build/probe.

func benchTuples(n, arity int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		t := make(Tuple, arity)
		for j := range t {
			switch j % 3 {
			case 0:
				t[j] = Int(int64(i % 512))
			case 1:
				t[j] = Str("value-string")
			default:
				t[j] = Float(float64(i) / 3)
			}
		}
		out[i] = t
	}
	return out
}

// BenchmarkTupleKey measures the per-tuple cost of the legacy string map key.
func BenchmarkTupleKey(b *testing.B) {
	tuples := benchTuples(1024, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tuples[i%len(tuples)].Key()
	}
}

// BenchmarkTupleHash64 measures the allocation-free 64-bit tuple hash that
// replaces Key on the hot paths.
func BenchmarkTupleHash64(b *testing.B) {
	tuples := benchTuples(1024, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tuples[i%len(tuples)].Hash64()
	}
}

// BenchmarkDistinct deduplicates a relation with ~50% duplicates.
func BenchmarkDistinct(b *testing.B) {
	schema := NewSchema(
		Attr{Name: "a", Kind: KindInt},
		Attr{Name: "b", Kind: KindString},
		Attr{Name: "c", Kind: KindFloat})
	r := New("r", schema)
	for i := 0; i < 8192; i++ {
		r.MustAppend(Tuple{Int(int64(i % 4096)), Str("dup-payload"), Float(float64(i % 4096))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DistinctRel(r)
	}
}

// BenchmarkHashJoin joins 8k x 8k rows on a skewed key (512 distinct values).
func BenchmarkHashJoin(b *testing.B) {
	mk := func(n int, name string) *Relation {
		r := New(name, NewSchema(
			Attr{Name: "a", Kind: KindInt},
			Attr{Name: "b", Kind: KindInt}))
		for i := 0; i < n; i++ {
			r.MustAppend(Tuple{Int(int64(i % 512)), Int(int64(i))})
		}
		return r
	}
	l, r := mk(8192, "l"), mk(8192, "r")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Count(HashJoin(l.Iter(), r.Iter(), []JoinCond{{Left: 0, Right: 0}}))
	}
}

// TestAppendAllGrowsGeometrically: materializing a stream in 256-tuple
// batches (remotedb.DrainStream) must not reallocate the tuple slice once per
// batch — that copies O(n²) tuple headers — but O(log n) times in total. It
// counts backing-array changes rather than testing.AllocsPerRun, which under
// -race also counts the temporary slice that slices.Grow appends from.
func TestAppendAllGrowsGeometrically(t *testing.T) {
	const batches, batchLen = 40, 256
	batch := benchTuples(batchLen, 2)
	r := New("drain", NewSchema(Attr{Name: "a", Kind: KindInt}, Attr{Name: "b", Kind: KindString}))
	reallocs := 0
	for i := 0; i < batches; i++ {
		before := cap(r.tuples)
		if err := r.AppendAll(batch); err != nil {
			t.Fatal(err)
		}
		if cap(r.tuples) != before {
			reallocs++
		}
	}
	// append's growth policy (2× for small slices, easing toward 1.25×)
	// needs ~10 reallocations from 0 to 40×256 tuples; 2·⌈log2 40⌉+2 = 14
	// leaves slack, while regrowing once per batch (40) fails.
	if reallocs > 14 {
		t.Fatalf("AppendAll of %d×%d tuples reallocated %d times, want O(log n) (<= 14)", batches, batchLen, reallocs)
	}
}
