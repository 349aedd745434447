package remotedb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

// encodeBatch encodes tuples of the given arity as one fresh payload.
func encodeBatch(tuples []relation.Tuple, arity int) ([]byte, error) {
	e := newBatchEncoder(arity)
	for _, t := range tuples {
		if err := e.add(t); err != nil {
			return nil, err
		}
	}
	return e.payload(), nil
}

// mustEncodeBatch is encodeBatch for fixtures whose tuples are well formed.
func mustEncodeBatch(tuples []relation.Tuple, arity int) []byte {
	p, err := encodeBatch(tuples, arity)
	if err != nil {
		panic(err)
	}
	return p
}

// sameValue is bit-exact value identity: same kind, and for floats the same
// bits (so NaN matches NaN and -0 does not match +0, unlike Value.Equal).
func sameValue(a, b relation.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == relation.KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return a.Equal(b)
}

// assertSameTuples fails unless got and want are bit-exact equal, row by row.
func assertSameTuples(t *testing.T, got, want []relation.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: arity %d, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameValue(got[i][j], want[i][j]) {
				t.Fatalf("row %d col %d: got %v (%v), want %v (%v)",
					i, j, got[i][j], got[i][j].Kind(), want[i][j], want[i][j].Kind())
			}
		}
	}
}

// TestBatchCodecRoundTrip pins the edge values of every kind, mixed kinds in
// one column, and the empty and maximal batch sizes.
func TestBatchCodecRoundTrip(t *testing.T) {
	edge := []relation.Value{
		relation.Null(),
		relation.Int(0),
		relation.Int(-1),
		relation.Int(math.MinInt64),
		relation.Int(math.MaxInt64),
		relation.Float(math.NaN()),
		relation.Float(math.Inf(1)),
		relation.Float(math.Inf(-1)),
		relation.Float(math.Copysign(0, -1)),
		relation.Float(math.SmallestNonzeroFloat64),
		relation.Str(""),
		relation.Str("héllo\x00wörld ✓ 日本語"),
		relation.Str(string([]byte{0xff, 0xfe})), // not valid UTF-8: bytes pass through
		relation.Bool(true),
		relation.Bool(false),
	}
	// Every edge value in a single column: kinds mix freely within a column.
	col := make([]relation.Tuple, len(edge))
	for i, v := range edge {
		col[i] = relation.Tuple{v}
	}
	// And as one wide row, next to a reversed copy in a second row.
	wide := []relation.Tuple{append(relation.Tuple(nil), edge...), make(relation.Tuple, len(edge))}
	for i, v := range edge {
		wide[1][len(edge)-1-i] = v
	}
	maxRows := make([]relation.Tuple, maxBatchRows)
	for i := range maxRows {
		maxRows[i] = relation.Tuple{relation.Int(int64(i) - 1<<15), relation.Str("r")}
	}
	for _, tc := range []struct {
		name   string
		tuples []relation.Tuple
		arity  int
	}{
		{"mixed-column", col, 1},
		{"wide-rows", wide, len(edge)},
		{"zero-rows", nil, 3},
		{"max-rows", maxRows, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := mustEncodeBatch(tc.tuples, tc.arity)
			got, err := decodeBatch(p)
			if err != nil {
				t.Fatal(err)
			}
			assertSameTuples(t, got, tc.tuples)
		})
	}
}

// TestQuickBatchRoundTrip: random batches of random values survive the codec
// bit-exactly, and the encoder reuses its buffer across batches.
func TestQuickBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func() bool {
		arity := 1 + rng.Intn(6)
		enc := newBatchEncoder(arity)
		for batch := 0; batch < 3; batch++ {
			enc.reset()
			in := make([]relation.Tuple, rng.Intn(40))
			for i := range in {
				in[i] = make(relation.Tuple, arity)
				for j := range in[i] {
					in[i][j] = randomValue(rng)
				}
				if enc.add(in[i]) != nil {
					return false
				}
			}
			out, err := decodeBatch(enc.payload())
			if err != nil || len(out) != len(in) {
				return false
			}
			for i := range in {
				for j := range in[i] {
					if !sameValue(out[i][j], in[i][j]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBatchTuplesAreIsolated: tuples of one batch share an arena, but
// appending to one must never overwrite its neighbour.
func TestBatchTuplesAreIsolated(t *testing.T) {
	got, err := decodeBatch(mustEncodeBatch([]relation.Tuple{{relation.Int(1)}, {relation.Int(2)}}, 1))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(got[0], relation.Int(99))
	if got[1][0].AsInt() != 2 {
		t.Fatalf("append to row 0 clobbered row 1: %v", got[1])
	}
}

// TestBatchEncoderRejectsBadArity: a tuple that does not match the batch
// arity, or any zero-arity row, is refused instead of framed.
func TestBatchEncoderRejectsBadArity(t *testing.T) {
	if _, err := encodeBatch([]relation.Tuple{{relation.Int(1), relation.Int(2)}}, 1); err == nil {
		t.Fatal("arity-2 tuple in an arity-1 batch must be refused")
	}
	if _, err := encodeBatch([]relation.Tuple{{}}, 0); err == nil {
		t.Fatal("zero-arity row must be refused")
	}
	if p, err := encodeBatch(nil, 0); err != nil || len(p) != 2 {
		t.Fatalf("empty zero-arity batch: %v %v", p, err)
	}
}

// TestBatchDecodeRejects: each class of malformed payload fails with a typed
// error matching ErrProtocol.
func TestBatchDecodeRejects(t *testing.T) {
	hdr := func(rows, arity uint64, body ...byte) []byte {
		return append(binary.AppendUvarint(binary.AppendUvarint(nil, rows), arity), body...)
	}
	valid := mustEncodeBatch([]relation.Tuple{{relation.Str("abc"), relation.Float(1.5)}}, 2)
	for _, tc := range []struct {
		name string
		p    []byte
	}{
		{"empty", nil},
		{"no-arity", []byte{1}},
		{"overlong-varint", bytes.Repeat([]byte{0x80}, 11)},
		{"too-many-rows", hdr(maxBatchRows+1, 1)},
		{"rows-of-arity-0", hdr(3, 0)},
		{"values-exceed-bytes", hdr(1000, 1000, 0, 0, 0)},
		{"huge-arity", hdr(1, math.MaxUint64, 0)},
		{"trailing-after-empty", hdr(0, 2, 0)},
		{"trailing-after-rows", append(append([]byte(nil), valid...), 0)},
		{"truncated", valid[:len(valid)-1]},
		{"unknown-kind", hdr(1, 1, 9)},
		{"bad-bool", hdr(1, 1, byte(relation.KindBool), 2)},
		{"short-bool", hdr(1, 2, byte(relation.KindNull), byte(relation.KindBool))},
		{"bad-int", hdr(1, 1, byte(relation.KindInt), 0x80)},
		{"short-float", hdr(1, 1, byte(relation.KindFloat), 1, 2, 3)},
		{"string-past-end", hdr(1, 1, byte(relation.KindString), 5, 'a')},
		{"string-huge-length", append(hdr(1, 1, byte(relation.KindString)), binary.AppendUvarint(nil, math.MaxUint64)...)},
	} {
		_, err := decodeBatch(tc.p)
		var pe *ProtocolError
		if !errors.As(err, &pe) || !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: got %v, want a *ProtocolError matching ErrProtocol", tc.name, err)
		}
	}
}

// TestBatchDecodeAllocs: decoding a 512-tuple frame costs a constant handful
// of allocations (payload string, value arena, tuple headers), not a few per
// tuple as the gob row codec did.
func TestBatchDecodeAllocs(t *testing.T) {
	p := benchFrame(512).Batch
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := decodeBatch(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("decode of a 512-tuple batch: %.0f allocs, want <= 3", allocs)
	}
}

// FuzzDecodeBatch: arbitrary payloads never panic, fail only with a typed
// ErrProtocol error, allocate no more than a bound linear in the payload
// length (every size is checked before it is allocated), and anything that
// decodes re-encodes to a payload that decodes to the same values.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(mustEncodeBatch(nil, 2))
	f.Add(benchFrame(16).Batch)
	f.Add(mustEncodeBatch([]relation.Tuple{
		{relation.Null(), relation.Float(math.NaN()), relation.Bool(true), relation.Str("héllo")},
		{relation.Int(math.MinInt64), relation.Float(math.Inf(-1)), relation.Bool(false), relation.Str("")},
	}, 4))
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, maxBatchRows), 1<<40))
	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := decodeBatch(p)
		runtime.ReadMemStats(&after)
		// Arena (rows*arity values) and tuple headers are each bounded by
		// rows*arity <= len(p); the payload string by len(p). The constant
		// absorbs error formatting and unrelated background allocation.
		if n := after.TotalAlloc - before.TotalAlloc; n > uint64(128*len(p))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(p), n)
		}
		if err != nil {
			var pe *ProtocolError
			if !errors.As(err, &pe) || !errors.Is(err, ErrProtocol) {
				t.Fatalf("untyped decode error %v", err)
			}
			return
		}
		arity := 0
		if len(got) > 0 {
			arity = len(got[0])
		}
		again, err := decodeBatch(mustEncodeBatch(got, arity))
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		assertSameTuples(t, again, got)
	})
}

// BenchmarkBatchCodec prices the typed batch codec on the frame shape of
// benchFrame, beside the gob row codec it replaced on the data path.
func BenchmarkBatchCodec(b *testing.B) {
	tuples := benchTuples(512)
	enc := newBatchEncoder(3)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc.reset()
			for _, t := range tuples {
				if err := enc.add(t); err != nil {
					b.Fatal(err)
				}
			}
			_ = enc.payload()
		}
	})
	p := mustEncodeBatch(tuples, 3)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(p)))
		for i := 0; i < b.N; i++ {
			if _, err := decodeBatch(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The gob row codec (the WAL row encoding, and v2-era batches),
	// measured as its steady state on a reused encoder/decoder pair.
	var buf bytes.Buffer
	genc := gob.NewEncoder(&buf)
	rows := toWireTuples(tuples)
	b.Run("gob-rows-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := genc.Encode(toWireTuples(tuples)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gob-rows-decode", func(b *testing.B) {
		var stream bytes.Buffer
		enc := gob.NewEncoder(&stream)
		for i := 0; i < b.N+1; i++ {
			if err := enc.Encode(rows); err != nil {
				b.Fatal(err)
			}
		}
		dec := gob.NewDecoder(&stream)
		var warm [][]wireValue
		if err := dec.Decode(&warm); err != nil { // type descriptors paid once
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var got [][]wireValue
			if err := dec.Decode(&got); err != nil {
				b.Fatal(err)
			}
			if _, err := fromWireTuples(got); err != nil {
				b.Fatal(err)
			}
		}
	})
}
