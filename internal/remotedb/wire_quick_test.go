package remotedb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

// randomValue draws one relation.Value covering every wire kind, including
// Null.
func randomValue(rng *rand.Rand) relation.Value {
	switch rng.Intn(5) {
	case 0:
		return relation.Null()
	case 1:
		return relation.Int(rng.Int63() - rng.Int63())
	case 2:
		return relation.Float(rng.NormFloat64() * 1e6)
	case 3:
		n := rng.Intn(24)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256)) // arbitrary bytes, not just printable
		}
		return relation.Str(string(b))
	default:
		return relation.Bool(rng.Intn(2) == 0)
	}
}

// TestQuickWireValueRoundTrip: toWireValue/fromWireValue is the identity on
// every value kind.
func TestQuickWireValueRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		v := randomValue(rng)
		got, err := fromWireValue(toWireValue(v))
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestWireValueAllKinds pins each kind explicitly (quick sampling aside), and
// rejects unknown kinds with an error instead of guessing.
func TestWireValueAllKinds(t *testing.T) {
	for _, v := range []relation.Value{
		relation.Null(),
		relation.Int(-1 << 62),
		relation.Float(3.5),
		relation.Str(""),
		relation.Str("héllo\x00wörld"),
		relation.Bool(true),
		relation.Bool(false),
	} {
		got, err := fromWireValue(toWireValue(v))
		if err != nil || !got.Equal(v) {
			t.Errorf("round trip of %v: got %v, err %v", v, got, err)
		}
	}
	if _, err := fromWireValue(wireValue{Kind: 99}); err == nil {
		t.Error("unknown wire kind must be rejected")
	}
}

// TestQuickWireTupleRoundTrip: whole tuples survive batch conversion.
func TestQuickWireTupleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		n := rng.Intn(6)
		in := make(relation.Tuple, n)
		for i := range in {
			in[i] = randomValue(rng)
		}
		out, err := fromWireTuples(toWireTuples([]relation.Tuple{in}))
		if err != nil || len(out) != 1 || len(out[0]) != n {
			return false
		}
		for i := range in {
			if !out[0][i].Equal(in[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// encodeFrames gob-encodes a handshake-free frame sequence the way a
// connection would: one shared encoder.
func encodeFrames(t *testing.T, frames ...*wireFrame) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, f := range frames {
		if err := writeFrame(enc, f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func sampleFrames() []*wireFrame {
	return []*wireFrame{
		{ID: 1, Kind: frameHeader, Name: "result", Attrs: []wireAttr{{Name: "x", Kind: 1}}},
		{ID: 1, Kind: frameBatch, Batch: mustEncodeBatch([]relation.Tuple{{relation.Int(42)}, {relation.Null()}}, 1)},
		{ID: 1, Kind: frameEnd, Ops: 2},
	}
}

// TestFrameDecodeTruncated: every proper prefix of a valid frame stream
// decodes its complete frames and then fails fast with io.EOF (clean cut at a
// frame boundary) or a typed *ProtocolError (cut mid-frame) — never a hang,
// never a silent success.
func TestFrameDecodeTruncated(t *testing.T) {
	full := encodeFrames(t, sampleFrames()...)
	for cut := 0; cut < len(full); cut++ {
		dec := gob.NewDecoder(bytes.NewReader(full[:cut]))
		for i := 0; ; i++ {
			f, err := readFrame(dec)
			if err == nil {
				if i >= 3 {
					t.Fatalf("cut %d: decoded more frames than were encoded", cut)
				}
				if f.Kind < frameHeader || f.Kind > frameEnd {
					t.Fatalf("cut %d: bad decoded frame %+v", cut, f)
				}
				continue
			}
			var pe *ProtocolError
			if !errors.Is(err, io.EOF) && !errors.As(err, &pe) {
				t.Fatalf("cut %d: untyped decode error %v", cut, err)
			}
			if errors.As(err, &pe) && !errors.Is(err, ErrProtocol) {
				t.Fatalf("cut %d: ProtocolError does not match ErrProtocol", cut)
			}
			break
		}
	}
}

// TestFrameDecodeCorrupted: flipping any byte of the stream either still
// yields structurally valid frames or fails with a typed *ProtocolError —
// corruption is never mistaken for a clean EOF mid-stream and never panics.
func TestFrameDecodeCorrupted(t *testing.T) {
	full := encodeFrames(t, sampleFrames()...)
	for pos := 0; pos < len(full); pos++ {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0xff
		dec := gob.NewDecoder(bytes.NewReader(mut))
		for i := 0; i < 8; i++ { // a corrupted stream yields at most the 3 originals
			_, err := readFrame(dec)
			if err == nil {
				continue
			}
			var pe *ProtocolError
			if !errors.Is(err, io.EOF) && !errors.As(err, &pe) {
				t.Fatalf("flip at %d: untyped decode error %v", pos, err)
			}
			break
		}
	}
}

// TestFrameDecodeGarbage: arbitrary bytes that never were a gob stream fail
// fast with a typed error.
func TestFrameDecodeGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		junk := make([]byte, rng.Intn(256))
		for i := range junk {
			junk[i] = byte(rng.Intn(256))
		}
		_, err := readFrame(gob.NewDecoder(bytes.NewReader(junk)))
		if err == nil {
			t.Fatalf("trial %d: garbage decoded as a frame", trial)
		}
		var pe *ProtocolError
		if !errors.Is(err, io.EOF) && !errors.As(err, &pe) {
			t.Fatalf("trial %d: untyped decode error %v", trial, err)
		}
	}
}

// TestFrameRejectsUnknownKind: a structurally valid gob message with an
// out-of-range frame kind is a protocol violation, not a decodable frame.
func TestFrameRejectsUnknownKind(t *testing.T) {
	raw := encodeFrames(t, &wireFrame{ID: 3, Kind: 200})
	_, err := readFrame(gob.NewDecoder(bytes.NewReader(raw)))
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("unknown kind: got %v, want ErrProtocol", err)
	}
	// A request frame must carry a request payload.
	raw = encodeFrames(t, &wireFrame{ID: 4, Kind: frameReq})
	if _, err := readFrame(gob.NewDecoder(bytes.NewReader(raw))); !errors.Is(err, ErrProtocol) {
		t.Fatalf("req frame without request: got %v, want ErrProtocol", err)
	}
}
