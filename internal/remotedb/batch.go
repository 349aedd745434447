package remotedb

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/relation"
)

// Typed batch codec (wire v3). A frameBatch carries its tuples as one opaque
// Batch payload that this file encodes and decodes by hand, so the data path
// pays no reflection and no per-value allocation:
//
//	payload := uvarint(rows) uvarint(arity) value{rows*arity}   (row-major)
//	value   := kind:byte body
//	body    := zig-zag varint              kind 1 (int)
//	         | 8 bytes little-endian bits  kind 2 (float)
//	         | uvarint(len) bytes          kind 3 (string)
//	         | 0x00 | 0x01                 kind 4 (bool)
//	         | (empty)                     kind 0 (NULL)
//
// Kind bytes are relation.Kind values, the same numbering as the gob
// wireValue mirror of WAL records. Every value costs
// at least its kind byte, so rows*arity <= len(payload) bounds the decoder's
// allocations by the bytes actually received.

// maxBatchRows caps the rows one batch may declare: the server never frames
// more than clampFrameTuples' 64k, so anything above is a corrupt peer.
const maxBatchRows = 1 << 16

// batchHeaderRoom is the space reserved at the front of an encoder's buffer
// for the two uvarint header fields, written right-aligned once the row count
// is known, so finishing a batch never copies the rows.
const batchHeaderRoom = 2 * binary.MaxVarintLen64

// batchEncoder builds frameBatch payloads row by row into one buffer that is
// reused across batches. Not safe for concurrent use.
type batchEncoder struct {
	buf   []byte
	arity int
	rows  int
}

// newBatchEncoder returns an encoder for tuples of the given arity.
func newBatchEncoder(arity int) *batchEncoder {
	e := &batchEncoder{arity: arity}
	e.reset()
	return e
}

// reset empties the encoder for the next batch, keeping its buffer.
func (e *batchEncoder) reset() {
	if cap(e.buf) < batchHeaderRoom {
		e.buf = make([]byte, batchHeaderRoom, 4096)
	}
	e.buf = e.buf[:batchHeaderRoom]
	e.rows = 0
}

// add appends one tuple. A tuple whose arity differs from the encoder's (or
// any row of a zero-arity result, which the payload bound cannot admit) is
// refused rather than framed into a batch the peer would reject.
func (e *batchEncoder) add(t relation.Tuple) error {
	if len(t) != e.arity || e.arity == 0 {
		return fmt.Errorf("remotedb: cannot frame a %d-value tuple in a batch of arity %d", len(t), e.arity)
	}
	for _, v := range t {
		e.buf = appendBatchValue(e.buf, v)
	}
	e.rows++
	return nil
}

// payload finishes the current batch and returns its encoding. The slice
// aliases the encoder's buffer: it is valid until the next reset.
func (e *batchEncoder) payload() []byte {
	var hdr [batchHeaderRoom]byte
	h := binary.AppendUvarint(binary.AppendUvarint(hdr[:0], uint64(e.rows)), uint64(e.arity))
	start := batchHeaderRoom - len(h)
	copy(e.buf[start:], h)
	return e.buf[start:]
}

// appendBatchValue appends one value's kind byte and body.
func appendBatchValue(buf []byte, v relation.Value) []byte {
	switch v.Kind() {
	case relation.KindInt:
		return binary.AppendVarint(append(buf, byte(relation.KindInt)), v.AsInt())
	case relation.KindFloat:
		return binary.LittleEndian.AppendUint64(append(buf, byte(relation.KindFloat)), math.Float64bits(v.AsFloat()))
	case relation.KindString:
		s := v.AsString()
		return append(binary.AppendUvarint(append(buf, byte(relation.KindString)), uint64(len(s))), s...)
	case relation.KindBool:
		b := byte(0)
		if v.AsBool() {
			b = 1
		}
		return append(buf, byte(relation.KindBool), b)
	default:
		return append(buf, byte(relation.KindNull))
	}
}

// batchError is the typed failure of a malformed batch payload.
func batchError(format string, args ...any) error {
	return &ProtocolError{Op: "decode batch", Err: fmt.Errorf(format, args...)}
}

// decodeBatch decodes one frameBatch payload. All values of the batch live in
// one arena, every tuple is a window of it, and every string is a substring
// of one per-batch copy of the payload — a constant number of allocations per
// batch, each bounded by len(p). Malformed input fails with a *ProtocolError
// (matching ErrProtocol), never a panic or a silently short batch.
func decodeBatch(p []byte) ([]relation.Tuple, error) {
	rows, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, batchError("bad row count")
	}
	p = p[n:]
	arity, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, batchError("bad arity")
	}
	p = p[n:]
	switch {
	case rows > maxBatchRows:
		return nil, batchError("batch declares %d rows (max %d)", rows, maxBatchRows)
	case rows > 0 && arity == 0:
		return nil, batchError("batch declares %d rows of arity 0", rows)
	case rows > 0 && arity > uint64(len(p))/rows:
		return nil, batchError("batch declares %d×%d values in %d bytes", rows, arity, len(p))
	}
	w := int(arity)
	arena := make([]relation.Value, int(rows)*w)
	var s string // lazily: the payload as one string, for substring values
	off := 0
	for i := range arena {
		if off >= len(p) {
			return nil, batchError("truncated after %d of %d values", i, len(arena))
		}
		kind := relation.Kind(p[off])
		off++
		switch kind {
		case relation.KindNull:
		case relation.KindInt:
			v, n := binary.Varint(p[off:])
			if n <= 0 {
				return nil, batchError("bad int at byte %d", off)
			}
			off += n
			arena[i] = relation.Int(v)
		case relation.KindFloat:
			if len(p)-off < 8 {
				return nil, batchError("truncated float at byte %d", off)
			}
			arena[i] = relation.Float(math.Float64frombits(binary.LittleEndian.Uint64(p[off:])))
			off += 8
		case relation.KindString:
			l, n := binary.Uvarint(p[off:])
			if n <= 0 || l > uint64(len(p)-off-n) {
				return nil, batchError("bad string length at byte %d", off)
			}
			off += n
			if l == 0 {
				arena[i] = relation.Str("")
				continue
			}
			if s == "" {
				s = string(p)
			}
			arena[i] = relation.Str(s[off : off+int(l)])
			off += int(l)
		case relation.KindBool:
			if off >= len(p) || p[off] > 1 {
				return nil, batchError("bad bool at byte %d", off)
			}
			arena[i] = relation.Bool(p[off] == 1)
			off++
		default:
			return nil, batchError("unknown value kind %d at byte %d", kind, off-1)
		}
	}
	if off != len(p) {
		return nil, batchError("%d trailing bytes after %d rows", len(p)-off, rows)
	}
	tuples := make([]relation.Tuple, rows)
	for r := range tuples {
		tuples[r] = relation.Tuple(arena[r*w : (r+1)*w : (r+1)*w])
	}
	return tuples, nil
}
