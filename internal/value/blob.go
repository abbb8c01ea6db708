package value

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Blob is a small append-only binary encoder shared by the checkpoint and
// observer-state formats. It composes the Value codec with length-prefixed
// primitives so every consumer serializes state the same way.
type Blob struct {
	b []byte
}

// NewBlob creates an empty blob encoder.
func NewBlob() *Blob { return &Blob{} }

// Bytes returns the encoded bytes.
func (w *Blob) Bytes() []byte { return w.b }

// Uvarint appends an unsigned varint.
func (w *Blob) Uvarint(u uint64) { w.b = binary.AppendUvarint(w.b, u) }

// Int appends a signed integer (zig-zag varint).
func (w *Blob) Int(i int64) { w.b = binary.AppendVarint(w.b, i) }

// Bool appends a boolean byte.
func (w *Blob) Bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// Float appends a float64 bit pattern (exact roundtrip).
func (w *Blob) Float(f float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(f))
}

// Bytes8 appends length-prefixed raw bytes.
func (w *Blob) Bytes8(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.b = append(w.b, p...)
}

// String appends a length-prefixed string.
func (w *Blob) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// Value appends a Value in the binary codec.
func (w *Blob) Value(v Value) { w.b = v.AppendBinary(w.b) }

// maxBlobAlloc caps single allocations driven by decoded lengths so a
// corrupt or truncated blob produces an error instead of an OOM panic.
const maxBlobAlloc = 1 << 26 // 64 MiB

// BlobReader decodes a Blob with a sticky error: after the first decode
// failure every subsequent read returns a zero value, so callers can decode
// a whole structure and check Err once. It never panics on corrupt input.
type BlobReader struct {
	b   []byte
	off int
	err error
}

// NewBlobReader creates a reader over data.
func NewBlobReader(data []byte) *BlobReader { return &BlobReader{b: data} }

// Err returns the first decode error, if any.
func (r *BlobReader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *BlobReader) Len() int { return len(r.b) - r.off }

func (r *BlobReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned varint.
func (r *BlobReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("value: blob truncated at offset %d: %w", r.off, io.ErrUnexpectedEOF))
		return 0
	}
	r.off += n
	return u
}

// Count reads an unsigned varint meant to size an allocation, rejecting
// values a sane blob cannot contain.
func (r *BlobReader) Count() int {
	u := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if u > maxBlobAlloc {
		r.fail(fmt.Errorf("value: blob count %d exceeds sanity cap", u))
		return 0
	}
	return int(u)
}

// Int reads a signed (zig-zag) varint.
func (r *BlobReader) Int() int64 {
	if r.err != nil {
		return 0
	}
	i, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("value: blob truncated at offset %d: %w", r.off, io.ErrUnexpectedEOF))
		return 0
	}
	r.off += n
	return i
}

// Bool reads a boolean byte.
func (r *BlobReader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.b) {
		r.fail(io.ErrUnexpectedEOF)
		return false
	}
	v := r.b[r.off] == 1
	r.off++
	return v
}

// Float reads a float64 bit pattern.
func (r *BlobReader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail(io.ErrUnexpectedEOF)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return f
}

// Bytes8 reads length-prefixed raw bytes (copied).
func (r *BlobReader) Bytes8() []byte {
	n := r.Count()
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.fail(io.ErrUnexpectedEOF)
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:])
	r.off += n
	return out
}

// String reads a length-prefixed string.
func (r *BlobReader) String() string { return string(r.Raw()) }

// Raw reads a length-prefixed string's bytes without copying them: the
// slice aliases the blob.
func (r *BlobReader) Raw() []byte {
	n := r.Count()
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.fail(io.ErrUnexpectedEOF)
		return nil
	}
	p := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// Value reads a Value in the binary codec.
func (r *BlobReader) Value() Value {
	if r.err != nil {
		return NullValue
	}
	v, n, err := DecodeValue(r.b[r.off:])
	if err != nil {
		r.fail(err)
		return NullValue
	}
	r.off += n
	return v
}
