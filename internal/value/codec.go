package value

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary codec for Values, used by the provenance store's disk spill format
// (the stand-in for the paper's HDFS offload, §6.1). The encoding is:
//
//	kind:1 | payload
//
// where payload is empty (Null), 1 byte (Bool), 8 bytes little-endian (Int,
// Float), uvarint length + bytes (String), or uvarint count + 8*count bytes
// (Vector).

// AppendBinary appends the binary encoding of v to buf and returns it.
func (v Value) AppendBinary(buf []byte) []byte {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case Null:
	case Bool:
		buf = append(buf, byte(v.num))
	case Int, Float:
		buf = binary.LittleEndian.AppendUint64(buf, v.num)
	case String:
		buf = binary.AppendUvarint(buf, v.num)
		buf = append(buf, v.str()...)
	case Vector:
		buf = binary.AppendUvarint(buf, v.num)
		for _, f := range v.vec() {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	}
	return buf
}

// DecodeValue decodes one Value from buf, returning the value and the number
// of bytes consumed.
func DecodeValue(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return NullValue, 0, io.ErrUnexpectedEOF
	}
	k := Kind(buf[0])
	rest := buf[1:]
	switch k {
	case Null:
		return NullValue, 1, nil
	case Bool:
		if len(rest) < 1 {
			return NullValue, 0, io.ErrUnexpectedEOF
		}
		return NewBool(rest[0] == 1), 2, nil
	case Int, Float:
		if len(rest) < 8 {
			return NullValue, 0, io.ErrUnexpectedEOF
		}
		return Value{kind: k, num: binary.LittleEndian.Uint64(rest)}, 9, nil
	case String:
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || uint64(len(rest)-sz) < n {
			return NullValue, 0, io.ErrUnexpectedEOF
		}
		s := string(rest[sz : sz+int(n)])
		return NewString(s), 1 + sz + int(n), nil
	case Vector:
		n, sz := binary.Uvarint(rest)
		// Divide rather than multiply: 8*n overflows for corrupt lengths and
		// would slip past the bounds check into a huge allocation.
		if sz <= 0 || n > uint64(len(rest)-sz)/8 {
			return NullValue, 0, io.ErrUnexpectedEOF
		}
		vec := make([]float64, n)
		off := sz
		for i := range vec {
			vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[off:]))
			off += 8
		}
		return NewVector(vec), 1 + off, nil
	default:
		return NullValue, 0, fmt.Errorf("value: corrupt encoding: kind byte %d", buf[0])
	}
}
