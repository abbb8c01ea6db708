// Package value defines the tagged datum type shared by the vertex-centric
// engine, the provenance store, and the PQL evaluator.
//
// Ariadne's provenance representation is independent of the native language
// of the graph analytic (paper §1): vertex values, edge values, and messages
// are all modeled as Values, so provenance tables and Datalog tuples use a
// single runtime representation.
package value

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The supported kinds. Null sorts before everything else; Vector values
// (used by ALS feature vectors) compare lexicographically.
const (
	Null Kind = iota
	Bool
	Int
	Float
	String
	Vector
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	case Vector:
		return "vector"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a compact tagged union of three words (24 bytes on 64-bit
// platforms), so an engine message — a vertex id or two plus a Value — is 32
// bytes. The zero Value is Null.
//
// A String or Vector keeps only its data pointer and its length: ptr is the
// string's bytes or the vector's first element, and num the length. A vector
// therefore loses its spare capacity (Vec returns a slice with cap == len),
// but keeps its identity: NewVector(nil).Vec() is nil and an empty non-nil
// vector stays non-nil.
//
// Value is deliberately not comparable with ==: two equal strings or vectors
// can sit at different addresses. Use Equal, Compare or Hash, or Identical
// for bit identity; reflect.DeepEqual compares a String's or Vector's
// address, not its payload.
type Value struct {
	_ [0]func() // forbids ==; zero-size, so it adds nothing as the first field
	// ptr is the payload of a String or Vector; nil for every other kind.
	ptr unsafe.Pointer
	// num holds the integer value, the float bits, the bool (0/1), or the
	// length of a String or Vector.
	num  uint64
	kind Kind
}

// NullValue is the canonical null.
var NullValue = Value{}

// NewBool returns a boolean Value.
func NewBool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: Bool, num: n}
}

// NewInt returns an integer Value.
func NewInt(i int64) Value { return Value{kind: Int, num: uint64(i)} }

// NewFloat returns a floating-point Value.
func NewFloat(f float64) Value { return Value{kind: Float, num: math.Float64bits(f)} }

// NewString returns a string Value. The string's bytes are retained, not
// copied.
func NewString(s string) Value {
	return Value{kind: String, ptr: unsafe.Pointer(unsafe.StringData(s)), num: uint64(len(s))}
}

// NewVector returns a vector Value. The slice's elements are retained, not
// copied.
func NewVector(v []float64) Value {
	return Value{kind: Vector, ptr: unsafe.Pointer(unsafe.SliceData(v)), num: uint64(len(v))}
}

// str and vec rebuild the payload of a String or Vector; the caller has
// checked the kind.
func (v Value) str() string { return unsafe.String((*byte)(v.ptr), int(v.num)) }

func (v Value) vec() []float64 { return unsafe.Slice((*float64)(v.ptr), int(v.num)) }

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == Null }

// Bool returns the boolean payload; false for non-bool Values.
func (v Value) Bool() bool { return v.kind == Bool && v.num == 1 }

// Int returns the integer payload; 0 for non-int Values.
func (v Value) Int() int64 {
	if v.kind != Int {
		return 0
	}
	return int64(v.num)
}

// Float returns the numeric payload as float64, converting ints.
// It returns NaN for non-numeric Values.
func (v Value) Float() float64 {
	switch v.kind {
	case Float:
		return math.Float64frombits(v.num)
	case Int:
		return float64(int64(v.num))
	default:
		return math.NaN()
	}
}

// Str returns the string payload; "" for non-string Values.
func (v Value) Str() string {
	if v.kind != String {
		return ""
	}
	return v.str()
}

// Vec returns the vector payload; nil for non-vector Values.
func (v Value) Vec() []float64 {
	if v.kind != Vector {
		return nil
	}
	return v.vec()
}

// IsNumeric reports whether v is an Int or Float.
func (v Value) IsNumeric() bool { return v.kind == Int || v.kind == Float }

// String renders v for display and text encodings.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "null"
	case Bool:
		if v.num == 1 {
			return "true"
		}
		return "false"
	case Int:
		return strconv.FormatInt(int64(v.num), 10)
	case Float:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case String:
		return v.str()
	case Vector:
		var b strings.Builder
		b.WriteByte('[')
		for i, f := range v.vec() {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
		}
		b.WriteByte(']')
		return b.String()
	default:
		return "?"
	}
}

// Equal reports deep equality. Int and Float compare numerically, so
// NewInt(3).Equal(NewFloat(3)) is true, matching PQL's "=" semantics. Two
// Floats are equal when their bits are, or when both are zero: -0.0 equals
// +0.0 as it equals the Int 0, and a NaN equals itself.
func (v Value) Equal(w Value) bool {
	if v.kind == w.kind {
		switch v.kind {
		case Null:
			return true
		case String:
			return v.str() == w.str()
		case Vector:
			a, b := v.vec(), w.vec()
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		case Float:
			return v.num == w.num || v.Float() == 0 && w.Float() == 0
		default:
			return v.num == w.num
		}
	}
	if v.IsNumeric() && w.IsNumeric() {
		return v.Float() == w.Float()
	}
	return false
}

// Identical reports whether v and w are the same datum bit for bit, which
// is when their AppendBinary encodings are equal: the same kind, and the
// same bits of every number, so -0.0 differs from +0.0, Int 3 from Float 3,
// and a NaN is identical only to a NaN of the same payload. A nil and an
// empty vector are identical.
func (v Value) Identical(w Value) bool {
	if v.kind != w.kind || v.num != w.num {
		return false
	}
	// num holds all of a scalar, and a payload's length.
	return v.kind < String || v.samePayload(w)
}

// samePayload compares the payloads of two Strings or two Vectors of one
// length, bit for bit.
func (v Value) samePayload(w Value) bool {
	if v.ptr == w.ptr {
		return true
	}
	if v.kind == String {
		return v.str() == w.str()
	}
	a, b := v.vec(), w.vec()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Compare orders Values: by kind class first (null < bool < numeric <
// string < vector), then by payload. Numeric kinds compare as float64.
// It returns -1, 0, or +1.
func (v Value) Compare(w Value) int {
	vc, wc := v.class(), w.class()
	if vc != wc {
		if vc < wc {
			return -1
		}
		return 1
	}
	switch vc {
	case classNull:
		return 0
	case classBool:
		return cmpUint(v.num, w.num)
	case classNum:
		a, b := v.Float(), w.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	case classString:
		return strings.Compare(v.str(), w.str())
	default: // classVector
		a, b := v.vec(), w.vec()
		n := min(len(a), len(b))
		for i := 0; i < n; i++ {
			if a[i] < b[i] {
				return -1
			}
			if a[i] > b[i] {
				return 1
			}
		}
		return cmpInt(len(a), len(b))
	}
}

type class uint8

const (
	classNull class = iota
	classBool
	classNum
	classString
	classVector
)

func (v Value) class() class {
	switch v.kind {
	case Null:
		return classNull
	case Bool:
		return classBool
	case Int, Float:
		return classNum
	case String:
		return classString
	default:
		return classVector
	}
}

func cmpUint(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

var hashSeed = maphash.MakeSeed()

// Hash returns a hash of v consistent with Equal: numerically equal Int and
// Float values hash identically.
func (v Value) Hash() uint64 {
	if v.kind == Int || v.kind == Float {
		// Hash by float bits of the numeric value so 3 and 3.0 collide,
		// through the splitmix64 finalizer rather than maphash (a tenth of
		// the cost on the emitted-fact index's keys): a small integer's
		// entropy sits in its float's high bits, and tables bucket by the
		// low ones.
		f := v.Float()
		if f == 0 {
			f = 0 // normalize -0
		}
		x := math.Float64bits(f)
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		return x ^ x>>31
	}
	var h maphash.Hash
	h.SetSeed(hashSeed)
	switch v.kind {
	case Null:
		h.WriteByte(0)
	case Bool:
		h.WriteByte(1)
		h.WriteByte(byte(v.num))
	case String:
		h.WriteByte(3)
		h.WriteString(v.str())
	case Vector:
		h.WriteByte(4)
		for _, f := range v.vec() {
			writeUint64(&h, math.Float64bits(f))
		}
	}
	return h.Sum64()
}

func writeUint64(h *maphash.Hash, u uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(u >> (8 * i))
	}
	h.Write(buf[:])
}

// EncodedSize returns the exact length of AppendBinary's encoding of v,
// used for serialized-size accounting without encoding.
func (v Value) EncodedSize() int {
	switch v.kind {
	case Null:
		return 1
	case Bool:
		return 2
	case Int, Float:
		return 9
	case String:
		return 1 + uvarintLen(v.num) + int(v.num)
	case Vector:
		return 1 + uvarintLen(v.num) + 8*int(v.num)
	default:
		return 1
	}
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// MemSize returns the approximate in-memory footprint of v in bytes,
// used by the provenance store's size accounting.
func (v Value) MemSize() int {
	const base = int(unsafe.Sizeof(Value{}))
	switch v.kind {
	case String:
		return base + int(v.num)
	case Vector:
		return base + 8*int(v.num)
	default:
		return base
	}
}
