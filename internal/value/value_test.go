package value

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{NullValue, Null, "null"},
		{NewBool(true), Bool, "true"},
		{NewBool(false), Bool, "false"},
		{NewInt(-42), Int, "-42"},
		{NewFloat(1.5), Float, "1.5"},
		{NewString("hi"), String, "hi"},
		{NewVector([]float64{1, 2.5}), Vector, "[1,2.5]"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestAccessorsOnWrongKind(t *testing.T) {
	s := NewString("x")
	if s.Int() != 0 || s.Bool() || s.Vec() != nil {
		t.Errorf("wrong-kind accessors should return zero values")
	}
	if !math.IsNaN(s.Float()) {
		t.Errorf("Float() on string should be NaN, got %v", s.Float())
	}
	if NewInt(7).Str() != "" {
		t.Errorf("Str() on int should be empty")
	}
}

func TestNumericEquality(t *testing.T) {
	if !NewInt(3).Equal(NewFloat(3)) {
		t.Error("3 (int) should equal 3.0 (float)")
	}
	if NewInt(3).Equal(NewFloat(3.5)) {
		t.Error("3 should not equal 3.5")
	}
	if NewInt(3).Hash() != NewFloat(3).Hash() {
		t.Error("numerically equal values must hash equally")
	}
	// -0.0 equals the Int 0 and so, transitively, +0.0.
	if negZero := NewFloat(math.Copysign(0, -1)); !negZero.Equal(NewFloat(0)) || !negZero.Equal(NewInt(0)) {
		t.Error("-0.0 should equal 0.0 and 0")
	}
	if nan := NewFloat(math.NaN()); !nan.Equal(nan) {
		t.Error("a NaN should equal itself")
	}
	if NewString("3").Equal(NewInt(3)) {
		t.Error("string should not equal int")
	}
}

func TestCompareOrdering(t *testing.T) {
	ordered := []Value{
		NullValue,
		NewBool(false),
		NewBool(true),
		NewInt(-1),
		NewFloat(0.5),
		NewInt(2),
		NewString("a"),
		NewString("b"),
		NewVector([]float64{1}),
		NewVector([]float64{1, 0}),
		NewVector([]float64{2}),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestVectorEquality(t *testing.T) {
	a := NewVector([]float64{1, 2})
	b := NewVector([]float64{1, 2})
	c := NewVector([]float64{1, 3})
	d := NewVector([]float64{1})
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Error("vector equality wrong")
	}
}

func TestArithmetic(t *testing.T) {
	mustAdd := func(a, b Value) Value {
		t.Helper()
		v, err := Add(a, b)
		if err != nil {
			t.Fatalf("Add(%v,%v): %v", a, b, err)
		}
		return v
	}
	if got := mustAdd(NewInt(2), NewInt(3)); got.Kind() != Int || got.Int() != 5 {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustAdd(NewInt(2), NewFloat(0.5)); got.Kind() != Float || got.Float() != 2.5 {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := mustAdd(NewString("a"), NewString("b")); got.Str() != "ab" {
		t.Errorf("string add = %v", got)
	}
	if v, err := Div(NewInt(7), NewInt(2)); err != nil || v.Float() != 3.5 {
		t.Errorf("7/2 = %v, %v (division always float)", v, err)
	}
	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Error("int division by zero should error")
	}
	if v, err := Mod(NewInt(7), NewInt(3)); err != nil || v.Int() != 1 {
		t.Errorf("7%%3 = %v, %v", v, err)
	}
	if _, err := Add(NewInt(1), NewString("x")); err == nil {
		t.Error("int+string should error")
	}
	if v, err := Neg(NewInt(4)); err != nil || v.Int() != -4 {
		t.Errorf("neg = %v, %v", v, err)
	}
	if v, err := Add(NewVector([]float64{1, 2}), NewVector([]float64{3, 4})); err != nil || v.String() != "[4,6]" {
		t.Errorf("vector add = %v, %v", v, err)
	}
	if _, err := Add(NewVector([]float64{1}), NewVector([]float64{1, 2})); err == nil {
		t.Error("mismatched vector add should error")
	}
	if v, err := Mul(NewVector([]float64{1, 2}), NewFloat(2)); err != nil || v.String() != "[2,4]" {
		t.Errorf("vector scale = %v, %v", v, err)
	}
}

func TestAbsDiffAndEuclidean(t *testing.T) {
	d, err := AbsDiff(NewFloat(1.5), NewInt(3))
	if err != nil || d != 1.5 {
		t.Errorf("AbsDiff = %v, %v", d, err)
	}
	if _, err := AbsDiff(NewString("a"), NewInt(1)); err == nil {
		t.Error("AbsDiff on string should error")
	}
	e, err := EuclideanDist(NewVector([]float64{0, 0}), NewVector([]float64{3, 4}))
	if err != nil || e != 5 {
		t.Errorf("EuclideanDist = %v, %v", e, err)
	}
	if _, err := EuclideanDist(NewVector([]float64{1}), NewInt(2)); err == nil {
		t.Error("EuclideanDist on non-vector should error")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	vals := []Value{
		NullValue,
		NewBool(true),
		NewBool(false),
		NewInt(0),
		NewInt(-1 << 62),
		NewFloat(math.Pi),
		NewFloat(math.Inf(-1)),
		NewString(""),
		NewString("hello world"),
		NewVector(nil),
		NewVector([]float64{1, -2, 3.25}),
	}
	var buf []byte
	for _, v := range vals {
		buf = v.AppendBinary(buf)
	}
	off := 0
	for _, want := range vals {
		got, n, err := DecodeValue(buf[off:])
		if err != nil {
			t.Fatalf("decode %v: %v", want, err)
		}
		// NewVector(nil) round-trips to an empty vector; compare via Equal.
		if !got.Equal(want) || got.Kind() != want.Kind() {
			t.Errorf("round trip: got %v (%v), want %v (%v)", got, got.Kind(), want, want.Kind())
		}
		off += n
	}
	if off != len(buf) {
		t.Errorf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestCodecErrors(t *testing.T) {
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("empty buffer should error")
	}
	if _, _, err := DecodeValue([]byte{byte(Int), 1, 2}); err == nil {
		t.Error("truncated int should error")
	}
	if _, _, err := DecodeValue([]byte{99}); err == nil {
		t.Error("bad kind byte should error")
	}
}

func TestCodecQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, vec []float64) bool {
		for _, v := range []Value{NewInt(i), NewFloat(fl), NewString(s), NewVector(vec)} {
			buf := v.AppendBinary(nil)
			got, n, err := DecodeValue(buf)
			if err != nil || n != len(buf) {
				return false
			}
			// NaN != NaN under Equal via float compare; handle separately.
			if v.Kind() == Float && math.IsNaN(fl) {
				if got.Kind() != Float || !math.IsNaN(got.Float()) {
					return false
				}
				continue
			}
			if v.Kind() == Vector {
				for _, x := range vec {
					if math.IsNaN(x) {
						return true // skip NaN vectors
					}
				}
			}
			if !got.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIdenticalMatchesBinary: Identical holds for a pair exactly when the
// two AppendBinary encodings are equal, over every pair of values that tell
// zero signs, NaN payloads, Int from Float, and nil from empty vectors apart
// (or fail to).
func TestIdenticalMatchesBinary(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	vals := []Value{
		NullValue, NewBool(false), NewBool(true), NewInt(0), NewInt(3), NewInt(-3),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(3), NewFloat(math.NaN()), NewFloat(nan2),
		NewString(""), NewString("ab"), NewString(strings.Clone("ab")), NewString("ba"),
		NewVector(nil), NewVector([]float64{}), NewVector([]float64{1, math.NaN()}),
		NewVector([]float64{1, math.NaN()}), NewVector([]float64{1, nan2}), NewVector([]float64{1}),
		NewVector([]float64{math.Copysign(0, -1)}), NewVector([]float64{0}),
	}
	for _, v := range vals {
		for _, w := range vals {
			want := bytes.Equal(v.AppendBinary(nil), w.AppendBinary(nil))
			if got := v.Identical(w); got != want {
				t.Errorf("%v (%v).Identical(%v (%v)) = %v, encodings equal: %v", v, v.Kind(), w, w.Kind(), got, want)
			}
		}
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		if va.Equal(vb) && va.Hash() != vb.Hash() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if NewFloat(0).Hash() != NewFloat(math.Copysign(0, -1)).Hash() {
		t.Error("+0 and -0 must hash equally")
	}
}

func TestMemSize(t *testing.T) {
	if NewString("abcd").MemSize() <= NewString("").MemSize() {
		t.Error("longer string should report larger size")
	}
	if NewVector(make([]float64, 10)).MemSize() <= NewVector(nil).MemSize() {
		t.Error("longer vector should report larger size")
	}
}

// TestLayout pins the representation every engine message carries: three
// words, so a message (one or two uint32 vertex ids plus a Value) is 32
// bytes. Value must stay non-comparable: == on two Strings or Vectors would
// compare addresses, not payloads.
func TestLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("Value is %d bytes, want 24", got)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable with ==; it must compare through Equal")
	}
	if got := NewInt(1).MemSize(); got != 24 {
		t.Errorf("MemSize of an Int = %d, want the struct's 24 bytes", got)
	}
}

// TestPayloadIdentity checks what a pointer-and-length payload keeps and
// loses: a nil vector stays nil and an empty one non-nil (EuclideanDist
// tells them apart), the capacity is cut to the length so appending to Vec
// never writes into the caller's array, and the bytes are shared, not
// copied.
func TestPayloadIdentity(t *testing.T) {
	if NewVector(nil).Vec() != nil {
		t.Error("NewVector(nil).Vec() is not nil")
	}
	if NewVector([]float64{}).Vec() == nil {
		t.Error("an empty non-nil vector came back nil")
	}
	if _, err := EuclideanDist(NewVector([]float64{}), NewVector([]float64{})); err != nil {
		t.Errorf("two empty vectors: %v", err)
	}
	back := make([]float64, 2, 8)
	back[0], back[1] = 1, 2
	v := NewVector(back)
	if got := v.Vec(); cap(got) != 2 || &got[0] != &back[0] {
		t.Errorf("Vec() = cap %d, shared %v; want cap 2 over the same array", cap(got), &got[0] == &back[0])
	}
	_ = append(v.Vec(), 3)
	if back[:3][2] != 0 {
		t.Error("appending to Vec() wrote into the caller's spare capacity")
	}
	s := "prefix-middle-suffix"
	if got := NewString(s[7:13]).Str(); got != "middle" {
		t.Errorf("substring payload = %q", got)
	}
	if got := NewString(s[20:]).Str(); got != "" {
		t.Errorf("empty substring payload = %q", got)
	}
}

// TestPayloadOutlivesItsSource drops every other reference to a String's and
// a Vector's backing memory, forces collections and churns the heap: the
// Value's data pointer alone must keep the bytes alive.
func TestPayloadOutlivesItsSource(t *testing.T) {
	const n = 64
	vals := make([]Value, 0, 2*n)
	for i := 0; i < n; i++ {
		vals = append(vals,
			NewString(strconv.Itoa(i)+"-"+strings.Repeat("x", i)),
			NewVector([]float64{float64(i), float64(-i), 0.5}))
	}
	for round := 0; round < 3; round++ {
		runtime.GC()
		junk := make([][]byte, 256)
		for i := range junk {
			junk[i] = bytes.Repeat([]byte{0xff}, 64)
		}
		runtime.KeepAlive(junk)
	}
	for i := 0; i < n; i++ {
		if got, want := vals[2*i].Str(), strconv.Itoa(i)+"-"+strings.Repeat("x", i); got != want {
			t.Fatalf("string %d = %q after GC, want %q", i, got, want)
		}
		if got := vals[2*i+1].Vec(); len(got) != 3 || got[0] != float64(i) || got[1] != float64(-i) || got[2] != 0.5 {
			t.Fatalf("vector %d = %v after GC", i, got)
		}
	}
}

// FuzzValueCodec round-trips every kind through the binary codec and checks
// that Equal, Compare, Hash and EncodedSize agree on the decoded copy, which
// holds its payload at a new address.
func FuzzValueCodec(f *testing.F) {
	f.Add(int64(0), 0.0, "", []byte{}, uint8(0))
	f.Add(int64(-1<<62), math.Inf(-1), "héllo", []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(5))
	f.Add(int64(1<<53+1), math.Copysign(0, -1), "a\x00b", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf7, 0x7f}, uint8(3))
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, raw []byte, pick uint8) {
		var vec []float64
		for len(raw) >= 8 {
			vec = append(vec, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		}
		all := []Value{NullValue, NewBool(pick%2 == 1), NewInt(i), NewFloat(fl), NewString(s), NewVector(vec)}
		v := all[int(pick)%len(all)]
		buf := v.AppendBinary(nil)
		if len(buf) != v.EncodedSize() {
			t.Fatalf("%v: EncodedSize %d, encoding %d bytes", v, v.EncodedSize(), len(buf))
		}
		got, n, err := DecodeValue(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("%v: decode consumed %d of %d: %v", v, n, len(buf), err)
		}
		if !bytes.Equal(got.AppendBinary(nil), buf) || got.Kind() != v.Kind() {
			t.Fatalf("%v (%v) decoded as %v (%v)", v, v.Kind(), got, got.Kind())
		}
		if !got.Identical(v) {
			t.Fatalf("%v: decoded copy is not Identical", v)
		}
		if got.Hash() != v.Hash() {
			t.Fatalf("%v: hash changed across the round trip", v)
		}
		if v.Equal(v) && (!got.Equal(v) || got.Compare(v) != 0) {
			t.Fatalf("%v: decoded copy is not Equal/Compare-equal", v)
		}
		if got.String() != v.String() {
			t.Fatalf("String %q != %q", got.String(), v.String())
		}
	})
}
