package transport

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"ariadne/internal/engine"
	"ariadne/internal/value"
)

var (
	valueType = reflect.TypeOf(value.Value{})
	factsType = reflect.TypeOf(engine.Facts{})
)

// wireEqual is reflect.DeepEqual, except that value.Values compare by their
// binary encoding and a record's engine.Facts by its facts in emission
// order. A String or Vector Value is a data pointer and a length, so one
// decoded from a frame holds the same bytes as the one encoded but at
// another address, which DeepEqual would call different; a decoded record's
// facts live in the frame's fact store, not in one laid out as the
// encoder's.
func wireEqual(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return false
	}
	pa, pb := reflect.New(va.Type()), reflect.New(vb.Type())
	pa.Elem().Set(va)
	pb.Elem().Set(vb)
	return deepWire(pa.Elem(), pb.Elem())
}

// deepWire walks a and b, which have the same type. It reads unexported
// fields through the typed accessors (Int, String, ...) that reflect allows
// on them; a Value inside one is reached by its address, so every Value the
// walk meets must be addressable (slice elements and the fields of an
// addressable struct are; map values are not).
func deepWire(a, b reflect.Value) bool {
	if a.Type() == valueType {
		return bytes.Equal(readValue(a).AppendBinary(nil), readValue(b).AppendBinary(nil))
	}
	if a.Type() == factsType {
		return factBits(*(*engine.Facts)(unsafe.Pointer(a.UnsafeAddr()))) == factBits(*(*engine.Facts)(unsafe.Pointer(b.UnsafeAddr())))
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		if a.Kind() == reflect.Interface && a.Elem().Type() != b.Elem().Type() {
			return false
		}
		return deepWire(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !deepWire(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !deepWire(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() || !deepWire(it.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return a.Float() == b.Float()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Complex64, reflect.Complex128:
		return a.Complex() == b.Complex()
	case reflect.Func:
		return a.IsNil() && b.IsNil()
	default: // Chan, UnsafePointer: identity, as DeepEqual
		return a.UnsafePointer() == b.UnsafePointer()
	}
}

// factBits renders facts in emission order: table, arity and argument
// encodings.
func factBits(fs engine.Facts) string {
	var b []byte
	for k := range fs.Len() {
		t, _ := fs.Fact(k)
		b = append(b, t.Name()...)
		b = append(b, byte(t.Arity()))
		for _, a := range fs.AppendArgs(nil, k) {
			b = a.AppendBinary(b)
		}
	}
	return string(b)
}

func readValue(v reflect.Value) value.Value {
	return *(*value.Value)(unsafe.Pointer(v.UnsafeAddr()))
}

// TestWireEqual pins the helper the round-trip tests rest on: a Value at
// another address is equal, a changed payload or kind is not.
func TestWireEqual(t *testing.T) {
	type frame struct {
		Vals []value.Value
		msgs []engine.OutMessage
	}
	mk := func(x float64, s string, k value.Value) *frame {
		return &frame{
			Vals: []value.Value{value.NewVector([]float64{1, x}), value.NewString(s)},
			msgs: []engine.OutMessage{{Src: 1, Dst: 2, Val: k}},
		}
	}
	name := string([]byte("ab")) // a second copy of "ab" at another address
	if !wireEqual(mk(2, "ab", value.NewInt(3)), mk(2, name, value.NewInt(3))) {
		t.Error("equal frames at different addresses compare unequal")
	}
	for _, c := range []struct {
		what string
		b    *frame
	}{
		{"vector element", mk(2.5, "ab", value.NewInt(3))},
		{"string", mk(2, "ac", value.NewInt(3))},
		{"kind of an unexported field's Value", mk(2, "ab", value.NewFloat(3))},
	} {
		if wireEqual(mk(2, "ab", value.NewInt(3)), c.b) {
			t.Errorf("frames differing in %s compare equal", c.what)
		}
	}
}
