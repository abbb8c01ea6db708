package value

import (
	"fmt"
	"math"
)

// Arithmetic over Values implements PQL's term expressions (paper §4.2:
// "monotonic arithmetic (+, *, ...) and boolean functions").
//
// Rules: Int op Int yields Int (except Div, which yields Float); any Float
// operand promotes the result to Float; Add on strings concatenates;
// element-wise ops apply to Vectors of equal length. Mismatches error.

// Add returns v + w.
func Add(v, w Value) (Value, error) { return binop("add", v, w) }

// Sub returns v - w.
func Sub(v, w Value) (Value, error) { return binop("sub", v, w) }

// Mul returns v * w.
func Mul(v, w Value) (Value, error) { return binop("mul", v, w) }

// Div returns v / w. Division by zero on floats follows IEEE-754; on ints it
// is an error.
func Div(v, w Value) (Value, error) { return binop("div", v, w) }

// Mod returns v % w for integers.
func Mod(v, w Value) (Value, error) {
	if v.kind == Int && w.kind == Int {
		if w.Int() == 0 {
			return NullValue, fmt.Errorf("value: integer modulo by zero")
		}
		return NewInt(v.Int() % w.Int()), nil
	}
	return NullValue, typeErr("mod", v, w)
}

// Neg returns -v for numeric and vector values.
func Neg(v Value) (Value, error) {
	switch v.kind {
	case Int:
		return NewInt(-v.Int()), nil
	case Float:
		return NewFloat(-v.Float()), nil
	case Vector:
		a := v.vec()
		out := make([]float64, len(a))
		for i, f := range a {
			out[i] = -f
		}
		return NewVector(out), nil
	default:
		return NullValue, fmt.Errorf("value: cannot negate %s", v.kind)
	}
}

func binop(op string, v, w Value) (Value, error) {
	// String concatenation.
	if op == "add" && v.kind == String && w.kind == String {
		return NewString(v.str() + w.str()), nil
	}
	// Vector element-wise.
	if v.kind == Vector && w.kind == Vector {
		a, b := v.vec(), w.vec()
		if len(a) != len(b) {
			return NullValue, fmt.Errorf("value: vector length mismatch %d vs %d", len(a), len(b))
		}
		out := make([]float64, len(a))
		for i := range a {
			out[i] = applyFloat(op, a[i], b[i])
		}
		return NewVector(out), nil
	}
	// Vector scaled by scalar.
	if v.kind == Vector && w.IsNumeric() && (op == "mul" || op == "div") {
		s := w.Float()
		a := v.vec()
		out := make([]float64, len(a))
		for i := range a {
			out[i] = applyFloat(op, a[i], s)
		}
		return NewVector(out), nil
	}
	if !v.IsNumeric() || !w.IsNumeric() {
		return NullValue, typeErr(op, v, w)
	}
	if v.kind == Int && w.kind == Int && op != "div" {
		a, b := v.Int(), w.Int()
		switch op {
		case "add":
			return NewInt(a + b), nil
		case "sub":
			return NewInt(a - b), nil
		case "mul":
			return NewInt(a * b), nil
		}
	}
	if op == "div" && v.kind == Int && w.kind == Int && w.Int() == 0 {
		return NullValue, fmt.Errorf("value: integer division by zero")
	}
	return NewFloat(applyFloat(op, v.Float(), w.Float())), nil
}

func applyFloat(op string, a, b float64) float64 {
	switch op {
	case "add":
		return a + b
	case "sub":
		return a - b
	case "mul":
		return a * b
	case "div":
		return a / b
	default:
		return math.NaN()
	}
}

func typeErr(op string, v, w Value) error {
	return fmt.Errorf("value: cannot %s %s and %s", op, v.kind, w.kind)
}

// AbsDiff returns |v - w| for numeric values, the paper's default udf-diff
// comparison for PageRank, SSSP, and WCC (§6.2.2).
func AbsDiff(v, w Value) (float64, error) {
	if !v.IsNumeric() || !w.IsNumeric() {
		return 0, fmt.Errorf("value: absdiff needs numerics, got %s, %s", v.Kind(), w.Kind())
	}
	return math.Abs(v.Float() - w.Float()), nil
}

// EuclideanDist returns the L2 distance between two vectors, the paper's
// udf-diff for ALS (§6.2.2).
func EuclideanDist(v, w Value) (float64, error) {
	a, b := v.Vec(), w.Vec()
	if a == nil || b == nil || len(a) != len(b) {
		return 0, fmt.Errorf("value: euclidean distance needs equal-length vectors")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s), nil
}
