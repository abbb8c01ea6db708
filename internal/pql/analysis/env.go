// Package analysis implements PQL semantic analysis: parameter resolution,
// function resolution, arity and safety checking (range restriction),
// stratification of negation and aggregation, and the paper's location
// analysis — VC-compatibility (Def. 4.1) and directedness classification
// (Def. 5.2) — which decides whether a query can run online, layered, or
// only naively.
package analysis

import (
	"fmt"
	"math"

	"ariadne/internal/value"
)

// Func is a scalar or boolean user-defined function callable from PQL
// (paper §4.2: "a boolean function call f(v̄) with f built-in or
// user-defined"). Fn must be safe for concurrent use: online, a query's
// in-partition strata call it from every engine partition's goroutine at
// once. The built-ins are pure functions of their arguments.
type Func struct {
	// Arity is the required argument count; -1 accepts any.
	Arity int
	Fn    func(args []value.Value) (value.Value, error)
}

// Env supplies query parameters ($name) and function bindings to analysis
// and evaluation.
type Env struct {
	Params map[string]value.Value
	Funcs  map[string]Func
	// ExtraEDBs declares analytics-specific provenance tables beyond the
	// built-ins (e.g. prov_error/4 emitted by ALS), name -> arity.
	ExtraEDBs map[string]int
}

// NewEnv returns an Env with the built-in function library.
func NewEnv() *Env {
	e := &Env{
		Params:    map[string]value.Value{},
		Funcs:     map[string]Func{},
		ExtraEDBs: map[string]int{},
	}
	e.Funcs["abs"] = Func{Arity: 1, Fn: func(a []value.Value) (value.Value, error) {
		if !a[0].IsNumeric() {
			return value.NullValue, fmt.Errorf("abs: want number, got %s", a[0].Kind())
		}
		return value.NewFloat(math.Abs(a[0].Float())), nil
	}}
	e.Funcs["sqrt"] = Func{Arity: 1, Fn: func(a []value.Value) (value.Value, error) {
		if !a[0].IsNumeric() {
			return value.NullValue, fmt.Errorf("sqrt: want number, got %s", a[0].Kind())
		}
		return value.NewFloat(math.Sqrt(a[0].Float())), nil
	}}
	e.Funcs["absdiff"] = Func{Arity: 2, Fn: func(a []value.Value) (value.Value, error) {
		d, err := value.AbsDiff(a[0], a[1])
		if err != nil {
			return value.NullValue, err
		}
		return value.NewFloat(d), nil
	}}
	e.Funcs["eucdist"] = Func{Arity: 2, Fn: func(a []value.Value) (value.Value, error) {
		d, err := value.EuclideanDist(a[0], a[1])
		if err != nil {
			return value.NullValue, err
		}
		return value.NewFloat(d), nil
	}}
	// udf_diff(d1, d2, eps) defaults to |d1-d2| <= eps — the paper's vertex
	// value comparison for PageRank/SSSP/WCC. Callers override it (e.g.
	// with Euclidean distance for ALS) via SetDiffUDF.
	e.SetDiffUDF(value.AbsDiff)
	return e
}

// SetDiffUDF installs the vertex-value comparison behind udf_diff(d1,d2,eps):
// true when diff(d1,d2) <= eps. The paper parameterizes the apt query with
// exactly this function (§2.2).
func (e *Env) SetDiffUDF(diff func(a, b value.Value) (float64, error)) {
	e.Funcs["udf_diff"] = Func{Arity: 3, Fn: func(a []value.Value) (value.Value, error) {
		if !a[2].IsNumeric() {
			return value.NullValue, fmt.Errorf("udf_diff: epsilon must be numeric, got %s", a[2].Kind())
		}
		d, err := diff(a[0], a[1])
		if err != nil {
			return value.NullValue, err
		}
		return value.NewBool(d <= a[2].Float()), nil
	}}
}

// SetParam binds a $name query parameter.
func (e *Env) SetParam(name string, v value.Value) {
	if e.Params == nil {
		e.Params = map[string]value.Value{}
	}
	e.Params[name] = v
}

// DeclareEDB registers an analytics-specific provenance table.
func (e *Env) DeclareEDB(name string, arity int) {
	if e.ExtraEDBs == nil {
		e.ExtraEDBs = map[string]int{}
	}
	e.ExtraEDBs[name] = arity
}

// Clone returns a deep copy (maps copied, functions shared).
func (e *Env) Clone() *Env {
	c := &Env{
		Params:    make(map[string]value.Value, len(e.Params)),
		Funcs:     make(map[string]Func, len(e.Funcs)),
		ExtraEDBs: make(map[string]int, len(e.ExtraEDBs)),
	}
	for k, v := range e.Params {
		c.Params[k] = v
	}
	for k, v := range e.Funcs {
		c.Funcs[k] = v
	}
	for k, v := range e.ExtraEDBs {
		c.ExtraEDBs[k] = v
	}
	return c
}
