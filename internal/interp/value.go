package interp

import (
	"fmt"
	"math"
	"sync/atomic"

	"home/internal/mpi"
)

// Value is a MiniHPC runtime value: a number (int or double), an
// array reference, or an MPI request handle. Communicators and status
// handles are numbers.
type Value struct {
	Num     float64
	IsFloat bool

	// Arr is non-nil for array values. Arrays are shared across
	// threads and ranks, so elements are read and written only through
	// mpi.LoadElem and mpi.StoreElem.
	Arr []float64

	// Req is non-nil for MPI_Request values.
	Req *mpi.Request
}

// intVal builds an integer-typed number.
func intVal(n float64) Value { return Value{Num: math.Trunc(n)} }

// floatVal builds a double-typed number.
func floatVal(n float64) Value { return Value{Num: n, IsFloat: true} }

// boolVal encodes a C truth value.
func boolVal(b bool) Value {
	if b {
		return intVal(1)
	}
	return intVal(0)
}

// Truthy reports C truthiness.
func (v Value) Truthy() bool { return v.Num != 0 }

// Int returns the value as an int (trunc).
func (v Value) Int() int { return int(v.Num) }

func (v Value) String() string {
	switch {
	case v.Req != nil:
		return fmt.Sprintf("request#%d", v.Req.ID)
	case v.Arr != nil:
		return fmt.Sprintf("array[%d]", len(v.Arr))
	case v.IsFloat:
		return fmt.Sprintf("%g", v.Num)
	default:
		return fmt.Sprintf("%d", int64(v.Num))
	}
}

// cell is one variable's storage. Simulated threads may access it
// concurrently, and a racy MiniHPC program does so without
// synchronisation (exactly what the detectors look for), so every
// access is one atomic word and no lock is taken: a number of the
// declared type lives in num as its float64 bits, and any other value
// (an array or a request) is boxed in ref. A load never sees a torn
// value, only some earlier store.
type cell struct {
	num     atomic.Uint64         // float64 bits of a number of the declared type
	ref     atomic.Pointer[Value] // non-nil for any other value
	isFloat bool                  // declared type coercion target
	isArray bool
}

func (c *cell) load() Value {
	if p := c.ref.Load(); p != nil {
		return *p
	}
	return Value{Num: math.Float64frombits(c.num.Load()), IsFloat: c.isFloat}
}

// loadNum returns the number the cell holds: load().Num without
// building the Value.
func (c *cell) loadNum() float64 {
	if p := c.ref.Load(); p != nil {
		return p.Num
	}
	return math.Float64frombits(c.num.Load())
}

// storeNum is store(Value{Num: n, IsFloat: isFloat}) without building
// the Value: a scalar coerces n to its declared type and keeps it
// unboxed.
func (c *cell) storeNum(n float64, isFloat bool) {
	if c.isArray {
		c.set(Value{Num: n, IsFloat: isFloat})
		return
	}
	if !c.isFloat {
		n = math.Trunc(n)
	}
	c.num.Store(math.Float64bits(n))
	if c.ref.Load() != nil {
		c.ref.Store(nil)
	}
}

// store writes v coerced to the declared type.
func (c *cell) store(v Value) {
	if !c.isArray && v.Arr == nil && v.Req == nil {
		if c.isFloat {
			v = floatVal(v.Num)
		} else {
			v = intVal(v.Num)
		}
	}
	c.set(v)
}

// set writes v as it is. A number of the declared type is stored
// unboxed, so storing it allocates nothing.
func (c *cell) set(v Value) {
	if v.Arr == nil && v.Req == nil && v.IsFloat == c.isFloat {
		c.num.Store(math.Float64bits(v.Num))
		if c.ref.Load() != nil {
			c.ref.Store(nil)
		}
		return
	}
	p := new(Value)
	*p = v
	c.ref.Store(p)
}

// newCell creates a variable holding v coerced to its declared type.
func newCell(isFloat, isArray bool, v Value) *cell {
	c := &cell{isFloat: isFloat, isArray: isArray}
	c.store(v)
	return c
}

// constants are predeclared identifiers resolved when no variable
// shadows them: exactly minic's predeclared names (names_test.go).
var constants = map[string]Value{
	"MPI_COMM_WORLD":        intVal(float64(mpi.CommWorld)),
	"MPI_ANY_SOURCE":        intVal(mpi.AnySource),
	"MPI_ANY_TAG":           intVal(mpi.AnyTag),
	"MPI_THREAD_SINGLE":     intVal(mpi.ThreadSingle),
	"MPI_THREAD_FUNNELED":   intVal(mpi.ThreadFunneled),
	"MPI_THREAD_SERIALIZED": intVal(mpi.ThreadSerialized),
	"MPI_THREAD_MULTIPLE":   intVal(mpi.ThreadMultiple),
	"MPI_SUM":               intVal(float64(mpi.OpSum)),
	"MPI_PROD":              intVal(float64(mpi.OpProd)),
	"MPI_MAX":               intVal(float64(mpi.OpMax)),
	"MPI_MIN":               intVal(float64(mpi.OpMin)),
	"MPI_STATUS_IGNORE":     intVal(0),
	"NULL":                  intVal(0),
}
