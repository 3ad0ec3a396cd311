package interp

import (
	"fmt"
	"math"
	"sync"

	"home/internal/mpi"
)

// Value is a MiniHPC runtime value: a number (int or double), an
// array reference, or an MPI request handle. Communicators and status
// handles are numbers.
type Value struct {
	Num     float64
	IsFloat bool

	// Arr is non-nil for array values; ArrMu guards concurrent
	// element access (arrays are shared across OpenMP threads).
	Arr   []float64
	ArrMu *sync.Mutex

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

// cell is one variable's storage. The mutex keeps concurrent access
// by simulated threads well-defined at the host level (the simulated
// program may still race in the MiniHPC semantics — that is exactly
// what the detectors look for).
type cell struct {
	mu      sync.Mutex
	v       Value
	isFloat bool // declared type coercion target
	isArray bool
}

func (c *cell) load() Value {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

func (c *cell) store(v Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.isArray && v.Arr == nil && v.Req == nil {
		if c.isFloat {
			v = floatVal(v.Num)
		} else {
			v = intVal(v.Num)
		}
	}
	c.v = v
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
