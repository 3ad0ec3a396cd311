package interp

import (
	"math"
	"sync/atomic"

	"home/internal/mpi"
)

// Value is a MiniHPC runtime value: a number (int or double) or an
// array reference. MPI requests, communicators and status handles are
// numbers.
type Value struct {
	Num     float64
	IsFloat bool

	// Arr is non-nil for array values. Arrays are shared across
	// threads and ranks, so elements are read and written only through
	// mpi.LoadElem and mpi.StoreElem.
	Arr []float64
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

// cell is one variable's storage: a number word and, for an array, the
// array fixed when the cell is created. Simulated threads may access it
// concurrently, and a racy MiniHPC program does so without
// synchronisation (exactly what the detectors look for), so the number
// is one atomic word holding float64 bits of the declared type and no
// lock is taken. A load never sees a torn value, only some earlier
// store.
type cell struct {
	num     atomic.Uint64
	arr     []float64
	isFloat bool // declared type coercion target
}

func (c *cell) load() Value {
	return Value{Num: c.loadNum(), IsFloat: c.isFloat, Arr: c.arr}
}

// loadNum returns the number the cell holds: load().Num without
// building the Value.
func (c *cell) loadNum() float64 { return math.Float64frombits(c.num.Load()) }

// storeNum writes n coerced to the declared type.
func (c *cell) storeNum(n float64) {
	if !c.isFloat {
		n = math.Trunc(n)
	}
	c.num.Store(math.Float64bits(n))
}

// newCell creates a variable of the declared float-ness from v: its
// number coerced, and its array if v is one.
func newCell(isFloat bool, v Value) *cell {
	c := &cell{isFloat: isFloat, arr: v.Arr}
	c.storeNum(v.Num)
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
