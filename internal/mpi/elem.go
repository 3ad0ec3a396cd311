package mpi

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// Shared array elements. A MiniHPC array is a plain []float64 that the
// threads of its rank, and remote ranks through an RMA window, may
// read and write at the same time; a racy program does so without any
// synchronisation. Every access to a shared element is one atomic
// word, so a read returns some earlier write, never a torn value, and
// no lock is taken per element.

// LoadElem atomically reads a[i].
func LoadElem(a []float64, i int) float64 {
	return math.Float64frombits(atomic.LoadUint64((*uint64)(unsafe.Pointer(&a[i]))))
}

// StoreElem atomically writes a[i].
func StoreElem(a []float64, i int, x float64) {
	atomic.StoreUint64((*uint64)(unsafe.Pointer(&a[i])), math.Float64bits(x))
}

// LoadElems copies the shared elements of src into the private dst, as
// copy does.
func LoadElems(dst, src []float64) int {
	n := min(len(dst), len(src))
	for i := range n {
		dst[i] = LoadElem(src, i)
	}
	return n
}

// StoreElems copies the private src into the shared elements of dst,
// as copy does.
func StoreElems(dst, src []float64) int {
	n := min(len(dst), len(src))
	for i := range n {
		StoreElem(dst, i, src[i])
	}
	return n
}
