package omp

import "home/internal/obs"

// rtStats caches the substrate's observability handles. Zero value =
// all nil = every hook is a no-op (the Registry/handle convention of
// package obs).
//
// Stat names (see docs/OBSERVABILITY.md):
//
//	omp.parallel_regions   Parallel invocations (serialized ones included)
//	omp.barrier_wait_vns   per-member barrier wait, virtual ns (histogram)
//	omp.lock_acquires      critical-section/lock acquisitions
//	omp.lock_contended     acquisitions that waited in virtual time (the
//	                       previous release is later than the acquirer's clock)
type rtStats struct {
	regions     *obs.Counter
	barrierWait *obs.Histogram
	acquires    *obs.Counter
	contended   *obs.Counter
}

// SetStats wires the runtime's hooks into a registry (nil detaches).
// Called once before the run; not synchronized against in-flight
// regions.
func (rt *Runtime) SetStats(reg *obs.Registry) {
	rt.st = rtStats{
		regions:     reg.Counter("omp.parallel_regions"),
		barrierWait: reg.Histogram("omp.barrier_wait_vns"),
		acquires:    reg.Counter("omp.lock_acquires"),
		contended:   reg.Counter("omp.lock_contended"),
	}
}
