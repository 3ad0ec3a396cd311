// Package sched records and replays realized fault schedules. A chaos
// plan (internal/chaos) makes fault *decisions* reproducible from a
// seed, but crash-stop runs still contain genuine host-schedule races:
// which thread of the crashed rank trips the shared call counter,
// whether a survivor's receive matched before the failure propagated,
// which message a wildcard receive claimed. sched captures every such
// realized decision and nondeterministic resolution during a run — as
// a compact, versioned JSONL stream of chaos.Record entries keyed by
// (kind, rank, tid, seq) — and replays it so the identical
// interleaving, and therefore the identical home.Report, is forced on
// re-execution (the seed-hash fault path is disabled during replay).
// A Recorder takes records through chaos.Recorder's one method, a
// Schedule answers chaos.Source's one Lookup; the chaos.Injector's
// typed Observe*/Replay* helpers convert between records and the
// values the runtime substrates use.
//
// Record kinds:
//
//	send   realized send fault (delay/reorder/retries/jitter), keyed
//	       by the sender thread's chaos decision index
//	stall  realized thread stall, keyed by the chaos decision index
//	rma    realized RMA delay, keyed by the chaos decision index
//	fail   an MPI operation observed a rank failure at this schedule
//	       point (sim.Ctx.NextSchedSeq)
//	abort  an OpenMP construct was abandoned by a crash-stop
//	match  the receive/probe posted at this point was satisfied by the
//	       identified message
//	poll   a non-blocking poll (MPI_Test, MPI_Iprobe) succeeded here
//	crash  the given rank crash-stopped (no point key)
//
// The *order* families pin virtual time (see docs/ROBUSTNESS.md):
//
//	coll   the arrival at this schedule point joined the identified
//	       collective instance (communicator, instance seq, arrival
//	       index; Comm_dup instances also carry the allocated
//	       communicator id). Recorded only for instances that
//	       *completed* — an abandoned instance leaves no coll records,
//	       so a replayed crash can never re-join it
//	lock   the OpenMP lock acquire at this point was granted as the
//	       lock's ticket-th acquisition
//	single the thread won the `single` first-arriver election at this
//	       construct (keyed by the thread's run-wide construct count,
//	       sim.Ctx.ConstructSeq, not a schedule point)
//	chunk  the thread claimed iteration range [base, end) from a
//	       dynamic/guided loop (keyed by construct count and claim
//	       index)
//
// Absence is meaningful: a point with no record realized no fault,
// observed no failure, and matched no message. Only format version 2
// is read; version-1 streams, which lacked the order families, are
// rejected. Wall-clock payloads
// (jitter, stall pauses) are recorded but not re-applied on replay —
// they exist only to provoke host races, which replay forces instead.
package sched

import (
	"fmt"
	"sync"
	"sync/atomic"

	"home/internal/chaos"
)

// Record is one realized decision (see chaos.Record for its fields).
type Record = chaos.Record

// Key identifies one record of a schedule: its kind plus its schedule
// point. Crash records, which carry no point, use TID 0 and Seq 0.
type Key = chaos.Key

// orderKind reports whether the kind belongs to the order families
// that pin virtual time.
func orderKind(kind string) bool {
	switch kind {
	case chaos.KindColl, chaos.KindLock, chaos.KindSingle, chaos.KindChunk:
		return true
	}
	return false
}

// Recorder accumulates the realized schedule of one run. It
// implements chaos.Recorder and is safe for concurrent use (match
// resolutions arrive from sender goroutines).
type Recorder struct {
	mu   sync.Mutex
	plan chaos.Plan
	recs []Record
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// SetPlan stores the chaos plan embedded in the schedule header so a
// replay run can reconstruct the exact same injector configuration.
func (r *Recorder) SetPlan(p chaos.Plan) {
	r.mu.Lock()
	r.plan = p
	r.mu.Unlock()
}

// Len returns the number of records accumulated so far.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// Record implements chaos.Recorder.
func (r *Recorder) Record(rec Record) {
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// OrderLen returns how many of the accumulated records belong to the
// order families (collective membership, lock grants, elections,
// chunk claims) — the decisions that pin virtual time.
func (r *Recorder) OrderLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, rec := range r.recs {
		if orderKind(rec.Kind) {
			n++
		}
	}
	return n
}

// snapshot returns the plan and a sorted copy of the records. Sorting
// by (rank, tid, seq, kind) makes the serialized schedule a canonical,
// byte-stable artifact regardless of host interleaving during the
// recorded run. Exact duplicates collapse to one record: in echo mode
// (replay + re-record) a forced decision can be booked twice — once by
// the echo source, once by a runtime path that observes even on a
// replay hit — with identical content. Duplicate keys with *different*
// content are kept, so schedule construction still rejects them.
func (r *Recorder) snapshot() (chaos.Plan, []Record) {
	r.mu.Lock()
	recs := make([]Record, len(r.recs))
	copy(recs, r.recs)
	plan := r.plan
	r.mu.Unlock()
	SortRecords(recs)
	uniq := recs[:0]
	for i, rec := range recs {
		if i > 0 && rec == uniq[len(uniq)-1] {
			continue
		}
		uniq = append(uniq, rec)
	}
	return plan, uniq
}

// Schedule is a recorded schedule loaded for replay. It implements
// chaos.Source; lookups are read-only after construction and safe for
// concurrent use (the forced-hit counters are atomic).
type Schedule struct {
	plan        chaos.Plan
	byKey       map[Key]Record
	recs        []Record
	crashes     []int
	forced      atomic.Int64
	orderForced atomic.Int64
}

func newSchedule(plan chaos.Plan, recs []Record) (*Schedule, error) {
	s := &Schedule{plan: plan, byKey: make(map[Key]Record, len(recs)), recs: recs}
	for _, rec := range recs {
		if rec.Kind == chaos.KindCrash {
			s.crashes = append(s.crashes, rec.Rank)
			continue
		}
		k := rec.Key()
		if _, dup := s.byKey[k]; dup {
			return nil, fmt.Errorf("sched: duplicate record for %s", k)
		}
		s.byKey[k] = rec
	}
	return s, nil
}

// Plan returns a copy of the chaos plan the schedule was recorded
// under; attach it (by pointer) to the replay run's configuration.
func (s *Schedule) Plan() chaos.Plan { return s.plan }

// Len returns the number of records in the schedule.
func (s *Schedule) Len() int { return len(s.recs) }

// Crashes implements chaos.Source: the ranks that crash-stopped in the
// recorded run.
func (s *Schedule) Crashes() []int { return append([]int(nil), s.crashes...) }

// Forced returns how many lookups have hit a record so far — the
// number of recorded decisions replay has forced onto the run.
// Schedules are reusable across runs, so per-run accounting should
// difference Forced() around the run.
func (s *Schedule) Forced() int64 { return s.forced.Load() }

// OrderForced returns how many of the forced decisions belonged to the
// order families (subset of Forced; same reuse caveat).
func (s *Schedule) OrderForced() int64 { return s.orderForced.Load() }

// Lookup implements chaos.Source: the record at (kind, rank, tid,
// seq), if any. Every hit counts as a forced decision.
func (s *Schedule) Lookup(kind string, rank, tid int, seq uint64) (Record, bool) {
	rec, ok := s.byKey[Key{Kind: kind, Rank: rank, TID: tid, Seq: seq}]
	if ok {
		s.forced.Add(1)
		if orderKind(kind) {
			s.orderForced.Add(1)
		}
	}
	return rec, ok
}
