// Package omp is an OpenMP-like fork/join threading substrate for the
// simulated hybrid programs.
//
// A Runtime belongs to one simulated MPI process. Parallel forks a
// team of threads (goroutines) that share the process's memory and its
// mpi.Proc handle, exactly as OpenMP threads of a hybrid MPI/OpenMP
// process do. Worksharing and synchronization constructs — for
// (static/dynamic/guided schedules), sections, single, master,
// critical, barrier, and explicit locks — are provided as methods on
// the team Member handle.
//
// The substrate integrates with:
//
//   - the deadlock watchdog (sim.Activity): forked workers register as
//     live threads, and every blocking construct participates in the
//     all-blocked detection protocol, so a worker stuck in an MPI call
//     inside a parallel region is caught rather than hanging the host;
//   - virtual time: fork/join and barriers synchronize member clocks
//     to the latest participant, and critical sections serialize
//     virtual time through the lock;
//   - instrumentation: when a member's context carries a sink, the
//     constructs emit the fork/join/barrier/acquire/release events the
//     happens-before and lockset analyses consume.
package omp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"home/internal/chaos"
	"home/internal/sim"
	"home/internal/trace"
)

// ErrDeadlock reports that the global deadlock watchdog tripped while
// an OpenMP construct was blocked.
var ErrDeadlock = errors.New("omp: global deadlock detected while blocked in construct")

// ErrRankAborted reports that the owning rank crash-stopped (chaos
// fault injection) while an OpenMP construct was blocked; the thread
// unwinds instead of waiting forever for teammates that are gone.
var ErrRankAborted = errors.New("omp: rank crash-stopped while blocked in construct")

// Cost constants for the substrate's own operations (virtual ns).
const (
	forkCostNs    = 2_000
	joinCostNs    = 1_500
	barrierCostNs = 1_000
	lockCostNs    = 200
)

// Runtime is the per-process OpenMP runtime state.
type Runtime struct {
	activity *sim.Activity
	rank     int
	st       rtStats
	chaos    *chaos.Injector

	mu         sync.Mutex
	numThreads int
	locks      map[string]*lockState
	depth      int32 // >0 while inside a parallel region (nested regions serialize)
	syncSeq    uint64
	laneSeqs   map[int]laneSeqs // per worker tid, between regions
}

// laneSeqs carries a worker thread's schedule-point, message and
// construct counters from one parallel region to the next. Workers
// fork with fresh contexts; if the counters restarted in every region,
// a worker's schedule records and message identities from two regions
// would collide on (rank, tid, seq). ChaosSeq is deliberately not
// carried: it keys the plan's fault rolls, which stay per region.
type laneSeqs struct{ sched, msg, construct uint64 }

// NewRuntime builds a runtime for the given rank, registering blocking
// constructs with the activity tracker (may be nil in pure-OpenMP
// tests, in which case a private tracker is used).
func NewRuntime(rank int, activity *sim.Activity) *Runtime {
	if activity == nil {
		activity = sim.NewActivity()
		activity.AddThreads(1) // the calling thread
	}
	return &Runtime{
		activity:   activity,
		rank:       rank,
		numThreads: 2,
		locks:      make(map[string]*lockState),
		laneSeqs:   make(map[int]laneSeqs),
	}
}

// SetChaos installs the fault injector shared with the MPI world (nil
// = chaos off), enabling injected thread stalls at construct
// boundaries.
func (rt *Runtime) SetChaos(in *chaos.Injector) { rt.chaos = in }

// maybeStall applies an injected thread stall at a construct boundary:
// virtual time on the thread's clock plus a transient wall-clock pause
// the deadlock watchdog knows will end on its own.
func (rt *Runtime) maybeStall(ctx *sim.Ctx) {
	if rt.chaos == nil {
		return
	}
	if st, ok := rt.chaos.StallAt(ctx.Rank, ctx.TID, ctx.NextChaosSeq()); ok {
		ctx.Advance(st.VirtualNs)
		rt.activity.StallPause(st.Wall)
	}
}

// schedPoint allocates the thread's next schedule point when record/
// replay is active (0 otherwise). As in the MPI substrate, points are
// allocated unconditionally at fixed code sites so record and replay
// runs walk identical per-thread sequences.
func (rt *Runtime) schedPoint(ctx *sim.Ctx) uint64 {
	if !rt.chaos.SchedActive() {
		return 0
	}
	return ctx.NextSchedSeq()
}

// SetNumThreads sets the default team size (omp_set_num_threads).
func (rt *Runtime) SetNumThreads(n int) {
	if n < 1 {
		n = 1
	}
	rt.mu.Lock()
	rt.numThreads = n
	rt.mu.Unlock()
}

// NumThreads returns the default team size.
func (rt *Runtime) NumThreads() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.numThreads
}

// nextSync allocates a fresh synchronization episode id.
func (rt *Runtime) nextSync() trace.SyncID {
	seq := atomic.AddUint64(&rt.syncSeq, 1)
	return trace.SyncID{Rank: rt.rank, Seq: seq}
}

// Member is one thread's view of a parallel team.
type Member struct {
	Ctx  *sim.Ctx
	TID  int
	team *team
	ord  uint64 // construct-encounter ordinal (single-goroutine use)
}

// NumThreads returns the team size.
func (m *Member) NumThreads() int { return m.team.size }

// InParallel reports whether the member belongs to a team of size > 1.
func (m *Member) InParallel() bool { return m.team.size > 1 }

// team holds the shared state of one parallel region instance.
type team struct {
	rt   *Runtime
	size int

	mu         sync.Mutex
	constructs map[uint64]*constructState
}

// constructState is the rendezvous state for one dynamic encounter of
// a worksharing or barrier construct. Members align on encounters via
// per-member ordinals, so a program in which the team's threads
// execute different construct sequences misbehaves (hangs and is
// caught by the watchdog) just as a real OpenMP program would.
type constructState struct {
	sync    trace.SyncID
	arrived int
	maxT    int64
	waiters []chan int64
	claimed bool  // single: executor chosen
	counter int64 // dynamic/guided schedules: next unclaimed iteration
}

// state returns (creating on first arrival) the construct state for a
// member-local ordinal.
func (t *team) state(ordinal uint64) *constructState {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.constructs[ordinal]
	if !ok {
		st = &constructState{sync: t.rt.nextSync(), counter: -1}
		t.constructs[ordinal] = st
	}
	return st
}

// Parallel forks a team of n threads (n <= 0 means the runtime
// default) executing body. Thread 0 is the calling thread; workers run
// on fresh goroutines with child contexts. The region ends with an
// implicit join that synchronizes the parent clock to the slowest
// member. Nested regions serialize to a team of one, matching the
// OpenMP default.
func (rt *Runtime) Parallel(ctx *sim.Ctx, n int, body func(m *Member) error) error {
	if n <= 0 {
		n = rt.NumThreads()
	}
	if atomic.AddInt32(&rt.depth, 1) > 1 {
		n = 1
	}
	defer atomic.AddInt32(&rt.depth, -1)
	rt.st.regions.Inc()

	t := &team{rt: rt, size: n, constructs: make(map[uint64]*constructState)}

	if n == 1 {
		m := &Member{Ctx: ctx, TID: ctx.TID, team: t}
		return body(m)
	}

	forkSync := rt.nextSync()
	ctx.Emit(trace.Event{Op: trace.OpFork, Sync: forkSync})
	ctx.Advance(forkCostNs)

	type result struct {
		err error
		now int64
	}
	done := make(chan result, n-1)

	// Join rendezvous. The parent marks itself waiting only when it
	// actually blocks, and the last worker unblocks it only in that
	// case: a worker must never "pre-unblock" a parent that is stuck
	// inside its own body (e.g. in an MPI call) — that would
	// permanently undercount the watchdog's blocked tally and let a
	// real deadlock go undetected.
	js := struct {
		mu        sync.Mutex
		remaining int
		waiting   bool
		wake      chan struct{}
	}{remaining: n - 1, wake: make(chan struct{}, 1)}

	rt.activity.AddThreads(n - 1)
	for tid := 1; tid < n; tid++ {
		tctx := ctx.Child(tid)
		rt.mu.Lock()
		seqs := rt.laneSeqs[tid]
		rt.mu.Unlock()
		tctx.SchedSeq, tctx.MsgSeq, tctx.ConstructSeq = seqs.sched, seqs.msg, seqs.construct
		go func(tctx *sim.Ctx, tid int) {
			tctx.Emit(trace.Event{Op: trace.OpBegin, Sync: forkSync})
			m := &Member{Ctx: tctx, TID: tid, team: t}
			err := body(m)
			tctx.Emit(trace.Event{Op: trace.OpEnd, Sync: forkSync})
			tctx.Finish()
			rt.mu.Lock()
			rt.laneSeqs[tid] = laneSeqs{tctx.SchedSeq, tctx.MsgSeq, tctx.ConstructSeq}
			rt.mu.Unlock()
			done <- result{err: err, now: tctx.Now}
			js.mu.Lock()
			js.remaining--
			if js.remaining == 0 && js.waiting {
				rt.activity.Unblock()
				js.wake <- struct{}{}
			}
			js.mu.Unlock()
			rt.activity.DoneThread()
		}(tctx, tid)
	}

	// The master executes as team member 0 on the calling goroutine.
	master := &Member{Ctx: ctx, TID: ctx.TID, team: t}
	err := body(master)

	// drainWorkers waits for every worker to finish before an abort
	// return. Workers of a crash-stopped rank always unwind (every
	// blocking construct and MPI call observes the rank's death), so
	// the wait is bounded — and it is required for determinism:
	// returning while workers still run races their event emission
	// against run teardown, making the crashed rank's trace lane
	// host-schedule-dependent even under schedule replay.
	drainWorkers := func() {
		for i := 0; i < n-1; i++ {
			<-done
		}
	}

	// Join: wait for the workers, merging clocks and errors. The join
	// is a schedule point: whether the master was torn out of it by a
	// crash-stop abort (instead of completing it) is host-racy, so
	// record/replay forces the recorded outcome.
	qj := rt.schedPoint(ctx)
	if rt.chaos.ReplayAbort(ctx.Rank, ctx.TID, qj) {
		drainWorkers()
		return ErrRankAborted
	}
	js.mu.Lock()
	if js.remaining > 0 {
		js.waiting = true
		js.mu.Unlock()
		dead, joined := rt.activity.BlockDesc(ctx.Rank, ctx.TID, "the implicit join of an omp parallel region")
		select {
		case <-js.wake:
			joined()
		case <-dead:
			if rt.activity.Deadlocked() {
				return ErrDeadlock
			}
			// Rank abort (crash-stop): stop waiting for workers that are
			// unwinding themselves. Self-unblock unless the last worker
			// beat us to it.
			js.mu.Lock()
			if js.waiting {
				js.waiting = false
				rt.activity.Unblock()
			}
			js.mu.Unlock()
			joined()
			rt.chaos.ObserveAbort(ctx.Rank, ctx.TID, qj)
			drainWorkers()
			return ErrRankAborted
		}
	} else {
		js.mu.Unlock()
	}
	// All workers have pushed their results (each sends before its
	// remaining-- above).
	maxNow := ctx.Now
	var firstErr = err
	for i := 0; i < n-1; i++ {
		r := <-done
		if r.now > maxNow {
			maxNow = r.now
		}
		if firstErr == nil && r.err != nil {
			firstErr = r.err
		}
	}
	ctx.SyncTo(maxNow)
	ctx.Advance(joinCostNs)
	ctx.Emit(trace.Event{Op: trace.OpJoin, Sync: forkSync})
	return firstErr
}

// nextOrdinal advances the member's construct counter and the
// thread's run-wide construct count. Each member carries its own
// ordinal sequence; the sequences align when the team executes
// identical construct sequences, which the OpenMP specification
// requires of conforming programs. ord keys the team's construct
// state; key (sim.Ctx.ConstructSeq) keys the thread's single and chunk
// records, which must stay unique across regions. In a thread's first
// region the two are equal.
func (m *Member) nextOrdinal() (ord, key uint64) {
	m.ord++
	m.Ctx.ConstructSeq++
	return m.ord, m.Ctx.ConstructSeq
}

// String identifies the member for diagnostics.
func (m *Member) String() string {
	return fmt.Sprintf("rank %d thread %d/%d", m.Ctx.Rank, m.TID, m.team.size)
}
