// Package mpi is a message-passing runtime simulator reproducing the
// MPI semantics the paper's thread-safety violations depend on.
//
// Ranks are simulated processes (goroutines started by World.Run);
// OpenMP threads within a rank (package omp) may issue MPI calls
// through the rank's Proc handle, exactly as threads of a real hybrid
// MPI/OpenMP process share the MPI library.
//
// The simulator implements:
//
//   - point-to-point communication with MPI matching semantics:
//     (source, tag, communicator) triples, MPI_ANY_SOURCE/MPI_ANY_TAG
//     wildcards, and non-overtaking order between a given pair;
//   - nonblocking operations (Isend/Irecv) with request handles and
//     Wait/Test completion;
//   - Probe/Iprobe message inspection;
//   - collectives (Barrier, Bcast, Reduce, Allreduce, Gather, Scatter,
//     Alltoall) with instance matching by arrival order, plus
//     Comm_dup for communicator creation;
//   - the four MPI thread-support levels with faithful misbehaviour:
//     under MPI_THREAD_SINGLE/FUNNELED, calls from non-main threads
//     are unreliable (sends are lost, receives hang), which is how the
//     paper's Figure 1 case study manifests;
//   - exact global deadlock detection: when every live thread is
//     blocked inside the runtime, pending operations abort with
//     ErrDeadlock instead of hanging the host process.
//
// Virtual time: every call charges sim cost-model terms, messages add
// latency + bandwidth, and collectives synchronize participants to the
// latest arrival (see package sim).
package mpi

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"home/internal/chaos"
	"home/internal/obs"
	"home/internal/sim"
)

// Thread-support levels, mirroring MPI_THREAD_*.
const (
	ThreadSingle = iota
	ThreadFunneled
	ThreadSerialized
	ThreadMultiple
)

// ThreadLevelName returns the MPI constant name for a level.
func ThreadLevelName(l int) string {
	switch l {
	case ThreadSingle:
		return "MPI_THREAD_SINGLE"
	case ThreadFunneled:
		return "MPI_THREAD_FUNNELED"
	case ThreadSerialized:
		return "MPI_THREAD_SERIALIZED"
	case ThreadMultiple:
		return "MPI_THREAD_MULTIPLE"
	}
	return fmt.Sprintf("level(%d)", l)
}

// Wildcards for receive/probe matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// CommID identifies a communicator. CommWorld is always 0.
type CommID int

// CommWorld is the predefined world communicator.
const CommWorld CommID = 0

// Errors returned by runtime operations.
var (
	// ErrDeadlock reports that the global deadlock watchdog tripped
	// while this operation was blocked.
	ErrDeadlock = errors.New("mpi: global deadlock detected (all live threads blocked)")

	// ErrNotInitialized reports an MPI call before Init.
	ErrNotInitialized = errors.New("mpi: call before MPI_Init")

	// ErrFinalized reports an MPI call after Finalize.
	ErrFinalized = errors.New("mpi: call after MPI_Finalize")

	// ErrInvalidRank reports an out-of-range peer rank.
	ErrInvalidRank = errors.New("mpi: invalid rank")

	// ErrInvalidComm reports an unknown communicator.
	ErrInvalidComm = errors.New("mpi: invalid communicator")

	// ErrRequestReused reports Wait/Test on an already-completed-and-
	// consumed request handle.
	ErrRequestReused = errors.New("mpi: request already consumed")

	// ErrDoubleInit reports a second MPI_Init on the same rank.
	ErrDoubleInit = errors.New("mpi: MPI_Init called twice")

	// ErrRankFailed reports an operation that cannot complete because
	// a rank crash-stopped (chaos fault injection). Operations return
	// a *RankFailureError, which unwraps to this sentinel.
	ErrRankFailed = errors.New("mpi: rank failed (crash-stop)")
)

// RankFailureError is the structured form of ErrRankFailed: which
// rank failed and which operation observed the failure. It propagates
// to every surviving operation that depended on the failed rank —
// receives and probes selecting it, collectives over communicators
// containing it, and every call the failed rank itself issues after
// the crash point.
type RankFailureError struct {
	// Rank is the crash-stopped rank.
	Rank int
	// Op names the MPI operation that observed the failure.
	Op string
}

func (e *RankFailureError) Error() string {
	return fmt.Sprintf("mpi: %s failed: rank %d crash-stopped", e.Op, e.Rank)
}

// Unwrap makes errors.Is(err, ErrRankFailed) match.
func (e *RankFailureError) Unwrap() error { return ErrRankFailed }

// Config parameterizes a simulated world.
type Config struct {
	// Procs is the number of MPI ranks.
	Procs int

	// Costs is the virtual-time cost model; zero value means
	// sim.DefaultCostModel.
	Costs sim.CostModel

	// EnforceThreadLevel makes calls from non-main threads misbehave
	// under SINGLE/FUNNELED (lost sends, hanging receives), as real
	// MPI implementations may. When false the runtime always behaves
	// as MPI_THREAD_MULTIPLE.
	EnforceThreadLevel bool

	// Stats, when non-nil, receives the runtime's counters and
	// watermarks (message matching, bytes moved, queue depth, ...).
	Stats *obs.Registry

	// Chaos, when non-nil, enables deterministic fault injection
	// (message perturbation, crash-stop, stalls; see internal/chaos).
	Chaos *chaos.Plan

	// SchedRecorder, when non-nil, records every realized fault
	// decision and nondeterministic resolution of the run as a replay
	// schedule (see internal/sched). Usable with or without Chaos.
	SchedRecorder chaos.Recorder

	// SchedSource, when non-nil, switches the run to replay mode: the
	// injector reads realized decisions from the recorded schedule
	// instead of hashing the plan seed, and the runtime forces the
	// recorded failure observations and message-match resolutions.
	// Crash-stop propagation is suppressed — failures surface exactly
	// where the recorded run observed them.
	SchedSource chaos.Source
}

// World is one simulated cluster run: a set of ranks sharing
// communicators and a deadlock watchdog.
type World struct {
	cfg      Config
	costs    sim.CostModel
	procs    []*Proc
	activity *sim.Activity
	keeper   *sim.TimeKeeper
	st       worldStats
	chaos    *chaos.Injector

	// deadRanks flags crash-stopped ranks; anyDead is the cheap guard
	// the hot paths test first.
	deadRanks []atomic.Bool
	anyDead   atomic.Bool

	mu       sync.Mutex
	comms    map[CommID]*commState
	nextComm CommID
	windows  map[int]*Win
}

// NewWorld builds a world with cfg.Procs ranks.
func NewWorld(cfg Config) *World {
	if cfg.Procs <= 0 {
		cfg.Procs = 1
	}
	costs := cfg.Costs
	if costs == (sim.CostModel{}) {
		costs = sim.DefaultCostModel()
	}
	// Recording or replaying needs a live injector even without a
	// fault plan: schedule points (matches, polls) exist in chaos-free
	// runs too.
	if cfg.Chaos == nil && (cfg.SchedRecorder != nil || cfg.SchedSource != nil) {
		cfg.Chaos = &chaos.Plan{}
	}
	w := &World{
		cfg:       cfg,
		costs:     costs,
		activity:  sim.NewActivity(),
		keeper:    &sim.TimeKeeper{},
		st:        newWorldStats(cfg.Stats),
		chaos:     chaos.New(cfg.Chaos, cfg.Stats),
		deadRanks: make([]atomic.Bool, cfg.Procs),
		comms:     make(map[CommID]*commState),
		nextComm:  CommWorld + 1,
	}
	w.chaos.SetRecorder(cfg.SchedRecorder)
	w.chaos.SetSource(cfg.SchedSource)
	w.comms[CommWorld] = newCommState(CommWorld, cfg.Procs)
	w.procs = make([]*Proc, cfg.Procs)
	for r := 0; r < cfg.Procs; r++ {
		w.procs[r] = newProc(w, r)
	}
	// Replay reproduces DeadRanks from the schedule header, not from
	// re-deciding crash points: pre-mark the recorded crashes quietly
	// (no failure propagation — the recorded fail/abort records say
	// exactly which operations observed each failure, and where).
	for _, r := range w.chaos.ReplayCrashes() {
		w.markRankDeadQuiet(r)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.procs) }

// Proc returns the rank's process handle.
func (w *World) Proc(rank int) *Proc { return w.procs[rank] }

// Activity exposes the thread-liveness tracker so the OpenMP substrate
// can register forked threads with the deadlock watchdog.
func (w *World) Activity() *sim.Activity { return w.activity }

// Keeper exposes the makespan accumulator.
func (w *World) Keeper() *sim.TimeKeeper { return w.keeper }

// Costs returns the world's cost model.
func (w *World) Costs() *sim.CostModel { return &w.costs }

// Chaos exposes the fault injector (nil when chaos is off) so the
// other substrates share the same plan and decision streams.
func (w *World) Chaos() *chaos.Injector { return w.chaos }

// RankDead reports whether the rank has crash-stopped.
func (w *World) RankDead(rank int) bool {
	return rank >= 0 && rank < len(w.deadRanks) && w.deadRanks[rank].Load()
}

// AnyRankDead reports whether any rank has crash-stopped.
func (w *World) AnyRankDead() bool { return w.anyDead.Load() }

// DeadRanks lists the crash-stopped ranks, sorted.
func (w *World) DeadRanks() []int {
	var out []int
	for r := range w.deadRanks {
		if w.deadRanks[r].Load() {
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}

// firstDead returns the lowest crash-stopped rank, or -1.
func (w *World) firstDead() int {
	for r := range w.deadRanks {
		if w.deadRanks[r].Load() {
			return r
		}
	}
	return -1
}

// failure builds the structured rank-failure error and counts it.
func (w *World) failure(rank int, op string) error {
	w.st.rankFailures.Inc()
	return &RankFailureError{Rank: rank, Op: op}
}

// MarkRankDead crash-stops a rank: every operation of the rank fails
// from now on, and every surviving operation that can no longer
// complete — receives and probes selecting the rank, and all pending
// and future collectives — wakes with a *RankFailureError instead of
// hanging until the watchdog. Idempotent.
func (w *World) MarkRankDead(rank int) {
	if rank < 0 || rank >= len(w.deadRanks) {
		return
	}
	if w.deadRanks[rank].Swap(true) {
		return
	}
	w.anyDead.Store(true)
	w.chaos.CountCrash()
	w.chaos.ObserveCrash(rank)

	// Fail the survivors' dependent point-to-point operations.
	for _, p := range w.procs {
		if p.rank != rank {
			p.failWaitersFor(rank)
		}
	}

	// Fail every pending collective instance: with a participant gone
	// none of them can complete.
	w.mu.Lock()
	comms := make([]*commState, 0, len(w.comms))
	for _, cs := range w.comms {
		comms = append(comms, cs)
	}
	w.mu.Unlock()
	for _, cs := range comms {
		cs.failAll(w, rank)
	}

	// Wake the dead rank's own blocked threads so they unwind.
	w.activity.AbortRank(rank)
}

// markRankDeadQuiet flags a rank dead without any failure
// propagation. Replay-only: survivors must observe the failure exactly
// at their recorded fail/abort points, not when a propagation sweep
// happens to reach them.
func (w *World) markRankDeadQuiet(rank int) {
	if rank < 0 || rank >= len(w.deadRanks) {
		return
	}
	if w.deadRanks[rank].Swap(true) {
		return
	}
	w.anyDead.Store(true)
	w.chaos.CountCrash()
}

// comm looks up a communicator's shared state.
func (w *World) comm(id CommID) (*commState, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	cs, ok := w.comms[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrInvalidComm, int(id))
	}
	return cs, nil
}

// newCommID allocates a fresh communicator id and state (used by the
// Comm_dup collective; the id is agreed by all participants through
// the collective instance).
func (w *World) newCommID(size int) CommID {
	w.mu.Lock()
	defer w.mu.Unlock()
	id := w.nextComm
	w.nextComm++
	w.comms[id] = newCommState(id, size)
	return id
}

// ensureComm registers (idempotently) a communicator under a specific
// id — the replay path of Comm_dup, where the id comes from the
// recorded membership instead of the live allocator. The allocator is
// kept above every forced id so live and forced allocations never
// collide.
func (w *World) ensureComm(id CommID, size int) CommID {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.comms[id]; !ok {
		w.comms[id] = newCommState(id, size)
	}
	if w.nextComm <= id {
		w.nextComm = id + 1
	}
	return id
}

// RunResult summarizes a completed World.Run.
type RunResult struct {
	// Makespan is the maximum final virtual clock over all threads
	// (nanoseconds).
	Makespan int64

	// Deadlocked reports whether the deadlock watchdog tripped.
	Deadlocked bool

	// Errs holds the per-rank error returned by each body (nil entries
	// for clean ranks).
	Errs []error

	// BlockedTable is, when Deadlocked, the wait-for snapshot of the
	// deadlock report: per blocked thread, sorted by (rank, tid), the
	// operation's kind, peer, tag and communicator.
	BlockedTable []sim.BlockedOp

	// DeadRanks lists ranks that crash-stopped during the run (chaos
	// fault injection), sorted.
	DeadRanks []int
}

// FirstError returns the first non-nil per-rank error, or nil.
func (r *RunResult) FirstError() error {
	for _, e := range r.Errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// Run starts one lane per rank executing body, waits for every lane
// of the run (the ranks and every thread they started, including those
// a deadlock or crash-stop left unwinding) and then ends the run's idle
// lane carriers. Each body receives its Proc and a root execution
// context (thread 0). The caller may install a Sink or adjust the
// context inside body before issuing calls.
func (w *World) Run(body func(p *Proc, ctx *sim.Ctx) error) *RunResult {
	res := &RunResult{Errs: make([]error, len(w.procs))}
	w.activity.AddThreads(len(w.procs))
	for rank := range w.procs {
		w.activity.Go(func() {
			ctx := sim.NewCtx(rank, 0, &w.costs)
			ctx.Keeper = w.keeper
			p := w.procs[rank]
			p.mainCtx = ctx
			res.Errs[rank] = body(p, ctx)
			ctx.Finish()
			w.activity.DoneThread()
		})
	}
	w.activity.WaitLanes()
	w.activity.EndCarriers()
	res.Makespan = w.keeper.Makespan()
	res.Deadlocked = w.activity.Deadlocked()
	res.DeadRanks = w.DeadRanks()
	if res.Deadlocked {
		res.BlockedTable = w.activity.StuckTable()
		w.st.blockedOps.Observe(int64(len(res.BlockedTable)))
	}
	return res
}

// Status describes a received or probed message, mirroring MPI_Status.
// Beyond the MPI fields it carries the message's stable send identity
// (sending thread and its always-on per-thread send index), which the
// instrumentation layer uses to tag match edges on call records — the
// timeline export's flow arrows.
type Status struct {
	Source int
	Tag    int
	Count  int // number of float64 elements

	// SrcTID and SendIx identify the matched message's sending thread
	// and its 1-based send index (0 = no message matched). Unlike
	// Message.SrcStamp they are populated on every run, not only under
	// schedule record/replay.
	SrcTID int
	SendIx uint64
}

// ReduceOp enumerates reduction operators.
type ReduceOp int

// Reduction operators mirroring MPI_SUM etc.
const (
	OpSum ReduceOp = iota
	OpProd
	OpMax
	OpMin
)

func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "MPI_SUM"
	case OpProd:
		return "MPI_PROD"
	case OpMax:
		return "MPI_MAX"
	case OpMin:
		return "MPI_MIN"
	}
	return fmt.Sprintf("ReduceOp(%d)", int(op))
}

// apply folds b into a element-wise.
func (op ReduceOp) apply(a, b []float64) {
	for i := range a {
		if i >= len(b) {
			break
		}
		switch op {
		case OpSum:
			a[i] += b[i]
		case OpProd:
			a[i] *= b[i]
		case OpMax:
			if b[i] > a[i] {
				a[i] = b[i]
			}
		case OpMin:
			if b[i] < a[i] {
				a[i] = b[i]
			}
		}
	}
}
