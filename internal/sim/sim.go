// Package sim is the simulation kernel: execution contexts, virtual
// time, and the calibrated cost model.
//
// The paper evaluates HOME on an Amazon EC2 cluster and reports
// wall-clock execution times and overheads. This reproduction replaces
// wall-clock with deterministic virtual time: every simulated thread
// carries a clock (nanoseconds), computation advances it, messages add
// latency, collectives synchronize participants to the maximum, and
// each checking tool charges its calibrated per-event costs. Execution
// time of a run is the maximum clock over all threads, which mirrors
// the makespan a real cluster would report.
package sim

import (
	"sync"

	"home/internal/trace"
	"home/internal/vclock"
)

// CostModel holds the virtual-time cost parameters. All values are in
// nanoseconds of virtual time. Defaults are calibrated so the relative
// overheads of the reproduced tools land in the bands the paper
// reports (HOME 16-45%, Marmot 15-56%, ITC up to ~200%); see
// EXPERIMENTS.md for the calibration rationale.
type CostModel struct {
	// ComputeNsPerUnit converts abstract workload "compute units"
	// (e.g. one cell update in the NPB-like kernels) to time.
	ComputeNsPerUnit int64

	// MsgLatencyNs is the base one-way latency of a point-to-point
	// message; MsgNsPerByte adds a bandwidth term.
	MsgLatencyNs int64
	MsgNsPerByte int64

	// MPICallNs is the fixed software cost of entering any MPI routine.
	MPICallNs int64

	// CollectiveBaseNs and CollectiveNsPerRank model a collective as a
	// synchronizing operation costing base + perRank*log2(P).
	CollectiveBaseNs    int64
	CollectiveNsPerRank int64

	// EmitNs is the cost charged to the emitting thread per
	// instrumentation event (the tool's probe cost). Zero for
	// uninstrumented (Base) runs.
	EmitNs int64

	// AnalysisNsPerEvent models the lockset/vector-clock bookkeeping a
	// tool performs per observed event. It is charged together with
	// EmitNs at emission, modelling the paper's on-the-fly HOME, even
	// though the reproduction analyzes the recorded log after the run.
	AnalysisNsPerEvent int64
}

// DefaultCostModel returns the calibrated baseline model used by the
// experiments (no instrumentation costs).
func DefaultCostModel() CostModel {
	return CostModel{
		ComputeNsPerUnit:    40,
		MsgLatencyNs:        25_000,
		MsgNsPerByte:        1,
		MPICallNs:           800,
		CollectiveBaseNs:    20_000,
		CollectiveNsPerRank: 2_500,
	}
}

// MaxThreadsPerRank bounds the OpenMP threads per simulated process,
// used only to derive dense global thread identities.
const MaxThreadsPerRank = 1024

// GID maps a (rank, tid) pair to the global thread identity used by
// the vector-clock machinery.
func GID(rank, tid int) vclock.TID {
	return vclock.TID(rank)*MaxThreadsPerRank + vclock.TID(tid)
}

// RankTID is the inverse of GID.
func RankTID(g vclock.TID) (rank, tid int) {
	return int(g / MaxThreadsPerRank), int(g % MaxThreadsPerRank)
}

// Ctx is the per-thread execution context: identity, virtual clock
// and the instrumentation sink. A Ctx is owned by exactly one
// goroutine; it is not safe for concurrent use.
type Ctx struct {
	Rank int
	TID  int

	// Now is the thread's virtual clock in nanoseconds.
	Now int64

	// Sink receives instrumentation events; nil means uninstrumented.
	Sink trace.Sink

	// Costs is the active cost model (shared, read-only during a run).
	Costs *CostModel

	// Keeper, when non-nil, observes the final clock at Finish.
	Keeper *TimeKeeper

	// ChaosSeq counts the fault-injection decision points this thread
	// has passed. The chaos layer keys its deterministic rolls on it,
	// so verdicts depend on the thread's own progress, never on the
	// host schedule.
	ChaosSeq uint64

	// SchedSeq counts the schedule points this thread has passed:
	// every site where a nondeterministic resolution can be observed
	// (failure observations, message-match resolutions, polls).
	// Record/replay (internal/sched) keys its records on it. It is a
	// separate counter from ChaosSeq so that attaching a recorder
	// never shifts the fault decisions of the underlying chaos run.
	SchedSeq uint64

	// MsgSeq counts the point-to-point messages this thread has sent.
	// Unlike SchedSeq it is always on, so (rank, tid, MsgSeq) is a
	// schedule-stable message identity usable for match-edge tagging
	// on instrumentation events (the timeline export's flow arrows).
	MsgSeq uint64

	// ConstructSeq counts the OpenMP constructs this thread has
	// encountered across all its teams. Single-election and loop-chunk
	// schedule records are keyed on it, so they stay unique when the
	// thread runs several parallel regions.
	ConstructSeq uint64

	// LastCollSeq is the per-communicator instance number of the most
	// recent collective this thread completed. The collective runtime
	// stores it here (the Ctx is thread-owned) so the interpreter can
	// tag the call's instrumentation record without widening every
	// collective's signature.
	LastCollSeq int64
}

// NextChaosSeq advances and returns the thread's fault-decision index.
func (c *Ctx) NextChaosSeq() uint64 {
	c.ChaosSeq++
	return c.ChaosSeq
}

// NextSchedSeq advances and returns the thread's schedule-point index
// (first value 1, so 0 can mean "no point" in schedule records).
func (c *Ctx) NextSchedSeq() uint64 {
	c.SchedSeq++
	return c.SchedSeq
}

// NextMsgSeq advances and returns the thread's send index (first value
// 1, so 0 can mean "untagged" in event records).
func (c *Ctx) NextMsgSeq() uint64 {
	c.MsgSeq++
	return c.MsgSeq
}

// NewCtx builds a context for (rank, tid).
func NewCtx(rank, tid int, costs *CostModel) *Ctx {
	return &Ctx{Rank: rank, TID: tid, Costs: costs}
}

// GID returns the global thread identity of the context.
func (c *Ctx) GID() vclock.TID { return GID(c.Rank, c.TID) }

// Advance moves the virtual clock forward by ns (negative values are
// ignored).
func (c *Ctx) Advance(ns int64) {
	if ns > 0 {
		c.Now += ns
	}
}

// SyncTo raises the clock to t if t is later (used when an operation
// completes at a time determined by another thread, e.g. a message
// arrival or a barrier release).
func (c *Ctx) SyncTo(t int64) {
	if t > c.Now {
		c.Now = t
	}
}

// Compute charges the cost of `units` abstract compute units.
func (c *Ctx) Compute(units int64) {
	if units > 0 {
		c.Advance(units * c.Costs.ComputeNsPerUnit)
	}
}

// Instrumented reports whether the context has an event sink installed.
func (c *Ctx) Instrumented() bool { return c.Sink != nil }

// Emit sends an instrumentation event, stamping identity and time, and
// charges the probe + analysis cost to the emitting thread. It is a
// no-op without a sink, so uninstrumented runs pay nothing.
func (c *Ctx) Emit(e trace.Event) {
	if c.Sink == nil {
		return
	}
	c.Advance(c.Costs.EmitNs + c.Costs.AnalysisNsPerEvent)
	e.Rank = c.Rank
	e.TID = c.TID
	e.Time = c.Now
	c.Sink.Emit(e)
}

// EmitAccess is a convenience for read/write events on a location.
func (c *Ctx) EmitAccess(op trace.Op, name string) {
	c.Emit(trace.Event{Op: op, Name: name})
}

// Child derives a context for an OpenMP worker thread forked from c:
// it inherits the clock, cost model, sink and keeper.
func (c *Ctx) Child(tid int) *Ctx {
	return &Ctx{
		Rank:   c.Rank,
		TID:    tid,
		Now:    c.Now,
		Sink:   c.Sink,
		Costs:  c.Costs,
		Keeper: c.Keeper,
	}
}

// Finish reports the thread's final clock to the keeper, if any.
func (c *Ctx) Finish() {
	if c.Keeper != nil {
		c.Keeper.Observe(c.Now)
	}
}

// TimeKeeper accumulates the makespan of a run: the maximum virtual
// clock observed across all threads. Safe for concurrent use.
type TimeKeeper struct {
	mu  sync.Mutex
	max int64
}

// Observe records a final thread clock.
func (k *TimeKeeper) Observe(now int64) {
	k.mu.Lock()
	if now > k.max {
		k.max = now
	}
	k.mu.Unlock()
}

// Makespan returns the maximum observed clock.
func (k *TimeKeeper) Makespan() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.max
}

// Log2Ceil returns ceil(log2(n)) for n >= 1; collectives use it for
// tree-depth cost terms.
func Log2Ceil(n int) int64 {
	if n <= 1 {
		return 0
	}
	d := int64(0)
	for p := 1; p < n; p <<= 1 {
		d++
	}
	return d
}
