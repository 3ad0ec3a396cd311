// Package trace defines the event model shared by the instrumented
// runtime and the dynamic analyses.
//
// In the paper, Intel Pin observes the instrumented binary and feeds a
// stream of events (memory accesses on the monitored variables, lock
// operations, synchronization points, and MPI call records) to HOME's
// dynamic phase. Here the instrumented MPI wrappers and the OpenMP
// substrate emit the same stream as typed Go values into a Sink.
//
// The package is a dependency leaf: it defines only data and an
// append-only log, so every other layer (simulation kernel, substrates,
// detectors) can share the vocabulary without import cycles.
package trace

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Op enumerates the kinds of events the instrumentation emits.
type Op uint8

const (
	// OpRead and OpWrite are accesses to a monitored memory location
	// (for HOME: the monitored variables; for the ITC baseline: every
	// shared location).
	OpRead Op = iota
	OpWrite

	// OpAcquire and OpRelease are lock operations (omp critical
	// sections, omp_lock_t style locks).
	OpAcquire
	OpRelease

	// OpFork is emitted by the parent thread immediately before an omp
	// parallel region forks children; OpJoin by the parent after the
	// implicit join. Children emit OpBegin/OpEnd with the same SyncID.
	OpFork
	OpJoin
	OpBegin
	OpEnd

	// OpBarrier marks participation in a barrier instance (omp barrier
	// or the implicit barrier at the end of worksharing constructs).
	// All events with equal SyncID form one barrier episode.
	OpBarrier

	// OpMPICall is an MPI call record; Event.Call is populated.
	OpMPICall
)

var opNames = [...]string{
	OpRead: "Read", OpWrite: "Write",
	OpAcquire: "Acquire", OpRelease: "Release",
	OpFork: "Fork", OpJoin: "Join", OpBegin: "Begin", OpEnd: "End",
	OpBarrier: "Barrier", OpMPICall: "MPICall",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Loc identifies a memory location within the simulated cluster. The
// monitored variables of the paper (srctmp, tagtmp, commtmp,
// requesttmp, collectivetmp, finalizetmp) are process-global, so a
// location is a (rank, name) pair. User variables get names qualified
// by the interpreter.
type Loc struct {
	Rank int
	Name string
}

func (l Loc) String() string { return fmt.Sprintf("p%d:%s", l.Rank, l.Name) }

// Monitored variable names, exactly the checklist from the paper's MPI
// wrapper implementation (§IV-B).
const (
	VarSrc        = "srctmp"
	VarTag        = "tagtmp"
	VarComm       = "commtmp"
	VarRequest    = "requesttmp"
	VarCollective = "collectivetmp"
	VarFinalize   = "finalizetmp"

	// VarWindow is the extension checklist entry for one-sided (RMA)
	// accesses; it is not part of the paper's six-variable list.
	VarWindow = "wintmp"
)

// MonitoredVars lists the full checklist in report order.
func MonitoredVars() []string {
	return []string{VarSrc, VarTag, VarComm, VarRequest, VarCollective, VarFinalize}
}

// LockID identifies a lock within a rank. Critical sections use
// compiler-assigned names ("$critical:<label>"); omp locks use their
// variable identity.
type LockID struct {
	Rank int
	Name string
}

func (l LockID) String() string { return fmt.Sprintf("p%d:%s", l.Rank, l.Name) }

// SyncID identifies one episode of a structured synchronization
// construct (a particular dynamic instance of a parallel region fork,
// join, or barrier) within a rank.
type SyncID struct {
	Rank int
	Seq  uint64
}

// CallKind enumerates the MPI entry points the tool understands.
type CallKind int

const (
	CallNone CallKind = iota
	CallInit
	CallInitThread
	CallFinalize
	CallSend
	CallRecv
	CallIsend
	CallIrecv
	CallWait
	CallTest
	CallProbe
	CallIprobe
	CallBarrier
	CallBcast
	CallReduce
	CallAllreduce
	CallGather
	CallScatter
	CallAlltoall
	CallAllgather
	CallSendrecv
	CallWinCreate
	CallPut
	CallGet
	CallAccumulate
	CallWinFence
	CallCommRank
	CallCommSize
)

var callNames = [...]string{
	CallNone: "none", CallInit: "MPI_Init", CallInitThread: "MPI_Init_thread",
	CallFinalize: "MPI_Finalize", CallSend: "MPI_Send", CallRecv: "MPI_Recv",
	CallIsend: "MPI_Isend", CallIrecv: "MPI_Irecv", CallWait: "MPI_Wait",
	CallTest: "MPI_Test", CallProbe: "MPI_Probe", CallIprobe: "MPI_Iprobe",
	CallBarrier: "MPI_Barrier", CallBcast: "MPI_Bcast", CallReduce: "MPI_Reduce",
	CallAllreduce: "MPI_Allreduce", CallGather: "MPI_Gather",
	CallScatter: "MPI_Scatter", CallAlltoall: "MPI_Alltoall",
	CallAllgather: "MPI_Allgather", CallSendrecv: "MPI_Sendrecv",
	CallWinCreate: "MPI_Win_create", CallPut: "MPI_Put", CallGet: "MPI_Get",
	CallAccumulate: "MPI_Accumulate", CallWinFence: "MPI_Win_fence",
	CallCommRank: "MPI_Comm_rank", CallCommSize: "MPI_Comm_size",
}

func (k CallKind) String() string {
	if int(k) < len(callNames) {
		return callNames[k]
	}
	return fmt.Sprintf("CallKind(%d)", int(k))
}

// IsCollective reports whether the call kind is a collective operation
// (all ranks of the communicator must participate).
func (k CallKind) IsCollective() bool {
	switch k {
	case CallBarrier, CallBcast, CallReduce, CallAllreduce, CallGather,
		CallScatter, CallAlltoall, CallAllgather:
		return true
	}
	return false
}

// IsRMA reports whether the call kind is a one-sided window access.
func (k CallKind) IsRMA() bool {
	switch k {
	case CallPut, CallGet, CallAccumulate:
		return true
	}
	return false
}

// IsPointToPoint reports whether the call kind is a point-to-point
// communication call.
func (k CallKind) IsPointToPoint() bool {
	switch k {
	case CallSend, CallRecv, CallIsend, CallIrecv, CallSendrecv:
		return true
	}
	return false
}

// MPICall is the argument record the instrumented wrapper captures for
// one MPI call at thread level (paper §IV-B: "StartExecLog records all
// the arguments in log").
type MPICall struct {
	Kind    CallKind
	Peer    int // source for receives/probes, dest for sends; -1 if n/a
	Tag     int // -1 if n/a
	Comm    int // communicator id; -1 if n/a
	Request int // request handle id; -1 if n/a
	Level   int // requested thread level for Init_thread; -1 otherwise
	Win     int // window id for RMA calls; -1 if n/a
	Line    int // source line of the call site (0 if unknown)

	// Match-edge tags, filled in by the wrapper after the underlying
	// call completes (the record is shared between the monitored-var
	// writes and the OpMPICall event, so late tagging is visible to
	// every post-run consumer). All zero values mean "untagged": send
	// indices and collective instances start at 1.
	//
	// For sends, SendIx is the sender thread's 1-based message index —
	// (Rank, TID, SendIx) identifies the message stably across host
	// schedules. For operations that complete a receive or observe a
	// message (Recv, Wait, Test, Probe, Iprobe), MatchRank/MatchTID/
	// MatchIx name the matched message's send: the timeline export
	// draws its flow arrows from these tags. For collectives, CollSeq
	// is the per-communicator instance number the call participated
	// in, shared by all participants of that instance.
	SendIx    uint64
	MatchRank int
	MatchTID  int
	MatchIx   uint64
	CollSeq   int64
}

func (c MPICall) String() string {
	return fmt.Sprintf("%s(peer=%d,tag=%d,comm=%d,req=%d)@line %d",
		c.Kind, c.Peer, c.Tag, c.Comm, c.Request, c.Line)
}

// Event is one observation in the instrumentation stream.
//
// An event carries one payload beside its identity: a name (the
// location of OpRead/OpWrite, the lock of OpAcquire/OpRelease), a
// synchronization episode (OpFork/OpJoin/OpBegin/OpEnd/OpBarrier) or
// a call record (OpMPICall; the monitored-variable writes of a call
// share its record too). Locations, locks and episodes are named
// within the emitting rank, so Loc, Lock and Sync build them from the
// event's own Rank.
type Event struct {
	Seq  uint64 // global sequence number, assigned by the Log
	Rank int    // MPI rank (simulated process)
	TID  int    // OpenMP thread id within the rank (0 = master)
	Time int64  // virtual time in nanoseconds at emission
	Op   Op

	Name    string   // location (OpRead/OpWrite) or lock (OpAcquire/OpRelease)
	SyncSeq uint64   // episode within the rank (OpFork/OpJoin/OpBegin/OpEnd/OpBarrier)
	Call    *MPICall // for OpMPICall
}

// Loc returns the location an OpRead or OpWrite accesses, and the
// zero Loc for any other op.
func (e Event) Loc() Loc {
	if e.Op != OpRead && e.Op != OpWrite {
		return Loc{}
	}
	return Loc{Rank: e.Rank, Name: e.Name}
}

// Lock returns the lock an OpAcquire or OpRelease names, and the zero
// LockID for any other op.
func (e Event) Lock() LockID {
	if e.Op != OpAcquire && e.Op != OpRelease {
		return LockID{}
	}
	return LockID{Rank: e.Rank, Name: e.Name}
}

// Sync returns the episode a fork, join, begin, end or barrier event
// belongs to, and the zero SyncID for any other op.
func (e Event) Sync() SyncID {
	if !e.Op.isSync() {
		return SyncID{}
	}
	return SyncID{Rank: e.Rank, Seq: e.SyncSeq}
}

// isSync reports whether the op marks a synchronization episode.
func (o Op) isSync() bool { return o >= OpFork && o <= OpBarrier }

func (e Event) String() string {
	switch e.Op {
	case OpRead, OpWrite:
		return fmt.Sprintf("#%d p%d.t%d %s %s", e.Seq, e.Rank, e.TID, e.Op, e.Loc())
	case OpAcquire, OpRelease:
		return fmt.Sprintf("#%d p%d.t%d %s %s", e.Seq, e.Rank, e.TID, e.Op, e.Lock())
	case OpMPICall:
		return fmt.Sprintf("#%d p%d.t%d %s", e.Seq, e.Rank, e.TID, e.Call)
	default:
		s := e.Sync()
		return fmt.Sprintf("#%d p%d.t%d %s sync=%d/%d", e.Seq, e.Rank, e.TID, e.Op, s.Rank, s.Seq)
	}
}

// Sink consumes instrumentation events. Implementations must be safe
// for concurrent use; the substrates emit from many goroutines.
type Sink interface {
	Emit(Event)
}

// Log is an append-only, thread-safe event log assigning global
// sequence numbers. The sequence order is the observed interleaving the
// dynamic analyses run over.
//
// Emit takes no lock: it stamps Seq with one atomic add and stores the
// event in slot Seq, so Seq order is the order of the adds. An emission
// that host-happens-before another therefore gets the smaller Seq; the
// detector's clock replay relies on this.
//
// Slot s lives in a chunk that is a pure function of s. Chunks are
// allocated once and never copied or regrown: capacity starts at
// firstChunk events, so a short run's log stays small, and doubles up
// to maxChunk, so a long run's log costs one allocation per maxChunk
// events. The chunk directory is published through an atomic pointer
// and grows under mu only when an emitter's slot falls in a chunk that
// does not exist yet.
//
// Chunks, Events and Len read a log whose emitters have finished: a
// slot whose Seq is taken may not be stored yet while an Emit is still
// running.
type Log struct {
	n   atomic.Uint64
	dir atomic.Pointer[chunkDir]
	mu  sync.Mutex // serializes chunk allocation and directory growth
}

// chunkDir holds chunk i in slot i once it is allocated. A directory
// is replaced, never resized, when a chunk index outgrows it.
type chunkDir []atomic.Pointer[[]Event]

// Chunk capacities of a Log, in events: firstChunk doubling to
// maxChunk. The growChunks growing chunks, 64 up to 2048 events, hold
// the first growEvents slots; every later chunk holds maxChunk.
const (
	firstChunk = 64
	growChunks = 6
	maxChunk   = firstChunk << growChunks
	growEvents = maxChunk - firstChunk

	// minDirSlots is the first directory's size: enough for every
	// growing chunk and ten full ones before the first regrowth.
	minDirSlots = 16
)

// chunkOf returns the chunk index and offset of slot s.
func chunkOf(s uint64) (int, int) {
	if s < growEvents {
		i := bits.Len64(s/firstChunk+1) - 1
		return i, int(s - firstChunk*(1<<i-1))
	}
	s -= growEvents
	return growChunks + int(s/maxChunk), int(s % maxChunk)
}

// chunkCap returns the capacity of chunk i.
func chunkCap(i int) int {
	if i < growChunks {
		return firstChunk << i
	}
	return maxChunk
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Emit appends the event, stamping its sequence number.
func (l *Log) Emit(e Event) {
	e.Seq = l.n.Add(1) - 1
	i, off := chunkOf(e.Seq)
	if d := l.dir.Load(); d != nil && i < len(*d) {
		if c := (*d)[i].Load(); c != nil {
			(*c)[off] = e
			return
		}
	}
	(*l.chunk(i))[off] = e
}

// chunk returns chunk i, allocating it, and growing the directory,
// if no emitter has yet.
func (l *Log) chunk(i int) *[]Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.dir.Load()
	if d == nil || i >= len(*d) {
		size := minDirSlots
		if d != nil {
			size = 2 * len(*d)
		}
		grown := make(chunkDir, max(size, i+1))
		if d != nil {
			for j := range *d {
				grown[j].Store((*d)[j].Load())
			}
		}
		l.dir.Store(&grown)
		d = &grown
	}
	c := (*d)[i].Load()
	if c == nil {
		chunk := make([]Event, chunkCap(i))
		c = &chunk
		(*d)[i].Store(c)
	}
	return c
}

// Chunks returns the log contents in sequence order as views of the
// log's own chunks, the last one cut at Len: nothing is copied, and an
// event keeps its address for as long as the log lives. The caller
// must not write through the views.
func (l *Log) Chunks() [][]Event {
	n := l.n.Load()
	if n == 0 {
		return nil
	}
	last, off := chunkOf(n - 1)
	d := *l.dir.Load()
	out := make([][]Event, last+1)
	for i := range out {
		out[i] = *d[i].Load()
	}
	out[last] = out[last][:off+1]
	return out
}

// Events returns a copy of the log contents in sequence order.
func (l *Log) Events() []Event {
	out := make([]Event, 0, l.n.Load())
	for _, c := range l.Chunks() {
		out = append(out, c...)
	}
	return out
}

// Len returns the number of events recorded.
func (l *Log) Len() int { return int(l.n.Load()) }

// TeeSink duplicates events to multiple sinks.
type TeeSink []Sink

// Emit forwards the event to every sink in order.
func (t TeeSink) Emit(e Event) {
	for _, s := range t {
		s.Emit(e)
	}
}
