package sim

import (
	"fmt"
	"sort"
	"sync"
)

// Activity tracks how many simulated threads exist and how many are
// blocked inside the message-passing runtime. When every live thread
// is blocked, no future event can unblock any of them (message
// delivery happens synchronously at send time in this runtime), so the
// state is a global deadlock; Activity then trips a latch that all
// blocked operations observe.
//
// Protocol:
//   - AddThreads/DoneThread bracket thread lifetimes (the MPI process
//     main thread and every OpenMP worker).
//   - A thread about to wait calls Block and selects on both its wake
//     channel and the returned deadlock channel.
//   - Whoever satisfies the wait (message sender, barrier releaser)
//     calls Unblock *before* signalling the wake channel, so the
//     blocked count never over-reports.
//   - A woken thread does not decrement; its waker already did. A
//     thread abandoning a wait for another reason calls Unblock itself.
//
// Every transition into an all-blocked state goes through BlockOp or
// DoneThread, and both check for it, so detection is exact and
// immediate with no timer. A thread pausing for an injected chaos
// stall or send jitter simply sleeps: it is running, not blocked.
//
// Per-rank aborts (AbortRank) serve the crash-stop fault: when a rank
// crash-stops, its blocked threads must wake and unwind even though
// the world keeps running. The channel BlockOp returns is a per-rank
// latch that closes on either the global deadlock trip or the rank's
// abort; woken sites consult Deadlocked to tell the two apart.
type Activity struct {
	mu      sync.Mutex
	active  int
	blocked int
	dead    chan struct{}
	tripped bool

	// ranks holds the per-rank deadlock-or-abort latches; aborted
	// records ranks whose latch closed by AbortRank.
	ranks   map[int]*rankLatch
	aborted map[int]bool

	// stuck describes each currently blocked operation, keyed by a
	// registration token. Entries left behind when the latch trips
	// form the wait-for snapshot of the deadlock report.
	stuck   map[int64]BlockedOp
	nextTok int64
}

type rankLatch struct {
	ch     chan struct{}
	closed bool
}

// BlockedOp describes one operation blocked inside the runtime: who
// is waiting (rank, thread) and what for. Op/Peer/Tag/Comm carry the
// structured MPI selector when the blocked call is an MPI operation
// (NoArg for fields that do not apply); Detail is the human-readable
// wait-for description every blocked site provides.
type BlockedOp struct {
	Rank int
	TID  int
	// Op names the blocked call ("MPI_Wait", "MPI_Probe", ...); empty
	// for unstructured registrations (omp constructs).
	Op   string
	Peer int
	Tag  int
	Comm int
	// Detail is the free-form wait-for description.
	Detail string
}

// NoArg marks a BlockedOp selector field that does not apply to the
// operation (e.g. the peer of a collective).
const NoArg = -2

// String renders the blocked operation in the established wait-for
// report form.
func (o BlockedOp) String() string {
	return fmt.Sprintf("rank %d thread %d blocked in %s", o.Rank, o.TID, o.Detail)
}

// NewActivity returns an Activity with no registered threads.
func NewActivity() *Activity {
	return &Activity{
		dead:    make(chan struct{}),
		ranks:   make(map[int]*rankLatch),
		aborted: make(map[int]bool),
		stuck:   make(map[int64]BlockedOp),
	}
}

// AddThreads registers n newly started threads.
func (a *Activity) AddThreads(n int) {
	a.mu.Lock()
	a.active += n
	a.mu.Unlock()
}

// DoneThread unregisters a finished thread. If the remaining threads
// are all blocked, that is a deadlock (nobody can make progress).
func (a *Activity) DoneThread() {
	a.mu.Lock()
	a.active--
	a.checkLocked()
	a.mu.Unlock()
}

// BlockDesc marks the calling thread as blocked and returns the
// deadlock latch channel to select on alongside the thread's wake
// channel. desc is the wait-for description for deadlock reports; the
// returned release function removes it. A thread that wakes normally
// calls it, while one abandoned by the deadlock trip leaves its entry
// in place so StuckTable can report what everybody was waiting for.
func (a *Activity) BlockDesc(rank, tid int, desc string) (<-chan struct{}, func()) {
	return a.BlockOp(BlockedOp{Rank: rank, TID: tid, Peer: NoArg, Tag: NoArg, Comm: NoArg, Detail: desc})
}

// BlockOp is BlockDesc with a structured wait-for record, so deadlock
// reports can tabulate the blocked call's kind, peer, tag and
// communicator rather than just a description string. The returned
// channel closes on global deadlock or, when op.Rank >= 0, when that
// rank is aborted (crash-stop); woken sites use Deadlocked to
// distinguish.
func (a *Activity) BlockOp(op BlockedOp) (<-chan struct{}, func()) {
	a.mu.Lock()
	a.blocked++
	var release func()
	if op.Detail != "" {
		tok := a.nextTok
		a.nextTok++
		a.stuck[tok] = op
		release = func() {
			a.mu.Lock()
			delete(a.stuck, tok)
			a.mu.Unlock()
		}
	} else {
		release = func() {}
	}
	a.checkLocked()
	d := a.dead
	if op.Rank >= 0 {
		d = a.rankLatchLocked(op.Rank).ch
	}
	a.mu.Unlock()
	return d, release
}

// rankLatchLocked returns (creating if needed) the rank's latch; new
// latches start closed if the watchdog already tripped or the rank is
// already aborted.
func (a *Activity) rankLatchLocked(rank int) *rankLatch {
	rl, ok := a.ranks[rank]
	if !ok {
		rl = &rankLatch{ch: make(chan struct{})}
		if a.tripped || a.aborted[rank] {
			rl.closed = true
			close(rl.ch)
		}
		a.ranks[rank] = rl
	}
	return rl
}

// AbortRank closes the rank's latch: every thread of that rank
// blocked through BlockOp wakes and (seeing Deadlocked false) unwinds
// with its own cleanup. Used by the crash-stop fault.
func (a *Activity) AbortRank(rank int) {
	a.mu.Lock()
	a.aborted[rank] = true
	rl := a.rankLatchLocked(rank)
	if !rl.closed {
		rl.closed = true
		close(rl.ch)
	}
	a.mu.Unlock()
}

// RankAborted reports whether AbortRank was called for the rank.
func (a *Activity) RankAborted(rank int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.aborted[rank]
}

// StuckTable returns the structured wait-for snapshot, sorted by
// (rank, tid) for stable reports.
func (a *Activity) StuckTable() []BlockedOp {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]BlockedOp, 0, len(a.stuck))
	for _, op := range a.stuck {
		out = append(out, op)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		if out[i].TID != out[j].TID {
			return out[i].TID < out[j].TID
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}

// Unblock marks one blocked thread as runnable again. Callers invoke
// it before signalling the thread's wake channel.
func (a *Activity) Unblock() {
	a.mu.Lock()
	a.blocked--
	a.mu.Unlock()
}

// Deadlocked reports whether the deadlock latch has tripped.
func (a *Activity) Deadlocked() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tripped
}

// Dead returns the latch channel (closed once deadlock is detected).
func (a *Activity) Dead() <-chan struct{} { return a.dead }

func (a *Activity) checkLocked() {
	if a.tripped || a.active <= 0 || a.blocked < a.active {
		return
	}
	a.tripped = true
	close(a.dead)
	for _, rl := range a.ranks {
		if !rl.closed {
			rl.closed = true
			close(rl.ch)
		}
	}
}

// Counts returns the current (active, blocked) thread counts; useful
// in tests and diagnostics.
func (a *Activity) Counts() (active, blocked int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active, a.blocked
}
