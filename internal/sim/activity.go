package sim

import (
	"fmt"
	"sort"
	"sync"
)

// Activity tracks how many simulated threads (lanes) exist and how
// many are parked inside the runtime. When every live lane is parked,
// no future event can wake any of them (message delivery happens
// synchronously at send time in this runtime), so the state is a
// global deadlock and every parked lane wakes with Deadlock.
//
// Protocol:
//   - AddThreads/DoneThread bracket lane lifetimes (the MPI process
//     main thread, every OpenMP worker and every pthread). Each lane
//     runs on a carrier goroutine that Go hands it (carrier.go), and
//     WaitLanes returns once every lane has finished.
//   - A lane about to wait puts a Waiter in its site's own queue,
//     under the site's lock, and then calls Park. Park blocks until
//     another lane calls Unpark on that Waiter, the world deadlocks,
//     or the lane's rank aborts, and reports which of the three ended
//     the wait.
//   - A waker takes the Waiter out of the site's queue, under the same
//     lock, and calls Unpark. An Unpark may come before its Park; the
//     Park then returns at once and never counts as blocked.
//
// The blocked count is the set of lanes inside Park; no site adjusts
// it. Every transition into an all-parked state goes through Park or
// DoneThread, both of which check for it: detection is exact and
// immediate, with no timer.
// A lane pausing for an injected chaos stall or send jitter simply
// sleeps: it is running, not parked.
//
// AbortRank serves the crash-stop fault: it withdraws every parked
// lane of the rank, which then unwinds with its own cleanup even
// though the world keeps running. A withdrawn Waiter refuses later
// Unparks, so each site decides from its own queue, under its own
// lock, who owns the wake-versus-abort race.
type Activity struct {
	mu      sync.Mutex
	active  int
	tripped bool

	// noLanes is signalled when active falls to zero (WaitLanes).
	noLanes *sync.Cond

	// aborted records ranks withdrawn by AbortRank.
	aborted map[int]bool

	// parked holds the lanes now inside Park: its size is the blocked
	// count. stuck keeps the ops of lanes the deadlock ended: with the
	// parked ones, they form the wait-for snapshot of the deadlock
	// report.
	parked map[*Waiter]struct{}
	stuck  []BlockedOp

	// cmu guards the lane carriers (carrier.go): the idle ones, most
	// recently idled last, and whether EndCarriers has run.
	cmu   sync.Mutex
	idle  []carrier
	ended bool
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

// Desc is a BlockedOp with no MPI selector: the wait-for record of an
// OpenMP construct or a pthread join.
func Desc(rank, tid int, detail string) BlockedOp {
	return BlockedOp{Rank: rank, TID: tid, Peer: NoArg, Tag: NoArg, Comm: NoArg, Detail: detail}
}

// Outcome says what ended a Park.
type Outcome uint8

const (
	// Unparked: another lane called Unpark on the Waiter.
	Unparked Outcome = iota
	// Deadlock: every live lane was parked.
	Deadlock
	// Aborted: the lane's rank crash-stopped (AbortRank).
	Aborted
)

// Wake is Park's report.
type Wake struct {
	How Outcome
	// Claimed reports that an Unpark claimed the lane: always when How
	// is Unparked, and for Aborted when the Unpark came before the
	// abort. Payload is that Unpark's payload.
	Claimed bool
	Payload any
}

// Waiter is one wait's parking slot. A site queues it under its own
// lock before Park and wakers pass it to Unpark. The zero value is
// ready to use; a Waiter serves one Park.
type Waiter struct {
	// PastAbort keeps the wait going past its rank's abort: only an
	// Unpark or a deadlock ends it.
	PastAbort bool

	// Guarded by Activity.mu.
	state   waitState
	claimed bool
	payload any
	how     Outcome
	op      BlockedOp
	wake    chan struct{}
}

type waitState uint8

const (
	waitIdle   waitState = iota // not yet parked
	waitParked                  // inside Park, counted as blocked
	waitWoken                   // Park's outcome is decided
)

// NewActivity returns an Activity with no registered threads.
func NewActivity() *Activity {
	a := &Activity{
		aborted: make(map[int]bool),
		parked:  make(map[*Waiter]struct{}),
	}
	a.noLanes = sync.NewCond(&a.mu)
	return a
}

// AddThreads registers n newly started threads.
func (a *Activity) AddThreads(n int) {
	a.mu.Lock()
	a.active += n
	a.mu.Unlock()
}

// DoneThread unregisters a finished thread. If the remaining threads
// are all parked, that is a deadlock (nobody can make progress).
func (a *Activity) DoneThread() {
	a.mu.Lock()
	a.active--
	a.checkLocked()
	if a.active == 0 {
		a.noLanes.Broadcast()
	}
	a.mu.Unlock()
}

// WaitLanes blocks until every registered thread has called
// DoneThread: after it returns, no lane runs or emits. Lanes a deadlock
// or an abort woke still unwind first, and a lane that parks once
// every other lane has finished trips the deadlock and unwinds too.
func (a *Activity) WaitLanes() {
	a.mu.Lock()
	for a.active > 0 {
		a.noLanes.Wait()
	}
	a.mu.Unlock()
}

// Park blocks the calling lane on w until another lane calls
// Unpark(w, ...), every live lane is parked, or op.Rank aborts (unless
// w.PastAbort). op is the lane's entry in the wait-for table while it
// waits; a lane the deadlock ends leaves it there for the report.
//
// An abort wins over an Unpark whose lane has not yet returned: Park
// then reports Aborted with Claimed set, and the site applies its own
// policy to the claimed wake.
func (a *Activity) Park(w *Waiter, op BlockedOp) Wake {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w.state != waitIdle {
		panic("sim: Waiter parked twice")
	}
	w.op = op
	switch {
	case w.claimed:
		w.state, w.how = waitWoken, Unparked
	case a.tripped:
		w.state, w.how = waitWoken, Deadlock
		a.stuck = append(a.stuck, op)
	case !w.PastAbort && a.aborted[op.Rank]:
		w.state, w.how = waitWoken, Aborted
	default:
		w.state = waitParked
		w.wake = make(chan struct{})
		a.parked[w] = struct{}{}
		a.checkLocked()
		a.mu.Unlock()
		<-w.wake
		a.mu.Lock()
	}
	if w.how == Unparked && !w.PastAbort && a.aborted[op.Rank] {
		w.how = Aborted
	}
	return Wake{How: w.how, Claimed: w.claimed, Payload: w.payload}
}

// Unpark claims w's lane with payload and wakes it if it is parked.
// It reports false, and does nothing, when the lane was already
// claimed or Park already ended the wait (a withdrawn lane).
func (a *Activity) Unpark(w *Waiter, payload any) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w.claimed || w.state == waitWoken {
		return false
	}
	w.claimed, w.payload = true, payload
	if w.state == waitParked {
		a.wakeLocked(w, Unparked)
	}
	return true
}

// wakeLocked ends a parked lane's wait with the given outcome.
func (a *Activity) wakeLocked(w *Waiter, how Outcome) {
	w.state, w.how = waitWoken, how
	delete(a.parked, w)
	close(w.wake)
}

// AbortRank withdraws every parked lane of the rank, and every later
// Park of it, with Aborted (crash-stop): each unwinds with its own
// cleanup while the world keeps running.
func (a *Activity) AbortRank(rank int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.aborted[rank] = true
	for w := range a.parked {
		if w.op.Rank == rank && !w.PastAbort {
			a.wakeLocked(w, Aborted)
		}
	}
}

// StuckTable returns the structured wait-for snapshot, sorted by
// (rank, tid) for stable reports.
func (a *Activity) StuckTable() []BlockedOp {
	a.mu.Lock()
	out := make([]BlockedOp, 0, len(a.parked)+len(a.stuck))
	for w := range a.parked {
		out = append(out, w.op)
	}
	out = append(out, a.stuck...)
	a.mu.Unlock()
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

// Deadlocked reports whether the deadlock watchdog has tripped.
func (a *Activity) Deadlocked() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tripped
}

func (a *Activity) checkLocked() {
	if a.tripped || a.active <= 0 || len(a.parked) < a.active {
		return
	}
	a.tripped = true
	for w := range a.parked {
		a.stuck = append(a.stuck, w.op)
		a.wakeLocked(w, Deadlock)
	}
}

// Counts returns the current (active, blocked) thread counts; useful
// in tests and diagnostics.
func (a *Activity) Counts() (active, blocked int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active, len(a.parked)
}
