package omp

import (
	"fmt"
	"sync"

	"home/internal/sim"
	"home/internal/trace"
)

// Schedule selects the loop iteration-to-thread mapping of a For
// construct, mirroring OpenMP's schedule clause.
type Schedule int

const (
	// ScheduleStatic partitions iterations into contiguous blocks
	// (chunk 0 means one block per thread).
	ScheduleStatic Schedule = iota
	// ScheduleDynamic hands out chunks first-come-first-served.
	ScheduleDynamic
	// ScheduleGuided hands out shrinking chunks first-come-first-served.
	ScheduleGuided
)

func (s Schedule) String() string {
	switch s {
	case ScheduleStatic:
		return "static"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleGuided:
		return "guided"
	}
	return fmt.Sprintf("Schedule(%d)", int(s))
}

// Barrier synchronizes all team members: nobody proceeds until
// everyone arrives, and all clocks advance to the latest arrival.
func (m *Member) Barrier() error {
	ord, _ := m.nextOrdinal()
	return m.barrierAt(ord)
}

// barrierAt implements the rendezvous for a given construct ordinal.
func (m *Member) barrierAt(ord uint64) error {
	t := m.team
	t.rt.chaos.StallThread(m.Ctx)
	// Whether a member completes the rendezvous or is torn out of it by
	// a crash-stop abort is host-racy: record/replay forces the
	// recorded outcome at this schedule point.
	qa := t.rt.schedPoint(m.Ctx)
	if t.rt.chaos.ReplayAbort(m.Ctx.Rank, m.TID, qa) {
		// A recorded abort at a barrier point means the thread reached
		// the rendezvous and was torn out while waiting (the only path
		// that observes one), so it had already allocated the construct
		// state and emitted its barrier event. Replicate both: sync-id
		// numbering and the trace must not depend on whether the abort
		// is native or forced.
		if t.size > 1 {
			st := t.state(ord)
			m.Ctx.Emit(trace.Event{Op: trace.OpBarrier, SyncSeq: st.sync.Seq})
		}
		return ErrRankAborted
	}
	if t.size == 1 {
		m.Ctx.Advance(barrierCostNs)
		return nil
	}
	st := t.state(ord)

	t.mu.Lock()
	st.arrived++
	if m.Ctx.Now > st.maxT {
		st.maxT = m.Ctx.Now
	}
	m.Ctx.Emit(trace.Event{Op: trace.OpBarrier, SyncSeq: st.sync.Seq})
	if st.arrived == t.size {
		st.release = st.maxT + barrierCostNs
		for _, w := range st.waiters {
			t.rt.activity.Unpark(w, nil)
		}
		delete(t.constructs, ord)
		t.mu.Unlock()
		m.passBarrier(st.release)
		return nil
	}
	w := new(sim.Waiter)
	st.waiters = append(st.waiters, w)
	t.mu.Unlock()

	switch t.rt.activity.Park(w, sim.Desc(m.Ctx.Rank, m.TID, "an omp barrier (waiting for the team)")).How {
	case sim.Deadlock:
		return ErrDeadlock
	case sim.Aborted:
		// Rank abort (crash-stop): withdraw from the rendezvous unless
		// it already completed (the releaser's Unpark of our withdrawn
		// waiter is refused). A completed barrier counted our
		// membership — the release time other members synchronized to
		// includes our clock — so take the completion the crash raced
		// against: the recorded run must reflect what actually
		// happened, or a replay (which forces the abort before
		// arriving) would strand the rest of the team at a rendezvous
		// that can no longer fill.
		t.mu.Lock()
		completed := st.arrived == t.size
		if !completed {
			st.arrived--
		}
		t.mu.Unlock()
		if !completed {
			t.rt.chaos.ObserveAbort(m.Ctx.Rank, m.TID, qa)
			return ErrRankAborted
		}
	}
	m.passBarrier(st.release)
	return nil
}

// passBarrier moves the member's clock to the barrier's release time.
func (m *Member) passBarrier(release int64) {
	m.team.rt.st.barrierWait.Observe(release - m.Ctx.Now)
	m.Ctx.SyncTo(release)
}

// For executes the iteration range [lo, hi) distributed over the team
// per the schedule, then joins at the implicit barrier (OpenMP's
// `#pragma omp for`). Iteration cost is whatever body charges to the
// member context.
func (m *Member) For(lo, hi int64, sched Schedule, chunk int64, body func(i int64) error) error {
	if chunk <= 0 {
		chunk = 1
	}
	n := hi - lo
	var err error
	switch {
	case n <= 0:
		// empty range, straight to the barrier
	case sched == ScheduleStatic:
		err = m.forStatic(lo, hi, chunk, body)
	default:
		err = m.forDynamic(lo, hi, sched, chunk, body)
	}
	if berr := m.Barrier(); err == nil {
		err = berr
	}
	return err
}

// forStatic runs the blocked/cyclic static schedule.
func (m *Member) forStatic(lo, hi, chunk int64, body func(i int64) error) error {
	size := int64(m.team.size)
	n := hi - lo
	if chunk == 1 && n >= size {
		// Default static schedule: one contiguous block per thread.
		per := n / size
		rem := n % size
		start := lo + int64(m.TID)*per + min64(int64(m.TID), rem)
		count := per
		if int64(m.TID) < rem {
			count++
		}
		for i := start; i < start+count; i++ {
			if err := body(i); err != nil {
				return err
			}
		}
		return nil
	}
	// static,chunk: round-robin chunks.
	for base := lo + int64(m.TID)*chunk; base < hi; base += size * chunk {
		end := min64(base+chunk, hi)
		for i := base; i < end; i++ {
			if err := body(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// forDynamic runs the dynamic and guided schedules from a shared
// iteration counter.
func (m *Member) forDynamic(lo, hi int64, sched Schedule, chunk int64, body func(i int64) error) error {
	t := m.team
	ord, key := m.nextOrdinal()
	st := t.state(ord) // keep sync-id allocation aligned with record mode
	if t.rt.chaos.Replaying() {
		// Which chunks a thread claimed off the shared counter is
		// host-racy: replay this thread's recorded claim sequence, keyed
		// by (construct key, claim index), ignoring the counter.
		for k := uint64(0); ; k++ {
			base, end, ok := t.rt.chaos.ReplayChunk(m.Ctx.Rank, m.TID, chunkKey(key, k))
			if !ok {
				return nil
			}
			for i := base; i < end; i++ {
				if err := body(i); err != nil {
					return err
				}
			}
		}
	}
	t.mu.Lock()
	if st.counter < 0 {
		st.counter = lo
	}
	t.mu.Unlock()
	for k := uint64(0); ; k++ {
		t.mu.Lock()
		base := st.counter
		if base >= hi {
			t.mu.Unlock()
			return nil
		}
		c := chunk
		if sched == ScheduleGuided {
			// Guided: chunk proportional to remaining work.
			if g := (hi - base) / int64(2*t.size); g > c {
				c = g
			}
		}
		end := min64(base+c, hi)
		st.counter = end
		t.mu.Unlock()
		t.rt.chaos.ObserveChunk(m.Ctx.Rank, m.TID, chunkKey(key, k), base, end)
		for i := base; i < end; i++ {
			if err := body(i); err != nil {
				return err
			}
		}
	}
}

// chunkKey packs a loop's construct key and a per-thread claim index
// into one schedule-point key for chunk records. Construct keys are
// small (they count the constructs a thread encountered), so 20 bits
// of claim index per key cannot collide in practice.
func chunkKey(key, k uint64) uint64 { return key<<20 | k }

// Sections distributes the given section bodies over the team —
// section i runs on thread i mod teamsize (a conforming static
// assignment chosen for determinism; the OpenMP specification leaves
// the mapping to the implementation) — and joins at the implicit
// barrier (`#pragma omp sections`).
func (m *Member) Sections(bodies ...func() error) error {
	var err error
	for i := m.TID; i < len(bodies); i += m.team.size {
		if e := bodies[i](); e != nil && err == nil {
			err = e
		}
	}
	if berr := m.Barrier(); err == nil {
		err = berr
	}
	return err
}

// Single executes body on the first team member to arrive; everyone
// joins at the implicit barrier (`#pragma omp single`).
func (m *Member) Single(body func() error) error {
	t := m.team
	ord, key := m.nextOrdinal()
	st := t.state(ord)
	var mine bool
	if t.rt.chaos.Replaying() {
		// First-arriver election is host-racy: force the recorded winner.
		mine = t.rt.chaos.ReplaySingleWin(m.Ctx.Rank, m.TID, key)
		t.mu.Lock()
		st.claimed = true
		t.mu.Unlock()
	} else {
		t.mu.Lock()
		mine = !st.claimed
		st.claimed = true
		t.mu.Unlock()
		if mine {
			t.rt.chaos.ObserveSingleWin(m.Ctx.Rank, m.TID, key)
		}
	}
	var err error
	if mine {
		err = body()
	}
	if berr := m.Barrier(); err == nil {
		err = berr
	}
	return err
}

// Master executes body on thread 0 only; there is no implied barrier
// (`#pragma omp master`).
func (m *Member) Master(body func() error) error {
	if m.TID != 0 {
		return nil
	}
	return body()
}

// lockState is a queue-based lock with virtual-time serialization.
// The releaser hands ownership directly to the next waiter that takes
// it.
type lockState struct {
	mu      sync.Mutex
	held    bool
	waiters []*sim.Waiter
	freeAt  int64 // virtual time of the last release (guarded by mu)

	// Acquisition-order record/replay. grantSeq numbers completed
	// acquisitions in record mode; nextTicket and repWaiters force that
	// numbering in replay mode. All guarded by mu. Tickets are assigned
	// at acquisition completion, never at release handoff: a handoff
	// abandoned by a dying recipient consumes no ticket.
	grantSeq   uint64
	nextTicket uint64 // ticket allowed to acquire next (replay)
	repWaiters map[uint64]*sim.Waiter
}

// lock returns (creating if needed) the named lock of the runtime.
func (rt *Runtime) lock(name string) *lockState {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	l, ok := rt.locks[name]
	if !ok {
		l = &lockState{nextTicket: 1}
		rt.locks[name] = l
	}
	return l
}

// handOnLocked passes ownership to the first queued waiter that takes
// it, or frees the lock. A waiter withdrawn by its rank's abort
// refuses the Unpark and is skipped.
func (l *lockState) handOnLocked(a *sim.Activity) {
	for len(l.waiters) > 0 {
		next := l.waiters[0]
		l.waiters = l.waiters[1:]
		if a.Unpark(next, nil) {
			return
		}
	}
	l.held = false
}

// acquire takes the lock, parking while it is held, and advances the
// member clock past the previous holder's release.
func (m *Member) acquire(l *lockState, id trace.LockID) error {
	rt := m.team.rt
	rt.st.acquires.Inc()
	// Schedule point: whether the acquire succeeded or was abandoned by
	// a crash-stop abort while queued is host-racy under chaos, and so
	// is the order in which contending threads win the lock.
	qa := rt.schedPoint(m.Ctx)
	if rt.chaos.ReplayAbort(m.Ctx.Rank, m.TID, qa) {
		return ErrRankAborted
	}
	if rt.chaos.Replaying() {
		return m.acquireForced(l, id, qa)
	}
	l.mu.Lock()
	if l.held {
		w := new(sim.Waiter)
		l.waiters = append(l.waiters, w)
		l.mu.Unlock()
		wk := rt.activity.Park(w, m.acquiring(id))
		switch wk.How {
		case sim.Deadlock:
			return ErrDeadlock
		case sim.Aborted:
			// Rank abort (crash-stop). A claimed wake carries ownership:
			// pass it on so the lock isn't stranded. An unclaimed waiter
			// stays queued; the releaser's Unpark of it is refused and
			// handOnLocked skips it.
			if wk.Claimed {
				l.mu.Lock()
				l.handOnLocked(rt.activity)
				l.mu.Unlock()
			}
			rt.chaos.ObserveAbort(m.Ctx.Rank, m.TID, qa)
			return ErrRankAborted
		}
		// Ownership was handed over by the releaser. Ticket assignment
		// here is safe: grants are serialized by lock ownership, so no
		// other thread can complete an acquisition until we release.
		l.mu.Lock()
	}
	l.held = true
	m.recordGrantLocked(l, qa)
	freeAt := l.freeAt
	l.mu.Unlock()
	m.granted(freeAt, id)
	return nil
}

// acquiring is the wait-for record of a member parked on a lock.
func (m *Member) acquiring(id trace.LockID) sim.BlockedOp {
	return sim.Desc(m.Ctx.Rank, m.TID, "acquiring "+id.Name)
}

// granted completes an acquisition: the member's clock moves past the
// previous release at freeAt. The acquisition counts as contended when
// that release is later than the member's own clock — a wait in
// virtual time, whatever order the host ran the threads in.
func (m *Member) granted(freeAt int64, id trace.LockID) {
	if freeAt > m.Ctx.Now {
		m.team.rt.st.contended.Inc()
	}
	m.Ctx.SyncTo(freeAt)
	m.Ctx.Advance(lockCostNs)
	m.Ctx.Emit(trace.Event{Op: trace.OpAcquire, Name: id.Name})
}

// recordGrantLocked assigns the next acquisition ticket and records it
// against this thread's schedule point. Caller holds l.mu at an
// acquisition-completion site.
func (m *Member) recordGrantLocked(l *lockState, qa uint64) {
	rt := m.team.rt
	if !rt.chaos.Recording() {
		return
	}
	l.grantSeq++
	rt.chaos.ObserveLockGrant(m.Ctx.Rank, m.TID, qa, l.grantSeq)
}

// acquireForced implements acquire under a replayed schedule: the
// recorded grant ticket, not a host race, decides when this thread
// gets the lock. Tickets are granted strictly in order — ticket t
// acquires only after ticket t-1 has released.
func (m *Member) acquireForced(l *lockState, id trace.LockID, qa uint64) error {
	rt := m.team.rt
	ticket, ok := rt.chaos.ReplayLockGrant(m.Ctx.Rank, m.TID, qa)
	if !ok {
		// No grant recorded: the schedule (e.g. the salvaged prefix of a
		// truncated stream) ends before this acquire completed. Park
		// with no waker; the watchdog rules on whether the run
		// deadlocked.
		if rt.activity.Park(new(sim.Waiter), m.acquiring(id)).How == sim.Deadlock {
			return ErrDeadlock
		}
		return ErrRankAborted
	}
	l.mu.Lock()
	if !l.held && l.nextTicket == ticket {
		l.held = true
		l.nextTicket++
	} else {
		w := new(sim.Waiter)
		if l.repWaiters == nil {
			l.repWaiters = make(map[uint64]*sim.Waiter)
		}
		l.repWaiters[ticket] = w
		l.mu.Unlock()
		switch rt.activity.Park(w, m.acquiring(id)).How {
		case sim.Deadlock:
			return ErrDeadlock
		case sim.Aborted:
			// Defensive: forced aborts fire at qa before queueing, so a
			// queued replay waiter only sees an abort on teardown.
			l.mu.Lock()
			if l.repWaiters[ticket] == w {
				delete(l.repWaiters, ticket)
			}
			l.mu.Unlock()
			return ErrRankAborted
		}
		l.mu.Lock()
	}
	freeAt := l.freeAt
	l.mu.Unlock()
	m.granted(freeAt, id)
	return nil
}

// release frees the lock, publishing the holder's clock and handing
// ownership to the next waiter, if any.
func (m *Member) release(l *lockState, id trace.LockID) {
	m.Ctx.Emit(trace.Event{Op: trace.OpRelease, Name: id.Name})
	l.mu.Lock()
	defer l.mu.Unlock()
	l.freeAt = m.Ctx.Now
	if !m.team.rt.chaos.Replaying() {
		l.handOnLocked(m.team.rt.activity)
		return
	}
	// Hand ownership to the recorded next ticket if its thread is
	// already queued; otherwise free the lock — the ticket holder
	// takes the fast path in acquireForced when it arrives.
	if w, ok := l.repWaiters[l.nextTicket]; ok {
		delete(l.repWaiters, l.nextTicket)
		l.nextTicket++
		m.team.rt.activity.Unpark(w, nil)
	} else {
		l.held = false
	}
}

// Critical runs body under the named critical section
// (`#pragma omp critical(name)`; use "" for the unnamed section).
func (m *Member) Critical(name string, body func() error) error {
	if name == "" {
		name = "$default"
	}
	id := trace.LockID{Rank: m.Ctx.Rank, Name: "$critical:" + name}
	l := m.team.rt.lock(id.Name)
	if err := m.acquire(l, id); err != nil {
		return err
	}
	err := body()
	m.release(l, id)
	return err
}

// Lock acquires a named runtime lock (omp_set_lock).
func (m *Member) Lock(name string) error {
	id := trace.LockID{Rank: m.Ctx.Rank, Name: "$lock:" + name}
	return m.acquire(m.team.rt.lock(id.Name), id)
}

// Unlock releases a named runtime lock (omp_unset_lock).
func (m *Member) Unlock(name string) {
	id := trace.LockID{Rank: m.Ctx.Rank, Name: "$lock:" + name}
	m.release(m.team.rt.lock(id.Name), id)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
