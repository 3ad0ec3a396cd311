package sim

import (
	"sync"
	"testing"
	"time"
)

// parkAsync parks a new lane on its own goroutine and returns the
// channel its Wake arrives on.
func parkAsync(a *Activity, w *Waiter, op BlockedOp) <-chan Wake {
	out := make(chan Wake, 1)
	go func() { out <- a.Park(w, op) }()
	return out
}

// waitBlocked polls until n lanes are parked.
func waitBlocked(t *testing.T, a *Activity, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, blk := a.Counts(); blk == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d parked lanes", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// A thread sleeping outside the watchdog (an injected chaos stall or
// send jitter) is running, not blocked: however long it sleeps while
// its peer is parked, the watchdog stays quiet.
func TestActivitySleeperNeverTrips(t *testing.T) {
	a := NewActivity()
	a.AddThreads(2)
	w := new(Waiter)
	wake := parkAsync(a, w, Desc(0, 0, "peer wait"))
	waitBlocked(t, a, 1)
	time.Sleep(20 * time.Millisecond) // the other thread's stall
	if a.Deadlocked() {
		t.Fatal("watchdog tripped while a thread was sleeping")
	}
	if act, blk := a.Counts(); act != 2 || blk != 1 {
		t.Fatalf("counts = %d,%d, want 2,1", act, blk)
	}
	a.Unpark(w, nil)
	if wk := <-wake; wk.How != Unparked {
		t.Fatalf("peer woke with %+v, want Unparked", wk)
	}
}

// When the sleeper then parks as well, every live thread is parked,
// and the watchdog trips inside that very call, with no timer.
func TestActivityTripsWhenSleeperBlocks(t *testing.T) {
	a := NewActivity()
	a.AddThreads(2)
	peer := parkAsync(a, new(Waiter), Desc(0, 0, "peer wait"))
	waitBlocked(t, a, 1)
	time.Sleep(20 * time.Millisecond)
	if wk := a.Park(new(Waiter), Desc(0, 1, "sleeper wait")); wk.How != Deadlock {
		t.Fatalf("sleeper's Park = %+v, want Deadlock", wk)
	}
	if wk := <-peer; wk.How != Deadlock {
		t.Fatalf("peer's Park = %+v, want Deadlock", wk)
	}
	if !a.Deadlocked() {
		t.Fatal("every lane parked but Deadlocked() is false")
	}
	if ops := a.StuckTable(); len(ops) != 2 || ops[0].TID != 0 || ops[1].TID != 1 {
		t.Fatalf("wait-for snapshot = %v", ops)
	}
}

// AbortRank ends only the aborted rank's parks; other ranks stay
// parked and the watchdog stays quiet.
func TestActivityAbortRankWakesOnlyThatRank(t *testing.T) {
	a := NewActivity()
	a.AddThreads(3) // rank 0 waiter, rank 1 waiter, plus this thread
	r0 := parkAsync(a, new(Waiter), Desc(0, 0, "abort wait"))
	r1 := parkAsync(a, new(Waiter), Desc(1, 0, "abort wait"))
	waitBlocked(t, a, 2)

	a.AbortRank(0)
	select {
	case wk := <-r0:
		if wk.How != Aborted || wk.Claimed {
			t.Fatalf("rank 0 woke with %+v, want an unclaimed Aborted", wk)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("aborted rank never woke")
	}
	if a.Deadlocked() {
		t.Fatal("rank abort must not trip the watchdog")
	}
	select {
	case wk := <-r1:
		t.Fatalf("rank 1 woke with %+v without being aborted", wk)
	case <-time.After(50 * time.Millisecond):
	}
	if ops := a.StuckTable(); len(ops) != 1 || ops[0].Rank != 1 {
		t.Fatalf("wait-for snapshot = %v, want only rank 1", ops)
	}

	// A Park after the abort ends at once.
	if wk := a.Park(new(Waiter), Desc(0, 1, "late wait")); wk.How != Aborted {
		t.Fatalf("post-abort Park = %+v, want Aborted", wk)
	}

	a.AbortRank(1)
	if wk := <-r1; wk.How != Aborted {
		t.Fatalf("rank 1 woke with %+v, want Aborted", wk)
	}
	if act, blk := a.Counts(); act != 3 || blk != 0 {
		t.Fatalf("counts = %d,%d, want 3,0", act, blk)
	}
}

// An abort wins over an Unpark whose lane has not returned yet: Park
// reports Aborted and hands the site the claimed payload. A lane the
// abort withdrew refuses a later Unpark.
func TestActivityAbortAfterClaim(t *testing.T) {
	a := NewActivity()
	a.AddThreads(1)
	claimed := new(Waiter)
	if !a.Unpark(claimed, 7) {
		t.Fatal("Unpark of an idle lane refused")
	}
	if a.Unpark(claimed, 8) {
		t.Fatal("second Unpark of a claimed lane accepted")
	}
	a.AbortRank(0)
	if wk := a.Park(claimed, Desc(0, 0, "claimed")); wk.How != Aborted || !wk.Claimed || wk.Payload != 7 {
		t.Fatalf("Park = %+v, want Aborted, claimed with payload 7", wk)
	}
	withdrawn := new(Waiter)
	if wk := a.Park(withdrawn, Desc(0, 1, "withdrawn")); wk.How != Aborted || wk.Claimed {
		t.Fatalf("Park = %+v, want an unclaimed Aborted", wk)
	}
	if a.Unpark(withdrawn, nil) {
		t.Fatal("Unpark of a withdrawn lane accepted")
	}
}

// A PastAbort wait outlasts its rank's abort: only an Unpark or the
// deadlock ends it.
func TestActivityPastAbort(t *testing.T) {
	a := NewActivity()
	a.AddThreads(2)
	w := &Waiter{PastAbort: true}
	wake := parkAsync(a, w, Desc(0, 0, "drain"))
	waitBlocked(t, a, 1)
	a.AbortRank(0)
	if _, blk := a.Counts(); blk != 1 {
		t.Fatal("abort ended a PastAbort wait")
	}
	a.Unpark(w, nil)
	if wk := <-wake; wk.How != Unparked {
		t.Fatalf("Park = %+v, want Unparked", wk)
	}
	a.DoneThread() // the drained lane exits
	if wk := a.Park(&Waiter{PastAbort: true}, Desc(0, 1, "drain")); wk.How != Deadlock {
		t.Fatalf("Park = %+v, want Deadlock", wk)
	}
}

// Many lanes park while other goroutines race Unpark, AbortRank and
// the final DoneThread against them. Every lane sees exactly one
// outcome, consistent with whether its Unpark was accepted; a lane
// whose wait ended refuses any later Unpark; and the blocked count
// returns to zero.
func TestActivityParkRace(t *testing.T) {
	const ranks, perRank = 4, 8
	const n = ranks * perRank
	for round := 0; round < 50; round++ {
		a := NewActivity()
		a.AddThreads(n + 1) // the lanes and a closing thread
		waiters := make([]*Waiter, n)
		for i := range waiters {
			waiters[i] = new(Waiter)
		}
		wakes := make([]Wake, n)
		accepted := make([]bool, n)
		start := make(chan struct{})
		var lanes, racers sync.WaitGroup
		for i := range waiters {
			lanes.Add(1)
			go func(i int) {
				defer lanes.Done()
				<-start
				wakes[i] = a.Park(waiters[i], Desc(i/perRank, i%perRank, "race"))
				a.DoneThread()
			}(i)
		}
		racers.Add(3)
		go func() { // unparks the odd lanes
			defer racers.Done()
			<-start
			for i := 1; i < n; i += 2 {
				accepted[i] = a.Unpark(waiters[i], i)
			}
		}()
		go func() { // crash-stops ranks 0 and 1
			defer racers.Done()
			<-start
			a.AbortRank(0)
			a.AbortRank(1)
		}()
		go func() { // the closing thread exits
			defer racers.Done()
			<-start
			a.DoneThread()
		}()
		close(start)
		racers.Wait()
		lanes.Wait()

		for i, wk := range wakes {
			rank := i / perRank
			if wk.Claimed != accepted[i] {
				t.Fatalf("round %d lane %d: Claimed=%v but Unpark accepted=%v", round, i, wk.Claimed, accepted[i])
			}
			if wk.Claimed && wk.Payload != i {
				t.Fatalf("round %d lane %d: payload %v", round, i, wk.Payload)
			}
			switch wk.How {
			case Unparked:
				if !wk.Claimed {
					t.Fatalf("round %d lane %d: %+v", round, i, wk)
				}
			case Aborted:
				if rank >= 2 {
					t.Fatalf("round %d lane %d of rank %d aborted", round, i, rank)
				}
			case Deadlock:
				if wk.Claimed {
					t.Fatalf("round %d lane %d: claimed lane deadlocked", round, i)
				}
			}
			// Even lanes of ranks 2 and 3 have no waker: only the
			// deadlock can end them.
			if rank >= 2 && i%2 == 0 && wk.How != Deadlock {
				t.Fatalf("round %d lane %d: %+v, want Deadlock", round, i, wk)
			}
			if a.Unpark(waiters[i], nil) {
				t.Fatalf("round %d lane %d: Unpark after the wait ended was accepted", round, i)
			}
		}
		if act, blk := a.Counts(); act != 0 || blk != 0 {
			t.Fatalf("round %d: counts = %d,%d, want 0,0", round, act, blk)
		}
	}
}
