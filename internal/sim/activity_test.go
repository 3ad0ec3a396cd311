package sim

import (
	"testing"
	"time"
)

// A thread sleeping outside the watchdog (an injected chaos stall or
// send jitter) is running, not blocked: however long it sleeps while
// its peer blocks, the latch stays open.
func TestActivitySleeperNeverTrips(t *testing.T) {
	a := NewActivity()
	a.AddThreads(2)
	a.BlockDesc(0, 0, "peer wait")
	time.Sleep(20 * time.Millisecond) // the other thread's stall
	select {
	case <-a.Dead():
		t.Fatal("watchdog tripped while a thread was sleeping")
	default:
	}
	if act, blk := a.Counts(); act != 2 || blk != 1 {
		t.Fatalf("counts = %d,%d, want 2,1", act, blk)
	}
}

// When the sleeper then blocks as well, every live thread is blocked,
// and the latch closes inside that very call, with no timer.
func TestActivityTripsWhenSleeperBlocks(t *testing.T) {
	a := NewActivity()
	a.AddThreads(2)
	a.BlockDesc(0, 0, "peer wait")
	time.Sleep(20 * time.Millisecond)
	d, _ := a.BlockDesc(0, 1, "sleeper wait")
	select {
	case <-d:
	default:
		t.Fatal("latch still open with every live thread blocked")
	}
	if !a.Deadlocked() {
		t.Fatal("latch closed but Deadlocked() is false")
	}
	if ops := a.StuckTable(); len(ops) != 2 || ops[0].TID != 0 || ops[1].TID != 1 {
		t.Fatalf("wait-for snapshot = %v", ops)
	}
}

// AbortRank wakes only the aborted rank's blocked operations; other
// ranks stay blocked and the global latch stays open.
func TestActivityAbortRankWakesOnlyThatRank(t *testing.T) {
	a := NewActivity()
	a.AddThreads(3) // rank 0 waiter, rank 1 waiter, plus this thread

	woken := make(chan int, 2)
	for rank := 0; rank < 2; rank++ {
		rank := rank
		go func() {
			d, release := a.BlockOp(BlockedOp{Rank: rank, TID: 0, Peer: NoArg, Tag: NoArg, Comm: NoArg, Detail: "abort wait"})
			<-d
			if !a.Deadlocked() {
				a.Unblock() // abandoning the wait: self-unblock
				release()
			}
			woken <- rank
		}()
	}
	time.Sleep(10 * time.Millisecond)

	a.AbortRank(0)
	select {
	case r := <-woken:
		if r != 0 {
			t.Fatalf("rank %d woke, want rank 0", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("aborted rank never woke")
	}
	if !a.RankAborted(0) || a.RankAborted(1) {
		t.Fatal("abort bookkeeping wrong")
	}
	if a.Deadlocked() {
		t.Fatal("rank abort must not trip the global latch")
	}
	select {
	case r := <-woken:
		t.Fatalf("rank %d woke without being aborted", r)
	case <-time.After(50 * time.Millisecond):
	}

	// A latch requested after the abort is born closed.
	d, release := a.BlockOp(BlockedOp{Rank: 0, TID: 1, Peer: NoArg, Tag: NoArg, Comm: NoArg, Detail: "late wait"})
	select {
	case <-d:
		a.Unblock()
		release()
	case <-time.After(time.Second):
		t.Fatal("post-abort latch not pre-closed")
	}

	a.AbortRank(1)
	<-woken
}
