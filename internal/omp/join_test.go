package omp

import (
	"errors"
	"testing"
	"time"

	"home/internal/sim"
)

// Regression test: a worker that finishes while the MASTER is blocked
// forever inside its body (not in the join) must not desynchronize
// the watchdog's blocked count — the deadlock has to be detected, not
// turned into a host-process hang.
//
// The original join protocol had the last worker "pre-unblock" the
// parent unconditionally; when the parent never reached the join the
// count stayed low forever and a real deadlock escaped the watchdog
// (found by the stencil2d example's mismatched-tag variant).
func TestJoinWorkerExitWithMasterBlockedInBody(t *testing.T) {
	activity := sim.NewActivity()
	activity.AddThreads(1) // the main test thread below
	rt := NewRuntime(0, activity)
	costs := sim.DefaultCostModel()
	ctx := sim.NewCtx(0, 0, &costs)

	err := rt.Parallel(ctx, 2, func(m *Member) error {
		if m.TID != 0 {
			return nil // worker exits immediately
		}
		// Master blocks forever inside the body (like an MPI receive
		// with no sender). The worker's exit must leave the watchdog
		// able to see "1 live thread, 1 blocked" and trip.
		activity.Park(new(sim.Waiter), sim.Desc(0, 0, "a receive that can never match"))
		return ErrDeadlock
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock (watchdog must catch the stuck master)", err)
	}
	if !activity.Deadlocked() {
		t.Fatal("watchdog did not trip")
	}
	ops := activity.StuckTable()
	if len(ops) != 1 {
		t.Fatalf("stuck ops = %v", ops)
	}
}

// The symmetric case: master finishes its body while a WORKER is
// blocked forever; the master's join wait plus the stuck worker is a
// deadlock too.
func TestJoinMasterWaitsOnStuckWorker(t *testing.T) {
	activity := sim.NewActivity()
	activity.AddThreads(1)
	rt := NewRuntime(0, activity)
	costs := sim.DefaultCostModel()
	ctx := sim.NewCtx(0, 0, &costs)

	err := rt.Parallel(ctx, 2, func(m *Member) error {
		if m.TID == 0 {
			return nil
		}
		activity.Park(new(sim.Waiter), sim.Desc(0, m.TID, "a receive that can never match"))
		return ErrDeadlock
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

// A master whose rank aborted drains its workers before it returns.
// The drain counts as parked: with a worker parked on a wait the abort
// does not reach, every live lane is parked, so the watchdog trips and
// Parallel returns instead of hanging the host.
func TestJoinDrainCountsAsBlocked(t *testing.T) {
	activity := sim.NewActivity()
	activity.AddThreads(1)
	rt := NewRuntime(0, activity)
	costs := sim.DefaultCostModel()
	ctx := sim.NewCtx(0, 0, &costs)

	errc := make(chan error, 1)
	go func() {
		errc <- rt.Parallel(ctx, 2, func(m *Member) error {
			if m.TID == 0 {
				activity.AbortRank(0) // the rank crash-stops in the master's body
				return ErrRankAborted
			}
			activity.Park(new(sim.Waiter), sim.Desc(-1, m.TID, "a wait outside the aborted rank"))
			return ErrDeadlock
		})
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrRankAborted) {
			t.Fatalf("err = %v, want ErrRankAborted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Parallel never returned: the join's drain is invisible to the watchdog")
	}
	if !activity.Deadlocked() {
		t.Fatal("watchdog did not trip")
	}
}

// And the healthy path at larger team sizes, exercising the join
// rendezvous under contention.
func TestJoinManyWorkersClean(t *testing.T) {
	rt := NewRuntime(0, nil)
	for round := 0; round < 50; round++ {
		if err := rt.Parallel(testCtx(), 8, func(m *Member) error {
			m.Ctx.Compute(int64(m.TID))
			return nil
		}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
