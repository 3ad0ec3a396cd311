package mpi

import (
	"errors"
	"strings"
	"testing"

	"home/internal/obs"
	"home/internal/sim"
)

// TestDeadlockErrorCarriesBlockedTable pins the structured deadlock
// report: the per-rank error is a *DeadlockError whose Ops table
// names every stuck thread with its operation and selector, and which
// still unwraps to ErrDeadlock for existing errors.Is call sites.
func TestDeadlockErrorCarriesBlockedTable(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		if p.Rank() == 0 {
			_, _, err := p.Recv(ctx, 1, 42, CommWorld)
			return err
		}
		return p.Barrier(ctx, CommWorld)
	})
	if !res.Deadlocked {
		t.Fatal("expected deadlock")
	}
	if len(res.BlockedTable) != 2 {
		t.Fatalf("blocked table = %+v, want 2 entries", res.BlockedTable)
	}
	// StuckTable sorts by rank: rank 0 is the receive, rank 1 the barrier.
	recv, bar := res.BlockedTable[0], res.BlockedTable[1]
	if recv.Rank != 0 || recv.Op != "MPI_Wait" || recv.Peer != 1 || recv.Tag != 42 {
		t.Errorf("receive entry = %+v, want rank 0 MPI_Wait peer=1 tag=42", recv)
	}
	if bar.Rank != 1 || bar.Op != "MPI_Barrier" || bar.Peer != sim.NoArg {
		t.Errorf("barrier entry = %+v, want rank 1 MPI_Barrier", bar)
	}

	var found bool
	for _, e := range res.Errs {
		if e == nil {
			continue
		}
		var de *DeadlockError
		if !errors.As(e, &de) {
			t.Errorf("rank error is not a DeadlockError: %v", e)
			continue
		}
		found = true
		if !errors.Is(e, ErrDeadlock) {
			t.Error("DeadlockError must unwrap to ErrDeadlock")
		}
		msg := e.Error()
		if !strings.Contains(msg, "MPI_Wait(peer=1, tag=42, comm=0)") {
			t.Errorf("error text missing receive selector: %s", msg)
		}
		if !strings.Contains(msg, "MPI_Barrier(comm=0)") {
			t.Errorf("error text missing barrier entry: %s", msg)
		}
	}
	if !found {
		t.Fatalf("no DeadlockError in %v", res.Errs)
	}
}

// TestDeadlockErrorRendersWildcards checks the MPI_ANY_SOURCE /
// MPI_ANY_TAG rendering of -1 selector values.
func TestDeadlockErrorRendersWildcards(t *testing.T) {
	res := runWorld(t, 1, func(p *Proc, ctx *sim.Ctx) error {
		_, _, err := p.Recv(ctx, AnySource, AnyTag, CommWorld)
		return err
	})
	if !res.Deadlocked {
		t.Fatal("expected deadlock")
	}
	err := res.FirstError()
	if err == nil {
		t.Fatal("no error")
	}
	for _, want := range []string{"MPI_ANY_SOURCE", "MPI_ANY_TAG"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error text missing %s: %s", want, err.Error())
		}
	}
}

// TestWorldStatsCounters checks the mpi.* instrumentation against a
// run whose traffic is known exactly.
func TestWorldStatsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	w := NewWorld(Config{Procs: 2, Stats: reg})
	res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
		if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := p.Send(ctx, []float64{1, 2, 3}, 1, 7, CommWorld); err != nil {
				return err
			}
		} else {
			if _, _, err := p.Recv(ctx, AnySource, 7, CommWorld); err != nil {
				return err
			}
		}
		if err := p.Barrier(ctx, CommWorld); err != nil {
			return err
		}
		return p.Finalize(ctx)
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	checks := map[string]int64{
		"mpi.sends":             1,
		"mpi.bytes_moved":       3 * 8,
		"mpi.msgs_matched":      1,
		"mpi.wildcard_recvs":    1,
		"mpi.collective_rounds": 1,
	}
	for name, want := range checks {
		if got := snap.Get(name); got != want {
			t.Errorf("%s = %d, want %d\n%s", name, got, want, snap.String())
		}
	}
	if snap.Gauges["mpi.watchdog_blocked_ops"] != 0 {
		t.Errorf("watchdog gauge = %d on a clean run", snap.Gauges["mpi.watchdog_blocked_ops"])
	}
}
