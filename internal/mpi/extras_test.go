package mpi

import (
	"strings"
	"testing"

	"home/internal/sim"
)

func TestSendrecvRingShift(t *testing.T) {
	const n = 4
	res := runWorld(t, n, func(p *Proc, ctx *sim.Ctx) error {
		right := (p.Rank() + 1) % n
		left := (p.Rank() + n - 1) % n
		data, st, err := p.Sendrecv(ctx, []float64{float64(p.Rank())}, right, 7, left, 7, CommWorld)
		if err != nil {
			return err
		}
		if st.Source != left {
			t.Errorf("rank %d: source = %d, want %d", p.Rank(), st.Source, left)
		}
		if int(data[0]) != left {
			t.Errorf("rank %d: got %v, want %d", p.Rank(), data, left)
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("ring sendrecv deadlocked")
	}
}

func TestSendrecvSelf(t *testing.T) {
	res := runWorld(t, 1, func(p *Proc, ctx *sim.Ctx) error {
		data, _, err := p.Sendrecv(ctx, []float64{42}, 0, 1, 0, 1, CommWorld)
		if err != nil {
			return err
		}
		if data[0] != 42 {
			t.Errorf("self sendrecv = %v", data)
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	res := runWorld(t, 3, func(p *Proc, ctx *sim.Ctx) error {
		out, err := p.Allgather(ctx, []float64{float64(p.Rank() * 10), float64(p.Rank()*10 + 1)}, CommWorld)
		if err != nil {
			return err
		}
		want := []float64{0, 1, 10, 11, 20, 21}
		if len(out) != len(want) {
			t.Fatalf("rank %d: allgather = %v", p.Rank(), out)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("rank %d: allgather = %v", p.Rank(), out)
			}
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockReportNamesBlockedOps(t *testing.T) {
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
		t.Fatalf("blocked ops = %v", res.BlockedTable)
	}
	joined := res.BlockedTable[0].String() + "\n" + res.BlockedTable[1].String()
	if !strings.Contains(joined, "MPI_Wait") && !strings.Contains(joined, "receive") {
		t.Errorf("no receive-side description: %v", res.BlockedTable)
	}
	if !strings.Contains(joined, "Barrier") {
		t.Errorf("no barrier description: %v", res.BlockedTable)
	}
}

func TestCleanRunHasNoBlockedOps(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		return p.Barrier(ctx, CommWorld)
	})
	if res.Deadlocked || len(res.BlockedTable) != 0 {
		t.Fatalf("deadlocked=%v blocked=%v", res.Deadlocked, res.BlockedTable)
	}
}

func TestDeadlockReportNamesProbe(t *testing.T) {
	res := runWorld(t, 1, func(p *Proc, ctx *sim.Ctx) error {
		_, err := p.Probe(ctx, 0, 9, CommWorld)
		return err
	})
	if !res.Deadlocked {
		t.Fatal("expected deadlock")
	}
	if len(res.BlockedTable) != 1 || !strings.Contains(res.BlockedTable[0].String(), "MPI_Probe(source=0, tag=9") {
		t.Fatalf("blocked ops = %v", res.BlockedTable)
	}
}
