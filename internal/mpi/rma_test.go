package mpi

import (
	"errors"
	"testing"

	"home/internal/sim"
)

func TestRMAPutGetFence(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		local := make([]float64, 4)
		win, err := p.WinCreate(ctx, local, CommWorld)
		if err != nil {
			return err
		}
		if err := p.Fence(ctx, win); err != nil {
			return err
		}
		// Each rank puts its rank+1 into the peer's slot 0.
		peer := 1 - p.Rank()
		if err := p.Put(ctx, win, peer, 0, []float64{float64(p.Rank() + 1)}); err != nil {
			return err
		}
		if err := p.Fence(ctx, win); err != nil {
			return err
		}
		if local[0] != float64(peer+1) {
			t.Errorf("rank %d local[0] = %v, want %d", p.Rank(), local[0], peer+1)
		}
		got, err := p.Get(ctx, win, peer, 0, 1)
		if err != nil {
			return err
		}
		if got[0] != float64(p.Rank()+1) {
			t.Errorf("rank %d get = %v", p.Rank(), got)
		}
		return p.Fence(ctx, win)
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestRMAAccumulate(t *testing.T) {
	res := runWorld(t, 4, func(p *Proc, ctx *sim.Ctx) error {
		local := make([]float64, 1)
		win, err := p.WinCreate(ctx, local, CommWorld)
		if err != nil {
			return err
		}
		if err := p.Fence(ctx, win); err != nil {
			return err
		}
		// Everyone accumulates 1 into rank 0.
		if err := p.Accumulate(ctx, win, 0, 0, []float64{1}); err != nil {
			return err
		}
		if err := p.Fence(ctx, win); err != nil {
			return err
		}
		if p.Rank() == 0 && local[0] != 4 {
			t.Errorf("accumulated = %v, want 4", local[0])
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestRMABoundsChecked(t *testing.T) {
	res := runWorld(t, 1, func(p *Proc, ctx *sim.Ctx) error {
		win, err := p.WinCreate(ctx, make([]float64, 2), CommWorld)
		if err != nil {
			return err
		}
		if err := p.Put(ctx, win, 0, 1, []float64{1, 2}); !errors.Is(err, ErrWindowBounds) {
			t.Errorf("oversized put: %v", err)
		}
		if _, err := p.Get(ctx, win, 0, 5, 1); !errors.Is(err, ErrWindowBounds) {
			t.Errorf("out-of-range get: %v", err)
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestRMAFencesDoNotMixWithBarriers(t *testing.T) {
	// A user barrier on the same communicator while fences are in
	// flight must not steal fence arrivals.
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		win, err := p.WinCreate(ctx, make([]float64, 1), CommWorld)
		if err != nil {
			return err
		}
		if err := p.Fence(ctx, win); err != nil {
			return err
		}
		if err := p.Barrier(ctx, CommWorld); err != nil {
			return err
		}
		return p.Fence(ctx, win)
	})
	if res.Deadlocked || res.FirstError() != nil {
		t.Fatalf("deadlocked=%v err=%v", res.Deadlocked, res.FirstError())
	}
}

func TestWindowLookup(t *testing.T) {
	w := NewWorld(Config{Procs: 1})
	res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
		if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
			return err
		}
		win, err := p.WinCreate(ctx, make([]float64, 1), CommWorld)
		if err != nil {
			return err
		}
		if w.Window(win.ID) != win {
			t.Error("window lookup failed")
		}
		if w.Window(9999) != nil {
			t.Error("phantom window")
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}
