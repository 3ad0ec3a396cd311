package mpi

import (
	"errors"
	"strings"
	"testing"

	"home/internal/sim"
)

func TestThreadLevelNames(t *testing.T) {
	cases := map[int]string{
		ThreadSingle:     "MPI_THREAD_SINGLE",
		ThreadFunneled:   "MPI_THREAD_FUNNELED",
		ThreadSerialized: "MPI_THREAD_SERIALIZED",
		ThreadMultiple:   "MPI_THREAD_MULTIPLE",
	}
	for level, want := range cases {
		if got := ThreadLevelName(level); got != want {
			t.Errorf("ThreadLevelName(%d) = %q", level, got)
		}
	}
	if !strings.Contains(ThreadLevelName(42), "42") {
		t.Error("unknown level should render numerically")
	}
}

func TestReduceOpStrings(t *testing.T) {
	for op, want := range map[ReduceOp]string{
		OpSum: "MPI_SUM", OpProd: "MPI_PROD", OpMax: "MPI_MAX", OpMin: "MPI_MIN",
	} {
		if op.String() != want {
			t.Errorf("%d.String() = %q", int(op), op.String())
		}
	}
	if ReduceOp(9).String() == "" {
		t.Error("unknown op should render")
	}
}

func TestCollectiveOnInvalidComm(t *testing.T) {
	res := runWorld(t, 1, func(p *Proc, ctx *sim.Ctx) error {
		if err := p.Barrier(ctx, CommID(42)); !errors.Is(err, ErrInvalidComm) {
			t.Errorf("barrier on bad comm: %v", err)
		}
		if _, err := p.Bcast(ctx, nil, 0, CommID(42)); !errors.Is(err, ErrInvalidComm) {
			t.Errorf("bcast on bad comm: %v", err)
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleInitRejected(t *testing.T) {
	w := NewWorld(Config{Procs: 1})
	res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
		if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
			return err
		}
		_, err := p.InitThread(ctx, ThreadMultiple)
		return err
	})
	if res.Errs[0] == nil || !strings.Contains(res.Errs[0].Error(), "twice") {
		t.Fatalf("err = %v", res.Errs[0])
	}
}

func TestDoubleFinalizeRejected(t *testing.T) {
	w := NewWorld(Config{Procs: 1})
	res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
		if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
			return err
		}
		if err := p.Finalize(ctx); err != nil {
			return err
		}
		return p.Finalize(ctx)
	})
	if !errors.Is(res.Errs[0], ErrFinalized) {
		t.Fatalf("err = %v", res.Errs[0])
	}
}

func TestTestOnSendRequestCompletesImmediately(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		if p.Rank() == 0 {
			req, err := p.Isend(ctx, []float64{1}, 1, 0, CommWorld)
			if err != nil {
				return err
			}
			ok, _, err := p.Test(ctx, req)
			if err != nil {
				return err
			}
			if !ok {
				t.Error("eager send request should test complete")
			}
			if req.Data() != nil {
				t.Error("send request has no payload")
			}
			return nil
		}
		_, _, err := p.Recv(ctx, 0, 0, CommWorld)
		return err
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestIsThreadMainTracksInitializer(t *testing.T) {
	w := NewWorld(Config{Procs: 1})
	res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
		if p.IsThreadMain(ctx) {
			t.Error("before init nobody is the main thread")
		}
		if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
			return err
		}
		if !p.IsThreadMain(ctx) {
			t.Error("initializer should be the main thread")
		}
		worker := ctx.Child(3)
		if p.IsThreadMain(worker) {
			t.Error("worker must not be the main thread")
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestQueuedMessagesDiagnostic(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		if p.Rank() == 0 {
			for i := 0; i < 3; i++ {
				if err := p.Send(ctx, []float64{1}, 1, i, CommWorld); err != nil {
					return err
				}
			}
			return p.Barrier(ctx, CommWorld)
		}
		if err := p.Barrier(ctx, CommWorld); err != nil {
			return err
		}
		if n := p.QueuedMessages(); n != 3 {
			t.Errorf("queued = %d, want 3", n)
		}
		for i := 0; i < 3; i++ {
			if _, _, err := p.Recv(ctx, 0, i, CommWorld); err != nil {
				return err
			}
		}
		if n := p.QueuedMessages(); n != 0 {
			t.Errorf("queued after drain = %d", n)
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestScatterUnevenAndGatherEmpty(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		// Scatter of 5 elements over 2 ranks: chunk = 2, remainder
		// dropped (documented simulator behaviour).
		var root []float64
		if p.Rank() == 0 {
			root = []float64{1, 2, 3, 4, 5}
		}
		part, err := p.Scatter(ctx, root, 0, CommWorld)
		if err != nil {
			return err
		}
		if len(part) != 2 {
			t.Errorf("rank %d scatter chunk = %v", p.Rank(), part)
		}
		// Gather with empty contributions.
		g, err := p.Gather(ctx, nil, 0, CommWorld)
		if err != nil {
			return err
		}
		if p.Rank() == 0 && len(g) != 0 {
			t.Errorf("gather of empties = %v", g)
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestRunResultFirstError(t *testing.T) {
	r := &RunResult{Errs: []error{nil, ErrDeadlock, nil}}
	if !errors.Is(r.FirstError(), ErrDeadlock) {
		t.Fatal("FirstError missed the non-nil entry")
	}
	clean := &RunResult{Errs: []error{nil, nil}}
	if clean.FirstError() != nil {
		t.Fatal("clean result reported an error")
	}
}

func TestWorldAccessors(t *testing.T) {
	w := NewWorld(Config{Procs: 3})
	if w.Size() != 3 || w.Proc(1).Rank() != 1 {
		t.Fatal("accessors broken")
	}
	if w.Costs().MPICallNs <= 0 {
		t.Fatal("costs not defaulted")
	}
	if w.Keeper() == nil || w.Activity() == nil {
		t.Fatal("nil subsystem accessors")
	}
	// Zero/negative proc counts clamp to 1.
	if NewWorld(Config{}).Size() != 1 {
		t.Fatal("empty config should give one rank")
	}
}
