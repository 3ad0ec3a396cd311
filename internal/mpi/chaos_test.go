package mpi

import (
	"errors"
	"testing"

	"home/internal/chaos"
	"home/internal/sim"
)

// runChaosWorld is runWorld with a fault plan attached.
func runChaosWorld(t *testing.T, n int, plan *chaos.Plan, body func(p *Proc, ctx *sim.Ctx) error) *RunResult {
	t.Helper()
	w := NewWorld(Config{Procs: n, Chaos: plan})
	return w.Run(func(p *Proc, ctx *sim.Ctx) error {
		if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
			return err
		}
		if err := body(p, ctx); err != nil {
			return err
		}
		return p.Finalize(ctx)
	})
}

// A crash-stopped sender must fail its own call AND wake a peer
// blocked receiving from it, both with a typed rank-failure error.
func TestChaosCrashStopWakesPeerRecv(t *testing.T) {
	res := runChaosWorld(t, 2, chaos.Crash(1, 1, 1), func(p *Proc, ctx *sim.Ctx) error {
		if p.Rank() == 0 {
			_, _, err := p.Recv(ctx, 1, 7, CommWorld)
			return err
		}
		return p.Send(ctx, []float64{1}, 0, 7, CommWorld)
	})
	if res.Deadlocked {
		t.Fatal("crash-stop must not read as a global deadlock")
	}
	if len(res.DeadRanks) != 1 || res.DeadRanks[0] != 1 {
		t.Fatalf("DeadRanks = %v, want [1]", res.DeadRanks)
	}
	for rank, err := range res.Errs {
		if !errors.Is(err, ErrRankFailed) {
			t.Fatalf("rank %d err = %v, want ErrRankFailed", rank, err)
		}
		var rfe *RankFailureError
		if !errors.As(err, &rfe) || rfe.Rank != 1 {
			t.Fatalf("rank %d err = %v, want RankFailureError{Rank: 1}", rank, err)
		}
	}
}

// A crash inside a collective must fail every participant, including
// ranks that arrived (and blocked) before the crash fired.
func TestChaosCrashStopFailsCollective(t *testing.T) {
	res := runChaosWorld(t, 4, chaos.Crash(1, 2, 1), func(p *Proc, ctx *sim.Ctx) error {
		if p.Rank() == 2 {
			ctx.Compute(500_000) // let the others arrive and block first
		}
		return p.Barrier(ctx, CommWorld)
	})
	if res.Deadlocked {
		t.Fatal("crash-stop must not read as a global deadlock")
	}
	if len(res.DeadRanks) != 1 || res.DeadRanks[0] != 2 {
		t.Fatalf("DeadRanks = %v, want [2]", res.DeadRanks)
	}
	for rank, err := range res.Errs {
		if !errors.Is(err, ErrRankFailed) {
			t.Fatalf("rank %d err = %v, want ErrRankFailed", rank, err)
		}
	}
}

// Transient send failures always succeed after retries, charging only
// virtual backoff: data arrives intact and the virtual makespan is
// identical run to run (fault schedules are seed-deterministic).
func TestChaosSendRetryDeterministic(t *testing.T) {
	plan := &chaos.Plan{Seed: 5, SendFailProb: 1, MaxRetries: 3, RetryBackoffNs: 10_000}
	one := func() *RunResult {
		return runChaosWorld(t, 2, plan, func(p *Proc, ctx *sim.Ctx) error {
			if p.Rank() == 0 {
				return p.Send(ctx, []float64{42}, 1, 3, CommWorld)
			}
			data, _, err := p.Recv(ctx, 0, 3, CommWorld)
			if err != nil {
				return err
			}
			if len(data) != 1 || data[0] != 42 {
				t.Errorf("data = %v", data)
			}
			return nil
		})
	}
	a, b := one(), one()
	if err := a.FirstError(); err != nil {
		t.Fatal(err)
	}
	if a.Deadlocked || len(a.DeadRanks) != 0 {
		t.Fatalf("transient failures must not kill ranks: %+v", a)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("retry schedule not deterministic: makespans %d vs %d", a.Makespan, b.Makespan)
	}
}

// Reordering must respect MPI's non-overtaking rule: messages between
// the same (sender, receiver) pair arrive in send order even with the
// reorder fault firing on every send.
func TestChaosReorderKeepsSameSourceOrder(t *testing.T) {
	plan := &chaos.Plan{Seed: 9, ReorderProb: 1, DelayProb: 1, MaxDelayNs: 30_000}
	res := runChaosWorld(t, 3, plan, func(p *Proc, ctx *sim.Ctx) error {
		const per = 4
		switch p.Rank() {
		case 0, 2:
			base := float64(p.Rank() * 100)
			for i := 0; i < per; i++ {
				if err := p.Send(ctx, []float64{base + float64(i)}, 1, 1, CommWorld); err != nil {
					return err
				}
			}
			return nil
		default:
			last := map[int]float64{0: -1, 2: -1}
			for i := 0; i < 2*per; i++ {
				data, st, err := p.Recv(ctx, AnySource, 1, CommWorld)
				if err != nil {
					return err
				}
				if data[0] <= last[st.Source] {
					t.Errorf("source %d overtaking: got %v after %v", st.Source, data[0], last[st.Source])
				}
				last[st.Source] = data[0]
			}
			return nil
		}
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

// A rank that crash-stops while peers wait on a wildcard receive is a
// genuine hang for them (MPI semantics: the message may never come);
// the watchdog, not the failure propagation, must end the run.
func TestChaosCrashWithWildcardWaiterTripsWatchdog(t *testing.T) {
	w := NewWorld(Config{Procs: 2, Chaos: chaos.Crash(1, 1, 1)})
	res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
		if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
			return err
		}
		if p.Rank() == 0 {
			_, _, err := p.Recv(ctx, AnySource, AnyTag, CommWorld)
			return err
		}
		return p.Send(ctx, []float64{1}, 0, 7, CommWorld)
	})
	if !res.Deadlocked {
		t.Fatalf("wildcard wait on a crashed peer should deadlock; errs=%v", res.Errs)
	}
}

// RMA chaos delays Put/Get within a fence epoch. Within an epoch the
// operations are unordered, so the delays must preserve the data the
// epoch produces, charge deterministic virtual latency (seeded
// stream), and stretch the makespan relative to the undelayed run.
func TestChaosRMADelayDeterministicWithinEpoch(t *testing.T) {
	exchange := func(plan *chaos.Plan) *RunResult {
		return runChaosWorld(t, 2, plan, func(p *Proc, ctx *sim.Ctx) error {
			win, err := p.WinCreate(ctx, []float64{0, 0}, CommWorld)
			if err != nil {
				return err
			}
			if err := p.Fence(ctx, win); err != nil {
				return err
			}
			// Each rank puts its rank id into the peer's window slot 0
			// and reads the peer's slot 1 — both ops in one epoch.
			if err := p.Put(ctx, win, 1-p.Rank(), 0, []float64{float64(p.Rank() + 1)}); err != nil {
				return err
			}
			if _, err := p.Get(ctx, win, 1-p.Rank(), 1, 1); err != nil {
				return err
			}
			if err := p.Fence(ctx, win); err != nil {
				return err
			}
			got, err := p.Get(ctx, win, p.Rank(), 0, 1)
			if err != nil {
				return err
			}
			if want := float64(2 - p.Rank()); len(got) != 1 || got[0] != want {
				t.Errorf("rank %d window = %v, want [%v]", p.Rank(), got, want)
			}
			return p.Fence(ctx, win)
		})
	}

	base := exchange(nil)
	if err := base.FirstError(); err != nil {
		t.Fatal(err)
	}
	plan := &chaos.Plan{Seed: 9, RMAProb: 1, MaxRMADelayNs: 50_000}
	a, b := exchange(plan), exchange(plan)
	if err := a.FirstError(); err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("RMA delay schedule not deterministic: %d vs %d", a.Makespan, b.Makespan)
	}
	if a.Makespan <= base.Makespan {
		t.Fatalf("probability-1 RMA delays did not stretch the makespan: %d <= %d", a.Makespan, base.Makespan)
	}
}
