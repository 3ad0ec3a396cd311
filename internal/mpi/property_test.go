package mpi

import (
	"math/rand"
	"sync"
	"testing"

	"home/internal/sim"
)

// TestPropMessageConservation: under random traffic where every rank
// knows how many messages it will receive, all sends are eventually
// received exactly once and payloads survive intact.
func TestPropMessageConservation(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		const n = 4
		// sendPlan[i][j] = number of messages rank i sends to rank j.
		var sendPlan [n][n]int
		var recvCount [n]int
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				k := r.Intn(4)
				sendPlan[i][j] = k
				recvCount[j] += k
			}
		}
		var mu sync.Mutex
		received := map[float64]int{}
		sent := map[float64]bool{}

		w := NewWorld(Config{Procs: n})
		res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
			if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
				return err
			}
			me := p.Rank()
			for dst := 0; dst < n; dst++ {
				for k := 0; k < sendPlan[me][dst]; k++ {
					payload := float64(me*1000 + dst*100 + k)
					mu.Lock()
					sent[payload] = true
					mu.Unlock()
					if err := p.Send(ctx, []float64{payload}, dst, 0, CommWorld); err != nil {
						return err
					}
				}
			}
			for k := 0; k < recvCount[me]; k++ {
				data, _, err := p.Recv(ctx, AnySource, AnyTag, CommWorld)
				if err != nil {
					return err
				}
				mu.Lock()
				received[data[0]]++
				mu.Unlock()
			}
			return nil
		})
		if err := res.FirstError(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Deadlocked {
			t.Fatalf("trial %d deadlocked", trial)
		}
		if len(received) != len(sent) {
			t.Fatalf("trial %d: %d distinct payloads received, %d sent", trial, len(received), len(sent))
		}
		for payload, count := range received {
			if count != 1 {
				t.Fatalf("trial %d: payload %v delivered %d times", trial, payload, count)
			}
			if !sent[payload] {
				t.Fatalf("trial %d: payload %v received but never sent", trial, payload)
			}
		}
	}
}

// TestPropNonOvertakingRandomLengths: same-pair same-tag messages of
// random sizes arrive in order regardless of payload size.
func TestPropNonOvertakingRandomLengths(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	sizes := make([]int, 30)
	for i := range sizes {
		sizes[i] = 1 + r.Intn(64)
	}
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		if p.Rank() == 0 {
			for i, sz := range sizes {
				data := make([]float64, sz)
				data[0] = float64(i)
				if err := p.Send(ctx, data, 1, 7, CommWorld); err != nil {
					return err
				}
			}
			return nil
		}
		for i := range sizes {
			data, _, err := p.Recv(ctx, 0, 7, CommWorld)
			if err != nil {
				return err
			}
			if int(data[0]) != i || len(data) != sizes[i] {
				t.Errorf("message %d out of order or truncated: seq=%v len=%d want len=%d",
					i, data[0], len(data), sizes[i])
			}
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

// TestPropCollectiveAgainstReference: Allreduce results equal a
// directly computed reference for random inputs and operators.
func TestPropCollectiveAgainstReference(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		r := rand.New(rand.NewSource(int64(200 + trial)))
		const n = 5
		const width = 3
		inputs := make([][]float64, n)
		for i := range inputs {
			inputs[i] = make([]float64, width)
			for j := range inputs[i] {
				inputs[i][j] = float64(r.Intn(20)) - 10
			}
		}
		op := []ReduceOp{OpSum, OpProd, OpMax, OpMin}[trial%4]
		// Reference fold.
		want := append([]float64(nil), inputs[0]...)
		for i := 1; i < n; i++ {
			op.apply(want, inputs[i])
		}

		w := NewWorld(Config{Procs: n})
		res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
			if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
				return err
			}
			got, err := p.Allreduce(ctx, inputs[p.Rank()], op, CommWorld)
			if err != nil {
				return err
			}
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("trial %d rank %d %v: got %v want %v", trial, p.Rank(), op, got, want)
					break
				}
			}
			return nil
		})
		if err := res.FirstError(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPropVirtualTimeMonotonicPerThread: a thread's clock never runs
// backwards through any mix of operations.
func TestPropVirtualTimeMonotonicPerThread(t *testing.T) {
	res := runWorld(t, 3, func(p *Proc, ctx *sim.Ctx) error {
		last := ctx.Now
		step := func() error {
			if ctx.Now < last {
				t.Errorf("rank %d clock went backwards: %d -> %d", p.Rank(), last, ctx.Now)
			}
			last = ctx.Now
			return nil
		}
		peer := (p.Rank() + 1) % 3
		for i := 0; i < 5; i++ {
			if err := p.Send(ctx, []float64{1}, peer, i, CommWorld); err != nil {
				return err
			}
			_ = step()
			if _, _, err := p.Recv(ctx, AnySource, i, CommWorld); err != nil {
				return err
			}
			_ = step()
			if err := p.Barrier(ctx, CommWorld); err != nil {
				return err
			}
			_ = step()
			if _, err := p.Allreduce(ctx, []float64{1}, OpSum, CommWorld); err != nil {
				return err
			}
			_ = step()
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}
