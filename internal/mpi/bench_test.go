package mpi

import (
	"testing"

	"home/internal/sim"
)

func BenchmarkPingPong(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWorld(Config{Procs: 2})
		res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
			if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
				return err
			}
			buf := []float64{1}
			for k := 0; k < 100; k++ {
				if p.Rank() == 0 {
					if err := p.Send(ctx, buf, 1, 0, CommWorld); err != nil {
						return err
					}
					if _, _, err := p.Recv(ctx, 1, 0, CommWorld); err != nil {
						return err
					}
				} else {
					if _, _, err := p.Recv(ctx, 0, 0, CommWorld); err != nil {
						return err
					}
					if err := p.Send(ctx, buf, 0, 0, CommWorld); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err := res.FirstError(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllreduce16Ranks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWorld(Config{Procs: 16})
		res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
			if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
				return err
			}
			data := []float64{float64(p.Rank())}
			for k := 0; k < 10; k++ {
				if _, err := p.Allreduce(ctx, data, OpSum, CommWorld); err != nil {
					return err
				}
			}
			return nil
		})
		if err := res.FirstError(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorldSpawn64Ranks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWorld(Config{Procs: 64})
		res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
			_, err := p.InitThread(ctx, ThreadMultiple)
			return err
		})
		if err := res.FirstError(); err != nil {
			b.Fatal(err)
		}
	}
}
