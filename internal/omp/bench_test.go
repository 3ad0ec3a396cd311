package omp

import (
	"testing"
)

func BenchmarkParallelForkJoin(b *testing.B) {
	rt := NewRuntime(0, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := rt.Parallel(testCtx(), 4, func(m *Member) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBarrier(b *testing.B) {
	rt := NewRuntime(0, nil)
	b.ReportAllocs()
	if err := rt.Parallel(testCtx(), 4, func(m *Member) error {
		for i := 0; i < b.N; i++ {
			if err := m.Barrier(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkCriticalSection(b *testing.B) {
	rt := NewRuntime(0, nil)
	b.ReportAllocs()
	if err := rt.Parallel(testCtx(), 4, func(m *Member) error {
		for i := 0; i < b.N; i++ {
			if err := m.Critical("b", func() error { return nil }); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkForDynamic(b *testing.B) {
	rt := NewRuntime(0, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := rt.Parallel(testCtx(), 4, func(m *Member) error {
			return m.For(0, 256, ScheduleDynamic, 8, func(int64) error { return nil })
		}); err != nil {
			b.Fatal(err)
		}
	}
}
