package omp

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"home/internal/chaos"
	"home/internal/sim"
	"home/internal/trace"
)

func testCtx() *sim.Ctx {
	costs := sim.DefaultCostModel()
	return sim.NewCtx(0, 0, &costs)
}

func TestParallelForksRequestedThreads(t *testing.T) {
	rt := NewRuntime(0, nil)
	var mu sync.Mutex
	seen := map[int]bool{}
	err := rt.Parallel(testCtx(), 4, func(m *Member) error {
		mu.Lock()
		seen[m.TID] = true
		mu.Unlock()
		if m.NumThreads() != 4 {
			t.Errorf("NumThreads = %d", m.NumThreads())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("saw tids %v, want 4 distinct", seen)
	}
	for tid := 0; tid < 4; tid++ {
		if !seen[tid] {
			t.Errorf("tid %d never ran", tid)
		}
	}
}

func TestParallelDefaultsToSetNumThreads(t *testing.T) {
	rt := NewRuntime(0, nil)
	rt.SetNumThreads(3)
	var n int32
	if err := rt.Parallel(testCtx(), 0, func(m *Member) error {
		atomic.AddInt32(&n, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("ran %d members, want 3", n)
	}
}

func TestNestedParallelSerializes(t *testing.T) {
	rt := NewRuntime(0, nil)
	var inner int32
	err := rt.Parallel(testCtx(), 2, func(m *Member) error {
		return rt.Parallel(m.Ctx, 4, func(im *Member) error {
			atomic.AddInt32(&inner, 1)
			if im.NumThreads() != 1 {
				t.Errorf("nested team size = %d, want 1", im.NumThreads())
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if inner != 2 {
		t.Fatalf("inner bodies = %d, want 2 (one per outer member)", inner)
	}
}

func TestParallelJoinSyncsClock(t *testing.T) {
	rt := NewRuntime(0, nil)
	ctx := testCtx()
	err := rt.Parallel(ctx, 3, func(m *Member) error {
		m.Ctx.Compute(int64(m.TID) * 1000) // tid 2 is slowest
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	min := int64(2000) * sim.DefaultCostModel().ComputeNsPerUnit
	if ctx.Now < min {
		t.Fatalf("parent clock %d did not sync to slowest member (>= %d)", ctx.Now, min)
	}
}

func TestParallelPropagatesError(t *testing.T) {
	rt := NewRuntime(0, nil)
	boom := errors.New("boom")
	err := rt.Parallel(testCtx(), 2, func(m *Member) error {
		if m.TID == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestBarrierSynchronizesMemberClocks(t *testing.T) {
	rt := NewRuntime(0, nil)
	var mu sync.Mutex
	after := map[int]int64{}
	err := rt.Parallel(testCtx(), 4, func(m *Member) error {
		m.Ctx.Compute(int64(m.TID) * 777)
		if err := m.Barrier(); err != nil {
			return err
		}
		mu.Lock()
		after[m.TID] = m.Ctx.Now
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for tid, now := range after {
		if now != after[0] {
			t.Errorf("tid %d released at %d, tid 0 at %d", tid, now, after[0])
		}
	}
}

func TestForStaticCoversRangeExactlyOnce(t *testing.T) {
	rt := NewRuntime(0, nil)
	const n = 103
	var mu sync.Mutex
	counts := make([]int, n)
	err := rt.Parallel(testCtx(), 4, func(m *Member) error {
		return m.For(0, n, ScheduleStatic, 0, func(i int64) error {
			mu.Lock()
			counts[i]++
			mu.Unlock()
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("iteration %d executed %d times", i, c)
		}
	}
}

func TestForStaticChunkAndDynamicAndGuidedCoverage(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sched Schedule
		chunk int64
	}{
		{"static-chunk3", ScheduleStatic, 3},
		{"dynamic", ScheduleDynamic, 2},
		{"guided", ScheduleGuided, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := NewRuntime(0, nil)
			const n = 57
			var mu sync.Mutex
			counts := make([]int, n)
			err := rt.Parallel(testCtx(), 3, func(m *Member) error {
				return m.For(0, n, tc.sched, tc.chunk, func(i int64) error {
					mu.Lock()
					counts[i]++
					mu.Unlock()
					return nil
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("iteration %d executed %d times", i, c)
				}
			}
		})
	}
}

func TestForStaticDeterministicAssignment(t *testing.T) {
	// The default static schedule must give thread k a contiguous
	// block, identical across runs.
	run := func() map[int][]int64 {
		rt := NewRuntime(0, nil)
		var mu sync.Mutex
		got := map[int][]int64{}
		if err := rt.Parallel(testCtx(), 3, func(m *Member) error {
			return m.For(0, 10, ScheduleStatic, 0, func(i int64) error {
				mu.Lock()
				got[m.TID] = append(got[m.TID], i)
				mu.Unlock()
				return nil
			})
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	for tid := 0; tid < 3; tid++ {
		av, bv := a[tid], b[tid]
		sort.Slice(av, func(i, j int) bool { return av[i] < av[j] })
		sort.Slice(bv, func(i, j int) bool { return bv[i] < bv[j] })
		if len(av) != len(bv) {
			t.Fatalf("tid %d: %v vs %v", tid, av, bv)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("tid %d: %v vs %v", tid, av, bv)
			}
		}
		// Contiguity.
		for i := 1; i < len(av); i++ {
			if av[i] != av[i-1]+1 {
				t.Fatalf("tid %d block not contiguous: %v", tid, av)
			}
		}
	}
}

func TestSectionsEachRunsOnce(t *testing.T) {
	rt := NewRuntime(0, nil)
	var a, b, c int32
	err := rt.Parallel(testCtx(), 2, func(m *Member) error {
		return m.Sections(
			func() error { atomic.AddInt32(&a, 1); return nil },
			func() error { atomic.AddInt32(&b, 1); return nil },
			func() error { atomic.AddInt32(&c, 1); return nil },
		)
	})
	if err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 1 || c != 1 {
		t.Fatalf("sections ran a=%d b=%d c=%d, want 1 each", a, b, c)
	}
}

func TestSingleRunsExactlyOnce(t *testing.T) {
	rt := NewRuntime(0, nil)
	var n int32
	err := rt.Parallel(testCtx(), 4, func(m *Member) error {
		for i := 0; i < 5; i++ {
			if err := m.Single(func() error { atomic.AddInt32(&n, 1); return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("single bodies ran %d times, want 5", n)
	}
}

func TestMasterRunsOnlyThreadZero(t *testing.T) {
	rt := NewRuntime(0, nil)
	var mu sync.Mutex
	var tids []int
	err := rt.Parallel(testCtx(), 4, func(m *Member) error {
		return m.Master(func() error {
			mu.Lock()
			tids = append(tids, m.TID)
			mu.Unlock()
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tids) != 1 || tids[0] != 0 {
		t.Fatalf("master ran on tids %v", tids)
	}
}

func TestCriticalMutualExclusion(t *testing.T) {
	rt := NewRuntime(0, nil)
	var depth, maxDepth, total int32
	err := rt.Parallel(testCtx(), 8, func(m *Member) error {
		for i := 0; i < 50; i++ {
			if err := m.Critical("cs", func() error {
				d := atomic.AddInt32(&depth, 1)
				if d > atomic.LoadInt32(&maxDepth) {
					atomic.StoreInt32(&maxDepth, d)
				}
				atomic.AddInt32(&total, 1)
				atomic.AddInt32(&depth, -1)
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxDepth != 1 {
		t.Fatalf("critical section reentered: max depth %d", maxDepth)
	}
	if total != 400 {
		t.Fatalf("total = %d, want 400", total)
	}
}

func TestNamedCriticalSectionsAreIndependent(t *testing.T) {
	// Two differently named critical sections must be able to overlap;
	// verify they use distinct locks by checking virtual-time
	// serialization applies per name: a thread in section "x" does not
	// push the release time of section "y".
	rt := NewRuntime(0, nil)
	lx := rt.lock("$critical:x")
	ly := rt.lock("$critical:y")
	if lx == ly {
		t.Fatal("named sections share a lock")
	}
}

func TestLockUnlock(t *testing.T) {
	rt := NewRuntime(0, nil)
	var inCS int32
	err := rt.Parallel(testCtx(), 4, func(m *Member) error {
		for i := 0; i < 20; i++ {
			if err := m.Lock("l"); err != nil {
				return err
			}
			if atomic.AddInt32(&inCS, 1) != 1 {
				t.Error("lock failed to exclude")
			}
			atomic.AddInt32(&inCS, -1)
			m.Unlock("l")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCriticalSerializesVirtualTime(t *testing.T) {
	rt := NewRuntime(0, nil)
	var mu sync.Mutex
	var spans [][2]int64
	err := rt.Parallel(testCtx(), 4, func(m *Member) error {
		return m.Critical("t", func() error {
			start := m.Ctx.Now
			m.Ctx.Compute(1000)
			mu.Lock()
			spans = append(spans, [2]int64{start, m.Ctx.Now})
			mu.Unlock()
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	for i := 1; i < len(spans); i++ {
		if spans[i][0] < spans[i-1][1] {
			t.Fatalf("virtual-time spans overlap: %v", spans)
		}
	}
}

func TestInstrumentationEmitsForkJoinBarrierEvents(t *testing.T) {
	rt := NewRuntime(0, nil)
	log := trace.NewLog()
	ctx := testCtx()
	ctx.Sink = log
	err := rt.Parallel(ctx, 2, func(m *Member) error {
		if err := m.Barrier(); err != nil {
			return err
		}
		return m.Critical("c", func() error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[trace.Op]int{}
	for _, e := range log.Events() {
		counts[e.Op]++
	}
	if counts[trace.OpFork] != 1 || counts[trace.OpJoin] != 1 {
		t.Errorf("fork/join counts: %v", counts)
	}
	if counts[trace.OpBegin] != 1 || counts[trace.OpEnd] != 1 {
		t.Errorf("begin/end counts (one worker): %v", counts)
	}
	if counts[trace.OpBarrier] != 2 {
		t.Errorf("barrier events = %d, want 2", counts[trace.OpBarrier])
	}
	if counts[trace.OpAcquire] != 2 || counts[trace.OpRelease] != 2 {
		t.Errorf("lock events: %v", counts)
	}
}

func TestUninstrumentedEmitsNothing(t *testing.T) {
	rt := NewRuntime(0, nil)
	err := rt.Parallel(testCtx(), 2, func(m *Member) error {
		return m.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// No sink; nothing to assert beyond absence of panics, but also
	// verify Instrumented is false on fresh contexts.
	if testCtx().Instrumented() {
		t.Fatal("fresh ctx should be uninstrumented")
	}
}

func TestTeamOfOneConstructsWork(t *testing.T) {
	rt := NewRuntime(0, nil)
	var n int
	err := rt.Parallel(testCtx(), 1, func(m *Member) error {
		if err := m.Barrier(); err != nil {
			return err
		}
		if err := m.For(0, 5, ScheduleDynamic, 2, func(i int64) error { n++; return nil }); err != nil {
			return err
		}
		return m.Single(func() error { n++; return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("n = %d, want 6", n)
	}
}

// keyRecorder collects the keys of recorded schedule decisions.
type keyRecorder struct {
	mu   sync.Mutex
	keys []chaos.Key
}

func (r *keyRecorder) Record(rec chaos.Record) {
	r.mu.Lock()
	r.keys = append(r.keys, rec.Key())
	r.mu.Unlock()
}

// TestScheduleKeysUniqueAcrossRegions pins that a thread's schedule
// points and construct keys continue from one parallel region to the
// next: the lock grants and single wins recorded over three regions
// never share a (kind, rank, tid, seq) key, which a schedule stream
// requires, and each region's single is keyed by the thread's run-wide
// construct count whichever thread wins it.
func TestScheduleKeysUniqueAcrossRegions(t *testing.T) {
	rt := NewRuntime(0, nil)
	in := chaos.New(&chaos.Plan{}, nil)
	rec := &keyRecorder{}
	in.SetRecorder(rec)
	rt.SetChaos(in)
	ctx := testCtx()
	const regions = 3
	for i := 0; i < regions; i++ {
		if err := rt.Parallel(ctx, 2, func(m *Member) error {
			if err := m.Critical("cs", func() error { return nil }); err != nil {
				return err
			}
			return m.Single(func() error { return nil })
		}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[chaos.Key]bool{}
	var singles []uint64
	for _, k := range rec.keys {
		if seen[k] {
			t.Errorf("duplicate record key %v", k)
		}
		seen[k] = true
		if k.Kind == chaos.KindSingle {
			singles = append(singles, k.Seq)
		}
	}
	if len(rec.keys) != 3*regions {
		t.Errorf("recorded %d decisions, want %d (two lock grants and one single per region)", len(rec.keys), 3*regions)
	}
	// Each region costs every thread two constructs: the single and its
	// implicit barrier.
	sort.Slice(singles, func(i, j int) bool { return singles[i] < singles[j] })
	if len(singles) != regions || singles[0] != 1 || singles[1] != 3 || singles[2] != 5 {
		t.Errorf("single keys = %v, want [1 3 5]", singles)
	}
}
