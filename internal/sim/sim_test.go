package sim

import (
	"sync"
	"testing"
	"testing/quick"

	"home/internal/trace"
)

func TestGIDRoundTrip(t *testing.T) {
	f := func(rank, tid uint16) bool {
		r := int(rank) % 4096
		d := int(tid) % MaxThreadsPerRank
		gr, gd := RankTID(GID(r, d))
		return gr == r && gd == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGIDDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for r := 0; r < 8; r++ {
		for d := 0; d < 8; d++ {
			g := int64(GID(r, d))
			if seen[g] {
				t.Fatalf("GID collision at (%d,%d)", r, d)
			}
			seen[g] = true
		}
	}
}

func TestCtxAdvanceAndSyncTo(t *testing.T) {
	costs := DefaultCostModel()
	c := NewCtx(0, 0, &costs)
	c.Advance(100)
	if c.Now != 100 {
		t.Fatalf("Now = %d", c.Now)
	}
	c.Advance(-50) // negative ignored
	if c.Now != 100 {
		t.Fatalf("negative advance changed clock: %d", c.Now)
	}
	c.SyncTo(50) // backwards ignored
	if c.Now != 100 {
		t.Fatalf("SyncTo went backwards: %d", c.Now)
	}
	c.SyncTo(300)
	if c.Now != 300 {
		t.Fatalf("SyncTo = %d", c.Now)
	}
}

func TestCtxComputeUsesCostModel(t *testing.T) {
	costs := DefaultCostModel()
	c := NewCtx(0, 0, &costs)
	c.Compute(10)
	if c.Now != 10*costs.ComputeNsPerUnit {
		t.Fatalf("Now = %d", c.Now)
	}
}

func TestCtxEmitNoSinkIsFree(t *testing.T) {
	costs := DefaultCostModel()
	costs.EmitNs = 1000
	c := NewCtx(0, 0, &costs)
	c.Emit(trace.Event{Op: trace.OpRead})
	if c.Now != 0 {
		t.Fatalf("uninstrumented emit charged time: %d", c.Now)
	}
}

func TestCtxEmitStampsAndCharges(t *testing.T) {
	costs := DefaultCostModel()
	costs.EmitNs = 30
	costs.AnalysisNsPerEvent = 70
	log := trace.NewLog()
	c := NewCtx(3, 1, &costs)
	c.Sink = log
	c.Advance(500)
	c.EmitAccess(trace.OpWrite, "x")
	if c.Now != 600 {
		t.Fatalf("emit cost not charged: %d", c.Now)
	}
	evs := log.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	e := evs[0]
	if e.Rank != 3 || e.TID != 1 || e.Time != 600 || e.Loc.Name != "x" || e.Loc.Rank != 3 {
		t.Fatalf("event = %+v", e)
	}
}

func TestChildInheritsClockAndSink(t *testing.T) {
	costs := DefaultCostModel()
	log := trace.NewLog()
	k := &TimeKeeper{}
	c := NewCtx(0, 0, &costs)
	c.Sink = log
	c.Keeper = k
	c.Advance(123)
	ch := c.Child(2)
	if ch.Now != 123 || ch.TID != 2 || ch.Rank != 0 || ch.Sink == nil || ch.Keeper != k {
		t.Fatalf("child = %+v", ch)
	}
}

func TestTimeKeeperMax(t *testing.T) {
	k := &TimeKeeper{}
	var wg sync.WaitGroup
	for i := 1; i <= 100; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			k.Observe(n)
		}(int64(i))
	}
	wg.Wait()
	if k.Makespan() != 100 {
		t.Fatalf("makespan = %d", k.Makespan())
	}
}

func TestFinishReportsToKeeper(t *testing.T) {
	costs := DefaultCostModel()
	k := &TimeKeeper{}
	c := NewCtx(0, 0, &costs)
	c.Keeper = k
	c.Advance(42)
	c.Finish()
	if k.Makespan() != 42 {
		t.Fatalf("makespan = %d", k.Makespan())
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int64{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 64: 6, 128: 7}
	for n, want := range cases {
		if got := Log2Ceil(n); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestActivityLifecycle(t *testing.T) {
	a := NewActivity()
	a.AddThreads(2)
	if act, blk := a.Counts(); act != 2 || blk != 0 {
		t.Fatalf("counts = %d,%d", act, blk)
	}
	_ = a.Block()
	if a.Deadlocked() {
		t.Fatal("one of two blocked should not trip")
	}
	a.Unblock()
	a.DoneThread()
	a.DoneThread()
	if a.Deadlocked() {
		t.Fatal("clean shutdown tripped the watchdog")
	}
}

func TestActivityTripsWhenAllBlocked(t *testing.T) {
	a := NewActivity()
	a.AddThreads(2)
	_ = a.Block()
	dead := a.Block()
	select {
	case <-dead:
	default:
		t.Fatal("latch should be closed when all threads block")
	}
	if !a.Deadlocked() {
		t.Fatal("Deadlocked() should report true")
	}
}

func TestActivityTripsOnLastThreadExit(t *testing.T) {
	a := NewActivity()
	a.AddThreads(2)
	_ = a.Block()  // thread 1 blocked forever
	a.DoneThread() // thread 2 exits
	if !a.Deadlocked() {
		t.Fatal("remaining thread is blocked; watchdog should trip")
	}
}

func TestActivityNoTripWithZeroThreads(t *testing.T) {
	a := NewActivity()
	a.AddThreads(1)
	a.DoneThread()
	if a.Deadlocked() {
		t.Fatal("no live threads is not a deadlock")
	}
}

func TestActivityTransientUnderCountTolerated(t *testing.T) {
	// Waker-decrements-first protocol: Unblock before the waked
	// thread's own Block must not trip or panic.
	a := NewActivity()
	a.AddThreads(2)
	a.Unblock() // pre-decrement (blocked = -1)
	_ = a.Block()
	_ = a.Block()
	if a.Deadlocked() {
		t.Fatal("transient undercount should delay, not trip")
	}
	_ = a.Block() // compensation arrives
	if !a.Deadlocked() {
		t.Fatal("all genuinely blocked now")
	}
}

func TestDefaultCostModelSane(t *testing.T) {
	c := DefaultCostModel()
	if c.ComputeNsPerUnit <= 0 || c.MsgLatencyNs <= 0 || c.MPICallNs <= 0 {
		t.Fatalf("defaults not positive: %+v", c)
	}
	if c.EmitNs != 0 || c.AnalysisNsPerEvent != 0 {
		t.Fatalf("default model must be uninstrumented: %+v", c)
	}
}
