package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// idleCarriers returns how many carriers wait for a lane.
func idleCarriers(a *Activity) int {
	a.cmu.Lock()
	defer a.cmu.Unlock()
	return len(a.idle)
}

// waitGoroutines polls for up to a second until at most n goroutines
// run. Goroutines of earlier tests may still be exiting, so the count
// is bounded from above, not matched.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// Back-to-back lanes, each started once the previous one's carrier is
// idle again, all run on one carrier, and EndCarriers ends it.
func TestGoReusesOneCarrier(t *testing.T) {
	base := runtime.NumGoroutine()
	a := NewActivity()
	done := make(chan struct{})
	for i := 0; i < 1000; i++ {
		a.Go(func() { done <- struct{}{} })
		<-done
		for idleCarriers(a) == 0 {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > base+1 {
			t.Fatalf("lane %d: %d goroutines, want at most %d: a second carrier started", i, n, base+1)
		}
	}
	a.EndCarriers()
	waitGoroutines(t, base)

	// After EndCarriers a lane still runs, and its carrier exits with it.
	a.Go(func() { done <- struct{}{} })
	<-done
	waitGoroutines(t, base)
	if n := idleCarriers(a); n != 0 {
		t.Fatalf("%d idle carriers after EndCarriers, want 0", n)
	}
}

// A carrier busy when EndCarriers runs exits once its lane returns.
func TestEndCarriersEndsBusyCarrierAfterItsLane(t *testing.T) {
	base := runtime.NumGoroutine()
	a := NewActivity()
	release, done := make(chan struct{}), make(chan struct{})
	a.Go(func() {
		<-release
		close(done)
	})
	a.EndCarriers()
	close(release)
	<-done
	waitGoroutines(t, base)
	if n := idleCarriers(a); n != 0 {
		t.Fatalf("%d idle carriers, want 0", n)
	}
}

// WaitLanes returns only once every lane has called DoneThread,
// including a lane the deadlock woke that is still unwinding.
func TestWaitLanesOutlastsDeadlockUnwinding(t *testing.T) {
	a := NewActivity()
	a.AddThreads(2)
	var unwound atomic.Bool
	a.Go(func() {
		a.Park(new(Waiter), Desc(0, 1, "worker wait"))
		time.Sleep(20 * time.Millisecond) // the woken lane's unwinding
		unwound.Store(true)
		a.DoneThread()
	})
	a.Go(func() {
		a.Park(new(Waiter), Desc(0, 0, "master wait"))
		a.DoneThread()
	})
	a.WaitLanes()
	if !a.Deadlocked() || !unwound.Load() {
		t.Fatalf("WaitLanes returned with deadlocked = %v, unwound = %v", a.Deadlocked(), unwound.Load())
	}
	a.EndCarriers()
}
