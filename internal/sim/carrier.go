package sim

// Lane carriers. A lane (a rank's main thread, an OpenMP worker, a
// pthread) runs on a carrier goroutine that Go hands it. A carrier
// whose lane returns waits idle for the next lane of the same run, so
// a worker starts on a stack that earlier lanes have already grown
// through the interpreter's recursion instead of a fresh 8 KB one.
//
// An idle carrier is not a lane: it is never counted by AddThreads,
// so the watchdog never sees it.

// carrier is one idle carrier's hand-off: Go sends it the next lane,
// EndCarriers closes it. One slot of buffer lets Go hand off without
// waiting for the carrier to reach its receive.
type carrier chan func()

// Go runs f on the most recently idled carrier of this Activity, whose
// stack is the most likely still grown, or on a new carrier. After
// EndCarriers it runs f on a carrier that exits when f returns.
func (a *Activity) Go(f func()) {
	a.cmu.Lock()
	if n := len(a.idle); n > 0 {
		c := a.idle[n-1]
		a.idle = a.idle[:n-1]
		a.cmu.Unlock()
		c <- f
		return
	}
	a.cmu.Unlock()
	go a.carry(f)
}

// carry runs f, then each lane Go hands it, until EndCarriers.
func (a *Activity) carry(f func()) {
	c := make(carrier, 1)
	for f != nil {
		f()
		a.cmu.Lock()
		if a.ended {
			a.cmu.Unlock()
			return
		}
		a.idle = append(a.idle, c)
		a.cmu.Unlock()
		f = <-c
	}
}

// EndCarriers ends every idle carrier, and every busy one once its
// lane returns. Go still works afterwards, one carrier per lane.
func (a *Activity) EndCarriers() {
	a.cmu.Lock()
	idle := a.idle
	a.idle, a.ended = nil, true
	a.cmu.Unlock()
	for _, c := range idle {
		close(c)
	}
}
