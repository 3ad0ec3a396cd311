package interp

import (
	"sync"

	"home/internal/minic"
	"home/internal/mpi"
	"home/internal/sim"
	"home/internal/trace"
)

// PThreads-style explicit threading — the paper's future work
// ("extending HOME to handle not only MPI and OpenMP but also the
// other distributed and shared memory programming model, like UPC and
// PThreads Programming").
//
// MiniHPC exposes:
//
//	int t;
//	pthread_create(&t, worker, arg);   // run worker(arg) on a new thread
//	pthread_join(t);                   // wait for it
//	pthread_self();                    // current thread id
//
// Spawned threads share the process's globals and MPI state, carry
// their own thread ids (allocated above the OpenMP team range), emit
// the same fork/begin/end/join events the happens-before analysis
// consumes, and register with the deadlock watchdog. The HOME static
// filter is omp-region based and therefore blind to MPI calls made
// from pthread functions — exactly the gap the paper defers — unless
// the Interprocedural option is on, which treats pthread_create's
// function argument as a parallel-context root.

// pthreadBase is the first thread id handed to explicit threads,
// keeping them disjoint from OpenMP team ids.
const pthreadBase = 100

// pthread is one spawned thread's completion state.
type pthread struct {
	id     int
	tid    int
	syncID trace.SyncID
	mu     sync.Mutex
	done   bool
	waiter *sim.Waiter // the parked pthread_join, if any
	err    error
	endNow int64
}

// pthreadState is the per-instance registry.
type pthreadState struct {
	mu      sync.Mutex
	next    int // handle allocator
	nextTID int
	byID    map[int]*pthread
	syncSeq uint64
}

func (in *Instance) pthreads() *pthreadState {
	in.ptOnce.Do(func() {
		in.pt = &pthreadState{next: 1, nextTID: pthreadBase, byID: make(map[int]*pthread)}
	})
	return in.pt
}

// pthreadCreate spawns fn(arg) on a new simulated thread and returns
// its handle.
func (tc *threadCtx) pthreadCreate(c *minic.Call) (Value, error) {
	if len(c.Args) < 2 {
		return Value{}, runtimeError(c.Line, "pthread_create needs (&handle, function, [arg])")
	}
	fnIdent, ok := c.Args[1].(*minic.Ident)
	if !ok {
		return Value{}, runtimeError(c.Line, "pthread_create: second argument must be a function name")
	}
	fn := tc.in.prog.Func(fnIdent.Name)
	if fn == nil {
		return Value{}, runtimeError(c.Line, "pthread_create: undefined function %q", fnIdent.Name)
	}
	var args []Value
	if len(c.Args) > 2 {
		if len(fn.Params) != 1 {
			return Value{}, runtimeError(c.Line, "pthread_create: %s must take exactly one parameter", fn.Name)
		}
		v, err := tc.evalExpr(c.Args[2])
		if err != nil {
			return Value{}, err
		}
		args = []Value{v}
	} else if len(fn.Params) != 0 {
		return Value{}, runtimeError(c.Line, "pthread_create: %s takes a parameter but none was passed", fn.Name)
	}

	ps := tc.in.pthreads()
	ps.mu.Lock()
	handle := ps.next
	ps.next++
	tid := ps.nextTID
	ps.nextTID++
	ps.syncSeq++
	// A distinct sync-id space from the omp runtime's (rank is offset
	// so episodes never collide with omp SyncIDs of the same rank).
	syncID := trace.SyncID{Rank: tc.ctx.Rank, Seq: 1_000_000 + ps.syncSeq}
	pt := &pthread{id: handle, tid: tid, syncID: syncID}
	ps.byID[handle] = pt
	ps.mu.Unlock()

	tc.ctx.Emit(trace.Event{Op: trace.OpFork, Sync: syncID})
	activity := tc.in.world.Activity()
	activity.AddThreads(1)

	child := &threadCtx{
		in:     tc.in,
		ctx:    tc.ctx.Child(tid),
		member: nil, // pthread functions are outside any omp team
	}
	activity.Go(func() {
		child.ctx.Emit(trace.Event{Op: trace.OpBegin, Sync: syncID})
		_, err := child.callFunction(fn, args, c.Line)
		child.flushSteps()
		child.ctx.Emit(trace.Event{Op: trace.OpEnd, Sync: syncID})
		child.ctx.Finish()
		pt.mu.Lock()
		pt.done = true
		pt.err = err
		pt.endNow = child.ctx.Now
		if pt.waiter != nil {
			activity.Unpark(pt.waiter, nil)
		}
		pt.mu.Unlock()
		activity.DoneThread()
	})

	if err := tc.assignArg(c, 0, intVal(float64(handle))); err != nil {
		return Value{}, err
	}
	return intVal(float64(handle)), nil
}

// pthreadJoin waits for the handled thread, merging clocks and
// emitting the join edge.
func (tc *threadCtx) pthreadJoin(c *minic.Call) (Value, error) {
	handleV, err := tc.evalExpr(c.Args[0])
	if err != nil {
		return Value{}, err
	}
	ps := tc.in.pthreads()
	ps.mu.Lock()
	pt := ps.byID[handleV.Int()]
	ps.mu.Unlock()
	if pt == nil {
		return Value{}, runtimeError(c.Line, "pthread_join: unknown thread handle %d", handleV.Int())
	}

	pt.mu.Lock()
	if !pt.done {
		w := new(sim.Waiter)
		pt.waiter = w
		pt.mu.Unlock()
		switch tc.in.world.Activity().Park(w, sim.Desc(tc.ctx.Rank, tc.ctx.TID, "pthread_join")).How {
		case sim.Deadlock:
			return Value{}, runtimeError(c.Line, "global deadlock while joining thread %d", pt.id)
		case sim.Aborted:
			// Rank abort (crash-stop): stop waiting; the spawned thread
			// unwinds on its own.
			return Value{}, &mpi.RankFailureError{Rank: tc.ctx.Rank, Op: "pthread_join"}
		}
		pt.mu.Lock()
	}
	err = pt.err
	endNow := pt.endNow
	pt.mu.Unlock()

	tc.ctx.SyncTo(endNow)
	tc.ctx.Emit(trace.Event{Op: trace.OpJoin, Sync: pt.syncID})
	if err != nil {
		return Value{}, err
	}
	return intVal(0), nil
}
