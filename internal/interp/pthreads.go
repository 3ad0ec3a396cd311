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

// pthreadBuiltins lowers the pthread_* routines.
var pthreadBuiltins = map[string]func(*lowerer, *minic.Call) valFn{
	"pthread_create": lowerPthreadCreate,
	"pthread_join":   lowerPthreadJoin,
	"pthread_self": func(*lowerer, *minic.Call) valFn {
		return func(tc *threadCtx) (Value, error) { return intVal(float64(tc.ctx.TID)), nil }
	},
}

// lowerPthreadCreate lowers pthread_create(&handle, function, [arg]):
// it spawns function(arg) on a new simulated thread and returns its
// handle. The function is bound at lowering.
func lowerPthreadCreate(l *lowerer, c *minic.Call) valFn {
	fail := func(format string, args ...any) valFn {
		return func(*threadCtx) (Value, error) { return Value{}, runtimeError(c.Line, format, args...) }
	}
	if len(c.Args) < 2 {
		return fail("pthread_create needs (&handle, function, [arg])")
	}
	fnIdent, ok := c.Args[1].(*minic.Ident)
	if !ok {
		return fail("pthread_create: second argument must be a function name")
	}
	fn := l.funcs[fnIdent.Name]
	if fn == nil {
		return fail("pthread_create: undefined function %q", fnIdent.Name)
	}
	var arg valFn
	if len(c.Args) > 2 {
		if len(fn.decl.Params) != 1 {
			return fail("pthread_create: %s must take exactly one parameter", fn.decl.Name)
		}
		arg = l.expr(c.Args[2]).val
	} else if len(fn.decl.Params) != 0 {
		return fail("pthread_create: %s takes a parameter but none was passed", fn.decl.Name)
	}
	handleOut := l.assignArg(c, 0)
	return func(tc *threadCtx) (Value, error) {
		var args []Value
		if arg != nil {
			v, err := arg(tc)
			if err != nil {
				return Value{}, err
			}
			args = []Value{v}
		}
		handle := tc.pthreadCreate(fn, args, c.Line)
		if err := handleOut(tc, intVal(float64(handle))); err != nil {
			return Value{}, err
		}
		return intVal(float64(handle)), nil
	}
}

// pthreadCreate spawns fn(args) on a new simulated thread and returns
// its handle.
func (tc *threadCtx) pthreadCreate(fn *function, args []Value, line int) int {
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

	tc.ctx.Emit(trace.Event{Op: trace.OpFork, SyncSeq: syncID.Seq})
	activity := tc.in.world.Activity()
	activity.AddThreads(1)

	child := &threadCtx{
		in:     tc.in,
		ctx:    tc.ctx.Child(tid),
		member: nil, // pthread functions are outside any omp team
	}
	activity.Go(func() {
		child.ctx.Emit(trace.Event{Op: trace.OpBegin, SyncSeq: syncID.Seq})
		_, err := child.callFunction(fn, args, line)
		child.flushSteps()
		child.ctx.Emit(trace.Event{Op: trace.OpEnd, SyncSeq: syncID.Seq})
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
	return handle
}

// lowerPthreadJoin lowers pthread_join(handle): it waits for the
// thread, merging clocks and emitting the join edge.
func lowerPthreadJoin(l *lowerer, c *minic.Call) valFn {
	line := c.Line
	if len(c.Args) == 0 {
		return func(*threadCtx) (Value, error) {
			return Value{}, runtimeError(line, "pthread_join needs one argument")
		}
	}
	handle := l.expr(c.Args[0]).num
	return func(tc *threadCtx) (Value, error) {
		h, err := handle(tc)
		if err != nil {
			return Value{}, err
		}
		return tc.pthreadJoin(int(h), line)
	}
}

func (tc *threadCtx) pthreadJoin(handle, line int) (Value, error) {
	ps := tc.in.pthreads()
	ps.mu.Lock()
	pt := ps.byID[handle]
	ps.mu.Unlock()
	if pt == nil {
		return Value{}, runtimeError(line, "pthread_join: unknown thread handle %d", handle)
	}

	pt.mu.Lock()
	if !pt.done {
		w := new(sim.Waiter)
		pt.waiter = w
		pt.mu.Unlock()
		switch tc.in.world.Activity().Park(w, sim.Desc(tc.ctx.Rank, tc.ctx.TID, "pthread_join")).How {
		case sim.Deadlock:
			return Value{}, runtimeError(line, "global deadlock while joining thread %d", pt.id)
		case sim.Aborted:
			// Rank abort (crash-stop): stop waiting; the spawned thread
			// unwinds on its own.
			return Value{}, &mpi.RankFailureError{Rank: tc.ctx.Rank, Op: "pthread_join"}
		}
		pt.mu.Lock()
	}
	err := pt.err
	endNow := pt.endNow
	pt.mu.Unlock()

	tc.ctx.SyncTo(endNow)
	tc.ctx.Emit(trace.Event{Op: trace.OpJoin, SyncSeq: pt.syncID.Seq})
	if err != nil {
		return Value{}, err
	}
	return intVal(0), nil
}
