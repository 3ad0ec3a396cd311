// Package interp executes MiniHPC programs on the simulated cluster:
// one interpreter instance per MPI rank, with OpenMP constructs
// running on the omp substrate and MPI builtins on the mpi runtime.
//
// The interpreter is where the paper's "MPI wrapper" instrumentation
// lives: when a Plan from the static phase selects a call site and a
// trace sink is installed, the MPI builtins behave as the HMPI_*
// wrappers of §IV-B — they write the monitored variables (srctmp,
// tagtmp, commtmp, requesttmp, collectivetmp, finalizetmp), record the
// call's argument list and thread id, and then perform the real MPI
// operation. OpenMP constructs emit fork/join/barrier/lock events
// through the omp substrate automatically whenever a sink is present.
//
// The interpreter also supports the baseline tool models: a
// MonitorAllAccesses mode that emits an event for every user-variable
// access (Intel Thread Checker's whole-program monitoring) and a
// per-call hook (Marmot's centralized call manager).
package interp

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"home/internal/chaos"
	"home/internal/minic"
	"home/internal/mpi"
	"home/internal/obs"
	"home/internal/obs/live"
	"home/internal/omp"
	"home/internal/sim"
	"home/internal/trace"
)

// Config parameterizes one simulated run of a program.
type Config struct {
	// Procs is the number of MPI ranks (default 1).
	Procs int
	// Threads seeds omp_set_num_threads before main (programs may
	// override); default 2 matches the paper's experiments.
	Threads int
	// Seed identifies the run. The simulation is deterministic and
	// draws no randomness from it; fault injection is seeded by the
	// Chaos plan.
	Seed int64
	// Costs overrides the virtual-time cost model (zero value =
	// sim.DefaultCostModel plus the tool's own terms).
	Costs sim.CostModel
	// EnforceThreadLevel passes through to the MPI runtime.
	EnforceThreadLevel bool

	// Instrument selects MPI call sites to run through the monitored
	// wrappers (nil = none). Typically static.Plan.Instrument.
	Instrument func(callID int) bool
	// Sink receives instrumentation events (nil = uninstrumented).
	Sink trace.Sink
	// MonitorAllAccesses additionally emits an event for every user
	// variable access (the ITC model). Requires Sink.
	MonitorAllAccesses bool
	// CallHook, if set, runs on every instrumented MPI call after the
	// wrapper events (the Marmot central-manager model charges its
	// serialization cost here).
	CallHook func(ctx *sim.Ctx, rec *trace.MPICall)

	// MaxSteps bounds interpreted statements per run (0 = default).
	MaxSteps int64
	// StmtCostNs is virtual time charged per interpreted statement.
	StmtCostNs int64
	// MaxArrayElems bounds a single array declaration (0 = the default
	// 1<<26 elements); fuzzing lowers it to keep memory bounded.
	MaxArrayElems int

	// Stats, when non-nil, collects runtime counters from the
	// interpreter and both substrates (statements executed,
	// builtin-call mix, message/collective/lock activity).
	Stats *obs.Registry

	// Chaos, when non-nil, enables deterministic fault injection in the
	// substrates (see internal/chaos).
	Chaos *chaos.Plan
	// SchedRecorder, when non-nil, records the run's realized fault
	// schedule for later replay (see internal/sched); passes through to
	// the MPI runtime.
	SchedRecorder chaos.Recorder
	// SchedSource, when non-nil, replays a recorded fault schedule
	// instead of deciding faults from the plan seed; passes through to
	// the MPI runtime.
	SchedSource chaos.Source
	// WatchdogGraceNs passes through to the MPI runtime's deadlock
	// watchdog (grace for injected transient stalls; 0 = default).
	WatchdogGraceNs int64

	// Live, when non-nil, is the run's telemetry-plane handle: the
	// interpreter attaches the runtime's watchdog to it (the source of
	// the live blocked-op table) and publishes periodic stats-snapshot
	// deltas from the statement loop. Publication only reads — it
	// cannot perturb virtual time or schedules.
	Live *live.RunHandle
}

// DefaultMaxSteps bounds runaway programs.
const DefaultMaxSteps = 200_000_000

// Result summarizes an interpreted run.
type Result struct {
	// Makespan is the virtual execution time in nanoseconds.
	Makespan int64
	// Deadlocked reports whether the deadlock watchdog tripped.
	Deadlocked bool
	// Errs holds per-rank errors (program errors, ErrDeadlock, ...).
	Errs []error
	// Output is the interleaved print/printf output of all ranks.
	Output string
	// ExitCodes holds main's return value per rank.
	ExitCodes []int
	// BlockedOps describes, when Deadlocked, what every stuck thread
	// was waiting for.
	BlockedOps []string
	// DeadRanks lists ranks that crash-stopped during the run (chaos
	// fault injection), sorted.
	DeadRanks []int
}

// FirstError returns the first per-rank error, if any.
func (r *Result) FirstError() error {
	for _, e := range r.Errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// Sentinel errors.
var (
	// ErrStepBudget reports a runaway program.
	ErrStepBudget = errors.New("interp: statement budget exhausted (infinite loop?)")
)

// RuntimeError is a program-level error carrying its source line. Its
// string form keeps the established "runtime error at line N: ..."
// shape.
type RuntimeError struct {
	Line int
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime error at line %d: %s", e.Line, e.Msg)
}

// runtimeError wraps a program-level error with its source line.
func runtimeError(line int, format string, args ...any) error {
	return &RuntimeError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Instance is the per-rank interpreter state.
type Instance struct {
	prog    *minic.Program
	conf    *Config
	proc    *mpi.Proc
	rt      *omp.Runtime
	world   *mpi.World
	globals *env
	out     *output
	steps   *int64 // shared across ranks: global budget
	maxStep int64
	chaosOn bool

	// irecvBufs tracks pending Irecv destination buffers until
	// Wait/Test completes them.
	irecvMu   sync.Mutex
	irecvBufs map[*mpi.Request]irecvTarget

	// pt holds the explicit-thread (pthread_*) registry, created on
	// first use.
	ptOnce sync.Once
	pt     *pthreadState
}

// output collects program prints across ranks.
type output struct {
	mu sync.Mutex
	b  strings.Builder
}

func (o *output) printf(format string, args ...any) {
	o.mu.Lock()
	fmt.Fprintf(&o.b, format, args...)
	o.mu.Unlock()
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.String()
}

// Run executes the program under the given configuration.
func Run(prog *minic.Program, conf Config) *Result {
	if conf.Procs <= 0 {
		conf.Procs = 1
	}
	if conf.Threads <= 0 {
		conf.Threads = 2
	}
	if conf.MaxSteps <= 0 {
		conf.MaxSteps = DefaultMaxSteps
	}
	if conf.StmtCostNs == 0 {
		conf.StmtCostNs = 5
	}
	world := mpi.NewWorld(mpi.Config{
		Procs:              conf.Procs,
		Costs:              conf.Costs,
		EnforceThreadLevel: conf.EnforceThreadLevel,
		Stats:              conf.Stats,
		Chaos:              conf.Chaos,
		SchedRecorder:      conf.SchedRecorder,
		SchedSource:        conf.SchedSource,
		WatchdogGraceNs:    conf.WatchdogGraceNs,
	})
	conf.Live.AttachActivity(world.Activity())
	out := &output{}
	var steps int64
	exitCodes := make([]int, conf.Procs)

	res := world.Run(func(p *mpi.Proc, ctx *sim.Ctx) error {
		ctx.Sink = conf.Sink
		in := &Instance{
			prog:    prog,
			conf:    &conf,
			proc:    p,
			rt:      omp.NewRuntime(p.Rank(), world.Activity()),
			world:   world,
			globals: newEnv(nil),
			out:     out,
			steps:   &steps,
			maxStep: conf.MaxSteps,
			chaosOn: conf.Chaos != nil || conf.SchedRecorder != nil || conf.SchedSource != nil,
		}
		in.rt.SetNumThreads(conf.Threads)
		in.rt.SetStats(conf.Stats)
		in.rt.SetChaos(world.Chaos())
		tc := &threadCtx{in: in, ctx: ctx, env: in.globals}
		// Evaluate globals per process (each rank has its own memory).
		for _, g := range prog.Globals {
			if _, err := tc.execStmt(g); err != nil {
				return err
			}
		}
		code, err := tc.callFunction(prog.Func("main"), nil, 0)
		if err != nil {
			return err
		}
		exitCodes[p.Rank()] = code.Int()
		return nil
	})

	conf.Stats.Counter("interp.statements").Add(atomic.LoadInt64(&steps))

	return &Result{
		Makespan:   res.Makespan,
		Deadlocked: res.Deadlocked,
		Errs:       res.Errs,
		Output:     out.String(),
		ExitCodes:  exitCodes,
		BlockedOps: res.BlockedOps,
		DeadRanks:  res.DeadRanks,
	}
}

// threadCtx is one simulated thread's interpreter state.
type threadCtx struct {
	in     *Instance
	ctx    *sim.Ctx
	member *omp.Member // nil outside parallel regions
	env    *env
	status mpi.Status // last MPI status (per thread, like thread-local storage)
	ret    Value      // value carried by ctrlReturn
}

// ctrl is statement-level control flow.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// child builds a scope-nested context on the same thread.
func (tc *threadCtx) child() *threadCtx {
	cp := *tc
	cp.env = newEnv(tc.env)
	return &cp
}

// bumpStep enforces the global statement budget and charges the
// per-statement virtual cost. On a crash-stopped rank it aborts the
// thread's compute loops too, so a dead rank stops executing rather
// than running on without a working MPI library.
func (tc *threadCtx) bumpStep() error {
	n := atomic.AddInt64(tc.in.steps, 1)
	if n > tc.in.maxStep {
		return ErrStepBudget
	}
	// Telemetry tick: each counter value is observed by exactly one
	// thread, so the publication points are a deterministic function of
	// the run; the tick itself only reads (no virtual-time effect).
	tc.in.conf.Live.StepTick(n, tc.ctx.Now)
	if tc.in.chaosOn {
		if inj := tc.in.world.Chaos(); inj.SchedActive() {
			// Which statement of a crash-stopped rank first observes
			// the dead flag is host-racy (the flag flips while peers
			// keep computing): record/replay forces the observation to
			// the recorded statement index.
			q := tc.ctx.NextSchedSeq()
			if inj.Replaying() {
				if dead, ok := inj.ReplayFail(tc.ctx.Rank, tc.ctx.TID, q); ok {
					return &mpi.RankFailureError{Rank: dead, Op: "statement"}
				}
			} else if tc.in.proc.Dead() {
				inj.ObserveFail(tc.ctx.Rank, tc.ctx.TID, q, tc.ctx.Rank)
				return &mpi.RankFailureError{Rank: tc.ctx.Rank, Op: "statement"}
			}
		} else if tc.in.proc.Dead() {
			return &mpi.RankFailureError{Rank: tc.ctx.Rank, Op: "statement"}
		}
	}
	tc.ctx.Advance(tc.in.conf.StmtCostNs)
	return nil
}

// callFunction invokes a user function with evaluated arguments.
func (tc *threadCtx) callFunction(fn *minic.FuncDecl, args []Value, line int) (Value, error) {
	if fn == nil {
		return Value{}, runtimeError(line, "call of undefined function")
	}
	if len(args) != len(fn.Params) {
		return Value{}, runtimeError(line, "%s expects %d arguments, got %d", fn.Name, len(fn.Params), len(args))
	}
	fe := &threadCtx{in: tc.in, ctx: tc.ctx, member: tc.member, status: tc.status, env: newEnv(tc.in.globals)}
	for i, p := range fn.Params {
		v := args[i]
		if p.IsArray {
			if v.Arr == nil {
				return Value{}, runtimeError(line, "argument %d of %s must be an array", i+1, fn.Name)
			}
			fe.env.declare(p.Name, true, true, v)
			continue
		}
		fe.env.declare(p.Name, p.Type == minic.TypeDouble, false, v)
	}
	c, err := fe.execStmt(fn.Body)
	tc.status = fe.status
	if err != nil {
		return Value{}, err
	}
	if c == ctrlReturn {
		return fe.ret, nil
	}
	return intVal(0), nil
}

// execStmt executes one statement.
func (tc *threadCtx) execStmt(s minic.Stmt) (ctrl, error) {
	if err := tc.bumpStep(); err != nil {
		return ctrlNone, err
	}
	switch v := s.(type) {
	case *minic.Block:
		bc := tc.child()
		for _, inner := range v.Stmts {
			c, err := bc.execStmt(inner)
			tc.status = bc.status
			tc.ret = bc.ret
			if err != nil || c != ctrlNone {
				return c, err
			}
		}
		return ctrlNone, nil

	case *minic.DeclStmt:
		for _, d := range v.Decls {
			if err := tc.declare(v, d); err != nil {
				return ctrlNone, err
			}
		}
		return ctrlNone, nil

	case *minic.ExprStmt:
		_, err := tc.evalExpr(v.X)
		return ctrlNone, err

	case *minic.IfStmt:
		cond, err := tc.evalExpr(v.Cond)
		if err != nil {
			return ctrlNone, err
		}
		if cond.Truthy() {
			return tc.execStmt(v.Then)
		}
		if v.Else != nil {
			return tc.execStmt(v.Else)
		}
		return ctrlNone, nil

	case *minic.ForStmt:
		return tc.execFor(v)

	case *minic.WhileStmt:
		for {
			cond, err := tc.evalExpr(v.Cond)
			if err != nil {
				return ctrlNone, err
			}
			if !cond.Truthy() {
				return ctrlNone, nil
			}
			c, err := tc.execStmt(v.Body)
			if err != nil {
				return ctrlNone, err
			}
			switch c {
			case ctrlBreak:
				return ctrlNone, nil
			case ctrlReturn:
				return ctrlReturn, nil
			}
			if err := tc.bumpStep(); err != nil {
				return ctrlNone, err
			}
		}

	case *minic.ReturnStmt:
		tc.ret = intVal(0)
		if v.X != nil {
			rv, err := tc.evalExpr(v.X)
			if err != nil {
				return ctrlNone, err
			}
			tc.ret = rv
		}
		return ctrlReturn, nil

	case *minic.BreakStmt:
		return ctrlBreak, nil
	case *minic.ContinueStmt:
		return ctrlContinue, nil

	case *minic.OmpStmt:
		return tc.execOmp(v)
	}
	return ctrlNone, runtimeError(s.Pos(), "unsupported statement %T", s)
}

// declare evaluates one declarator.
func (tc *threadCtx) declare(ds *minic.DeclStmt, d minic.Declarator) error {
	isFloat := ds.Type == minic.TypeDouble
	if d.ArraySize != nil {
		szv, err := tc.evalExpr(d.ArraySize)
		if err != nil {
			return err
		}
		n := szv.Int()
		limit := tc.in.conf.MaxArrayElems
		if limit <= 0 {
			limit = 1 << 26
		}
		if n < 0 || n > limit {
			return runtimeError(ds.Line, "bad array size %d for %s", n, d.Name)
		}
		tc.env.declare(d.Name, isFloat, true, Value{Arr: make([]float64, n), ArrMu: &sync.Mutex{}})
		return nil
	}
	init := Value{}
	if d.Init != nil {
		v, err := tc.evalExpr(d.Init)
		if err != nil {
			return err
		}
		init = v
	}
	tc.env.declare(d.Name, isFloat, false, init)
	return nil
}

// execFor runs a sequential for loop.
func (tc *threadCtx) execFor(v *minic.ForStmt) (ctrl, error) {
	lc := tc.child() // loop scope for the init declaration
	if v.Init != nil {
		if _, err := lc.execStmt(v.Init); err != nil {
			return ctrlNone, err
		}
	}
	for {
		if v.Cond != nil {
			cond, err := lc.evalExpr(v.Cond)
			if err != nil {
				return ctrlNone, err
			}
			if !cond.Truthy() {
				return ctrlNone, nil
			}
		}
		c, err := lc.execStmt(v.Body)
		tc.ret = lc.ret
		if err != nil {
			return ctrlNone, err
		}
		switch c {
		case ctrlBreak:
			return ctrlNone, nil
		case ctrlReturn:
			return ctrlReturn, nil
		}
		if v.Post != nil {
			if _, err := lc.evalExpr(v.Post); err != nil {
				return ctrlNone, err
			}
		}
		if err := lc.bumpStep(); err != nil {
			return ctrlNone, err
		}
	}
}
