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
	// BlockedTable is, when Deadlocked, the wait-for snapshot: what
	// every stuck thread was waiting for, sorted by (rank, tid).
	BlockedTable []sim.BlockedOp
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
	conf    *Config
	proc    *mpi.Proc
	rt      *omp.Runtime
	world   *mpi.World
	globals []*cell // by global slot (minic.Ref.Global)
	out     *output
	steps   *atomic.Int64 // shared across ranks: global budget, added to in batches
	maxStep int64
	chaosOn bool

	// reqs is the request table: every request the rank's threads
	// started, by id, for the rest of the run.
	reqMu sync.Mutex
	reqs  map[int]*request

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
	})
	conf.Live.AttachActivity(world.Activity())
	lp := lowered(prog)
	out := &output{}
	var steps atomic.Int64
	exitCodes := make([]int, conf.Procs)

	res := world.Run(func(p *mpi.Proc, ctx *sim.Ctx) error {
		ctx.Sink = conf.Sink
		in := &Instance{
			conf:    &conf,
			proc:    p,
			rt:      omp.NewRuntime(p.Rank(), world.Activity()),
			world:   world,
			globals: make([]*cell, prog.NumGlobals),
			out:     out,
			steps:   &steps,
			maxStep: conf.MaxSteps,
			chaosOn: conf.Chaos != nil || conf.SchedRecorder != nil || conf.SchedSource != nil,
		}
		in.rt.SetNumThreads(conf.Threads)
		in.rt.SetStats(conf.Stats)
		in.rt.SetChaos(world.Chaos())
		tc := &threadCtx{in: in, ctx: ctx}
		defer tc.flushSteps()
		// Evaluate globals per process (each rank has its own memory).
		for _, g := range lp.globals {
			if _, err := g(tc); err != nil {
				return err
			}
		}
		code, err := tc.callFunction(lp.main, nil, 0)
		if err != nil {
			return err
		}
		exitCodes[p.Rank()] = int(code.Num)
		return nil
	})

	conf.Stats.Counter("interp.statements").Add(steps.Load())

	return &Result{
		Makespan:     res.Makespan,
		Deadlocked:   res.Deadlocked,
		Errs:         res.Errs,
		Output:       out.String(),
		ExitCodes:    exitCodes,
		BlockedTable: res.BlockedTable,
		DeadRanks:    res.DeadRanks,
	}
}

// threadCtx is one simulated thread's interpreter state.
type threadCtx struct {
	in     *Instance
	ctx    *sim.Ctx
	member *omp.Member // nil outside parallel regions
	// frame holds the current function call's variables by slot
	// (minic.Ref). A parallel team member runs on a copy whose shared
	// slots point at the same cells.
	frame  []*cell
	status mpi.Status // last MPI status (per thread, like thread-local storage)
	ret    Value      // value carried by ctrlReturn

	// steps counts the lane's statements not yet added to the shared
	// counter; stepBase is the shared counter as of the lane's last
	// flush.
	steps, stepBase int64
}

// stepBatch is how many statements a lane counts on its own before it
// adds them to the run's shared counter, so no statement touches
// shared state. A power of two that divides live.StepInterval.
const stepBatch = 256

// ctrl is statement-level control flow.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// cell returns the variable r names, or nil for an unbound name or a
// variable whose declaration has not run yet.
func (tc *threadCtx) cell(r minic.Ref) *cell {
	switch {
	case r.Global:
		return tc.in.globals[r.Slot]
	case r.Slot < 0:
		return nil
	}
	return tc.frame[r.Slot]
}

// bumpStep enforces the global statement budget and charges the
// per-statement virtual cost. On a crash-stopped rank it aborts the
// thread's compute loops too, so a dead rank stops executing rather
// than running on without a working MPI library.
//
// The budget test reads the shared counter as of the lane's last
// flush. It is exact for a single lane, never trips a run that
// executes at most MaxSteps statements in all, and stops a runaway run
// within MaxSteps + lanes×stepBatch statements.
func (tc *threadCtx) bumpStep() error {
	tc.steps++
	if tc.steps == stepBatch {
		tc.flushSteps()
	}
	if tc.stepBase+tc.steps > tc.in.maxStep {
		return ErrStepBudget
	}
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

// flushSteps adds the lane's counted statements to the shared counter.
// It runs every stepBatch statements and when the lane ends: main in
// Run, a team member in its parallel region, a pthread body in
// pthreadCreate.
// Telemetry tick: the lane whose flush crosses a publication point
// publishes it, so each point is observed by exactly one lane; the
// tick itself only reads (no virtual-time effect).
func (tc *threadCtx) flushSteps() {
	if tc.steps == 0 {
		return
	}
	n := tc.in.steps.Add(tc.steps)
	tc.in.conf.Live.StepTick(n-tc.steps, n, tc.ctx.Now)
	tc.stepBase, tc.steps = n, 0
}

// callFunction invokes a user function with evaluated arguments.
func (tc *threadCtx) callFunction(fn *function, args []Value, line int) (Value, error) {
	if fn == nil {
		return Value{}, runtimeError(line, "call of undefined function")
	}
	decl := fn.decl
	if len(args) != len(decl.Params) {
		return Value{}, runtimeError(line, "%s expects %d arguments, got %d", decl.Name, len(decl.Params), len(args))
	}
	frame := make([]*cell, decl.Frame)
	for i, p := range decl.Params {
		v := args[i]
		if p.IsArray && v.Arr == nil {
			return Value{}, runtimeError(line, "argument %d of %s must be an array", i+1, decl.Name)
		}
		frame[i] = newCell(declKind(p.Type, p.IsArray) == kindFloat, v)
	}
	caller := tc.frame
	tc.frame = frame
	c, err := fn.body(tc)
	tc.frame = caller
	if err != nil {
		return Value{}, err
	}
	if c == ctrlReturn {
		return tc.ret, nil
	}
	return intVal(0), nil
}
