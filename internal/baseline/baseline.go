// Package baseline models the two comparison tools of the paper's
// evaluation: Marmot (Hilbrich et al.) and the Intel Thread Checker
// (ITC). Neither original runs here — what this package reproduces is
// the *behavioural profile* the paper measures each tool by:
//
// Marmot
//   - hooks every MPI call through the profiling (PMPI) layer — no
//     static filtering;
//   - routes every call record through an additional central manager
//     process that performs the global analysis, which serializes
//     call processing and is the published source of its overhead
//     (15-56%, growing with process count);
//   - is a purely runtime checker: it reports violations only when the
//     conflicting calls actually execute concurrently in the observed
//     run ("it can only detect violations if they actually appear in a
//     run made with MARMOT"), so schedule-skewed potential violations
//     are missed — modelled as a temporal-overlap filter on the race
//     reports.
//
// Intel Thread Checker
//   - rewrites the binary to monitor every memory access, not just
//     the MPI-call monitored variables — the source of its up-to-200%
//     overhead;
//   - lacks OpenMP-specific knowledge: it "cannot recognize omp
//     critical directives correctly", modelled by ignoring lock events
//     in the analysis (this produces the paper's false positive on
//     BT-MZ where a critical-guarded collective pattern is benign);
//   - does not capture the source and tag arguments of
//     MPI_Probe/MPI_Iprobe, modelled by dropping probe events, which
//     loses the probe-only violation on LU-MZ.
package baseline

import (
	"home/internal/detect"
	"home/internal/interp"
	"home/internal/minic"
	"home/internal/sim"
	"home/internal/spec"
	"home/internal/trace"
)

// Tool identifies a checking tool (or no tool) in experiment results.
type Tool int

const (
	// ToolBase is the uninstrumented run.
	ToolBase Tool = iota
	// ToolHOME is the paper's tool (implemented by package home).
	ToolHOME
	// ToolMarmot is the Marmot model.
	ToolMarmot
	// ToolITC is the Intel Thread Checker model.
	ToolITC
)

func (t Tool) String() string {
	switch t {
	case ToolBase:
		return "Base"
	case ToolHOME:
		return "HOME"
	case ToolMarmot:
		return "MARMOT"
	case ToolITC:
		return "ITC"
	}
	return "Tool(?)"
}

// MarshalText renders the tool name, so Tool appears as "HOME" rather
// than an integer when experiment results are encoded as JSON (both
// as a value and as a map key).
func (t Tool) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// Options configures a baseline run (mirrors home.Options).
type Options struct {
	Procs    int
	Threads  int
	Seed     int64
	Costs    sim.CostModel
	MaxSteps int64

	// MarmotOverlapNs is the temporal window within which two
	// accesses count as "actually concurrent" for the manifest-only
	// filter (0 = DefaultMarmotOverlapNs).
	MarmotOverlapNs int64
}

// DefaultMarmotOverlapNs is the manifest-concurrency window: accesses
// further apart than this in virtual time did not overlap in the
// observed schedule.
const DefaultMarmotOverlapNs = 50_000

// Tool cost profiles (virtual ns), calibrated on the NPB-MZ-style
// workloads so each tool's end-to-end overhead lands in the band the
// paper reports (Marmot 15-56%, ITC up to ~200% over 2..64 procs);
// see EXPERIMENTS.md for the calibration.
const (
	// Marmot: light per-event probe, but every call's record makes a
	// round trip to the central manager process, whose response time
	// grows with the number of ranks feeding it.
	marmotEmitNs       = 150
	marmotAnalysisNs   = 100
	marmotManagerNs    = 8_900
	marmotManagerPerNs = 495 // additional ns per rank in the world

	// ITC: binary instrumentation charges every memory access; its
	// serial-execution analysis state also grows with thread count.
	itcEmitNs         = 150
	itcAnalysisBaseNs = 300
	itcAnalysisLogNs  = 75
)

// marmotCallNs is the manager round-trip cost at a given world size.
func marmotCallNs(procs int) int64 {
	return marmotManagerNs + marmotManagerPerNs*int64(procs)
}

// itcAnalysisNs is ITC's per-event cost at a given fleet size.
func itcAnalysisNs(procs, threads int) int64 {
	return itcAnalysisBaseNs + itcAnalysisLogNs*sim.Log2Ceil(procs*threads)
}

// Result is a baseline tool's report.
type Result struct {
	Tool       Tool
	Violations []spec.Violation
	Races      []detect.Race
	Makespan   int64
	Deadlocked bool
	Errs       []error
	Events     int
}

// RunMarmot executes the program under the Marmot model.
func RunMarmot(prog *minic.Program, opts Options) *Result {
	log := trace.NewLog()
	run := interp.Run(prog, marmotConfig(opts, log))
	rep, violations := checkMarmot(log.Chunks(), opts)
	return &Result{
		Tool:       ToolMarmot,
		Violations: violations,
		Races:      rep.Races,
		Makespan:   run.Makespan,
		Deadlocked: run.Deadlocked,
		Errs:       run.Errs,
		Events:     log.Len(),
	}
}

// marmotConfig is the Marmot model's run: every MPI call is hooked
// and makes the manager round trip.
func marmotConfig(opts Options, sink trace.Sink) interp.Config {
	costs := opts.Costs
	if costs == (sim.CostModel{}) {
		costs = sim.DefaultCostModel()
	}
	costs.EmitNs = marmotEmitNs
	costs.AnalysisNsPerEvent = marmotAnalysisNs
	managerCost := marmotCallNs(opts.Procs)
	return interp.Config{
		Procs:    opts.Procs,
		Threads:  opts.Threads,
		Seed:     opts.Seed,
		Costs:    costs,
		MaxSteps: opts.MaxSteps,
		// PMPI layer: every MPI call is intercepted and its record
		// makes the manager round trip.
		Instrument: func(int) bool { return true },
		Sink:       sink,
		CallHook:   func(ctx *sim.Ctx, _ *trace.MPICall) { ctx.Advance(managerCost) },
	}
}

// checkMarmot analyzes a Marmot log in place and keeps the races that
// manifested.
func checkMarmot(chunks [][]trace.Event, opts Options) (*detect.Report, []spec.Violation) {
	rep := detect.AnalyzeChunks(chunks, detect.Options{Mode: detect.ModeCombined})
	window := opts.MarmotOverlapNs
	if window <= 0 {
		window = DefaultMarmotOverlapNs
	}
	manifested := filterManifest(rep, window)
	return manifested, spec.MatchChunks(chunks, manifested)
}

// filterManifest keeps only races whose two accesses actually
// overlapped in the observed schedule (within the window) — Marmot's
// manifest-only detection.
func filterManifest(rep *detect.Report, window int64) *detect.Report {
	out := &detect.Report{Mode: rep.Mode, EventsAnalyzed: rep.EventsAnalyzed}
	for _, r := range rep.Races {
		d := r.First.Time - r.Second.Time
		if d < 0 {
			d = -d
		}
		if d <= window {
			out.Races = append(out.Races, r)
		}
	}
	return out
}

// probeBlindSink drops probe call events: ITC's wrappers do not
// capture MPI_Probe/MPI_Iprobe argument information. The probe's
// instrumentation *cost* is still charged by the emitting context —
// the tool pays for monitoring it cannot use.
type probeBlindSink struct {
	inner trace.Sink
}

func (s probeBlindSink) Emit(e trace.Event) {
	if e.Call != nil && (e.Call.Kind == trace.CallProbe || e.Call.Kind == trace.CallIprobe) {
		return
	}
	s.inner.Emit(e)
}

// RunITC executes the program under the Intel Thread Checker model.
func RunITC(prog *minic.Program, opts Options) *Result {
	log := trace.NewLog()
	run := interp.Run(prog, itcConfig(opts, log))
	rep, violations := checkITC(log.Chunks())
	return &Result{
		Tool:       ToolITC,
		Violations: violations,
		Races:      rep.Races,
		Makespan:   run.Makespan,
		Deadlocked: run.Deadlocked,
		Errs:       run.Errs,
		Events:     log.Len(),
	}
}

// itcConfig is the ITC model's run: binary rewriting instruments every
// call site and every memory access, and probes reach sink blind.
func itcConfig(opts Options, sink trace.Sink) interp.Config {
	costs := opts.Costs
	if costs == (sim.CostModel{}) {
		costs = sim.DefaultCostModel()
	}
	costs.EmitNs = itcEmitNs
	costs.AnalysisNsPerEvent = itcAnalysisNs(opts.Procs, opts.Threads)
	return interp.Config{
		Procs:              opts.Procs,
		Threads:            opts.Threads,
		Seed:               opts.Seed,
		Costs:              costs,
		MaxSteps:           opts.MaxSteps,
		Instrument:         func(int) bool { return true },
		Sink:               probeBlindSink{inner: sink},
		MonitorAllAccesses: true,
	}
}

// checkITC analyzes an ITC log in place. ITC has no omp-critical
// knowledge, so lock events are ignored.
func checkITC(chunks [][]trace.Event) (*detect.Report, []spec.Violation) {
	rep := detect.AnalyzeChunks(chunks, detect.Options{
		Mode:        detect.ModeCombined,
		IgnoreLocks: true,
	})
	return rep, spec.MatchChunks(chunks, rep)
}

// RunBase executes the program uninstrumented (the "Base" series).
func RunBase(prog *minic.Program, opts Options) *Result {
	run := interp.Run(prog, interp.Config{
		Procs:    opts.Procs,
		Threads:  opts.Threads,
		Seed:     opts.Seed,
		Costs:    opts.Costs,
		MaxSteps: opts.MaxSteps,
	})
	return &Result{
		Tool:       ToolBase,
		Makespan:   run.Makespan,
		Deadlocked: run.Deadlocked,
		Errs:       run.Errs,
	}
}
