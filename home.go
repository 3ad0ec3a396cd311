// Package home is a Go reproduction of HOME, the hybrid OpenMP/MPI
// thread-safety checker of Ma, Wang and Krishnamoorthy, "Detecting
// Thread-Safety Violations in Hybrid OpenMP/MPI Programs" (IEEE
// CLUSTER 2015).
//
// HOME analyzes hybrid MPI/OpenMP programs in two phases. A static
// phase builds the program's control-flow graph, classifies code
// outside `omp parallel` regions as error-free, and replaces the MPI
// calls inside those regions with instrumented wrappers (selective
// monitoring keeps runtime overhead low). A dynamic phase executes the
// instrumented program, applies Eraser-style lockset analysis combined
// with vector-clock happens-before analysis to the monitored variables
// the wrappers write (srctmp, tagtmp, commtmp, requesttmp,
// collectivetmp, finalizetmp), and matches the resulting concurrency
// reports against the MPI thread-safety specification, yielding the
// six violation classes of the paper: initialization, finalization,
// concurrent receive, concurrent request, probe, and collective-call
// violations.
//
// Because Go has neither MPI nor OpenMP, this reproduction executes
// programs written in MiniHPC — a small C-like hybrid language with
// `#pragma omp` directives and MPI builtins — on a simulated cluster:
// a deterministic message-passing runtime (internal/mpi), a fork/join
// threading substrate (internal/omp), and a virtual-time cost model
// (internal/sim). See DESIGN.md for the full substitution map.
//
// # Quick start
//
//	report, err := home.Check(src, home.Options{Procs: 2, Threads: 2})
//	if err != nil { ... }
//	for _, v := range report.Violations {
//		fmt.Println(v)
//	}
//
// The package also exposes Parse, RunBase (uninstrumented execution
// for timing baselines) and the experiment harness used to regenerate
// the paper's tables and figures (internal/harness, cmd/homebench).
package home

import (
	"fmt"

	"home/internal/chaos"
	"home/internal/detect"
	"home/internal/explain"
	"home/internal/interp"
	"home/internal/minic"
	"home/internal/msgrace"
	"home/internal/obs"
	"home/internal/obs/live"
	"home/internal/sched"
	"home/internal/sim"
	"home/internal/spec"
	"home/internal/static"
	"home/internal/trace"
)

// Re-exported result types: the public API speaks in these names.
type (
	// Violation is a matched thread-safety violation.
	Violation = spec.Violation
	// ViolationKind enumerates the six violation classes.
	ViolationKind = spec.Kind
	// Race is a concurrency report on a monitored variable.
	Race = detect.Race
	// Plan is the static phase's instrumentation plan.
	Plan = static.Plan
	// Warning is a statically detected unsafe style.
	Warning = static.Warning
	// Program is a parsed MiniHPC translation unit.
	Program = minic.Program
	// AnalysisMode selects the dynamic analyses (combined by default).
	AnalysisMode = detect.Mode
	// CostModel is the virtual-time cost model.
	CostModel = sim.CostModel
	// StatsRegistry collects per-run counters, gauges and histograms
	// from every pipeline layer (see internal/obs and
	// docs/OBSERVABILITY.md).
	StatsRegistry = obs.Registry
	// StatsSnapshot is a point-in-time view of a StatsRegistry.
	StatsSnapshot = obs.Snapshot
	// Profile records the pipeline's phase spans (wall and virtual
	// durations), exportable as Chrome trace_event JSON.
	Profile = obs.Profile
	// Span is one completed pipeline phase.
	Span = obs.Span
	// ChaosPlan is a deterministic fault-injection plan for the
	// simulated cluster (see internal/chaos and docs/ROBUSTNESS.md).
	ChaosPlan = chaos.Plan
	// ScheduleRecorder accumulates a run's realized fault schedule —
	// every fault decision and nondeterministic resolution — as a
	// replayable artifact (see internal/sched and docs/ROBUSTNESS.md).
	ScheduleRecorder = sched.Recorder
	// Schedule is a recorded fault schedule loaded for replay.
	Schedule = sched.Schedule
	// Witness is the causal explanation of one verdict: the access or
	// call pair by schedule-stable coordinates, locksets with
	// acquisition sites, vector clocks, and the missing happens-before
	// edge (see internal/explain and docs/OBSERVABILITY.md).
	Witness = explain.Witness
	// TraceEvent is one instrumentation event of the run's log.
	TraceEvent = trace.Event
	// Timeline is an assembled per-(rank, thread) timeline of a run,
	// exportable as Chrome trace_event JSON (chrome://tracing,
	// Perfetto).
	Timeline = trace.Timeline
)

// BuildTimeline assembles the timeline for a run's event log
// (Report.Trace); overlay witnesses with OverlayWitnesses.
func BuildTimeline(events []TraceEvent) *Timeline { return trace.BuildTimeline(events) }

// OverlayWitnesses marks every witness site on the timeline with an
// instant event.
func OverlayWitnesses(t *Timeline, ws []Witness) { explain.Overlay(t, ws) }

// NewScheduleRecorder returns an empty schedule recorder to pass in
// Options.RecordSchedule.
func NewScheduleRecorder() *ScheduleRecorder { return sched.NewRecorder() }

// ReadScheduleFile loads a recorded schedule for Options.ReplaySchedule.
// A stream cut mid-record still returns the salvaged prefix together
// with an error unwrapping to sched.ErrTruncated.
func ReadScheduleFile(path string) (*Schedule, error) { return sched.ReadFile(path) }

// ChaosPerturb returns the default legal-perturbation chaos plan for a
// seed: message delays, queue reordering, transient send failures,
// sender jitter and short thread stalls — no crash. Verdicts must be
// stable under it.
func ChaosPerturb(seed int64) *ChaosPlan { return chaos.Perturb(seed) }

// ChaosCrash returns the perturbation plan plus a crash-stop of the
// given rank after its n-th MPI call; the resulting Report is partial.
func ChaosCrash(seed int64, rank int, n int64) *ChaosPlan { return chaos.Crash(seed, rank, n) }

// ParseChaosSpec parses the CLI -chaos specification syntax (e.g.
// "seed=3", "delay=0.5,crash=1@10") into a plan.
func ParseChaosSpec(spec string) (*ChaosPlan, error) { return chaos.ParseSpec(spec) }

// NewStatsRegistry returns an empty per-run stats registry to pass in
// Options.Stats.
func NewStatsRegistry() *StatsRegistry { return obs.NewRegistry() }

// NewProfile returns an empty phase-span profile to pass in
// Options.Profile.
func NewProfile() *Profile { return obs.NewProfile() }

// Violation kinds (paper §III-A).
const (
	InitializationViolation    = spec.InitializationViolation
	FinalizationViolation      = spec.FinalizationViolation
	ConcurrentRecvViolation    = spec.ConcurrentRecvViolation
	ConcurrentRequestViolation = spec.ConcurrentRequestViolation
	ProbeViolation             = spec.ProbeViolation
	CollectiveCallViolation    = spec.CollectiveCallViolation
	// WindowViolation is the one-sided (RMA) extension class, not one
	// of the paper's six.
	WindowViolation = spec.WindowViolation
)

// Analysis modes.
const (
	ModeCombined          = detect.ModeCombined
	ModeLocksetOnly       = detect.ModeLocksetOnly
	ModeHappensBeforeOnly = detect.ModeHappensBeforeOnly
)

// AllViolationKinds lists the six classes in paper order.
func AllViolationKinds() []ViolationKind { return spec.AllKinds() }

// Options configures a Check run.
type Options struct {
	// Procs is the number of MPI ranks to simulate (default 2).
	Procs int
	// Threads is the default OpenMP team size (default 2, as in the
	// paper's experiments).
	Threads int
	// Seed identifies the run (telemetry labels, harness configs). The
	// simulation is deterministic and draws no randomness from it;
	// fault injection is seeded by the chaos plan.
	Seed int64

	// Mode selects the dynamic analyses; the zero value is the
	// paper's combined lockset + happens-before configuration.
	Mode AnalysisMode

	// InstrumentAll disables the static error-free-region filter (the
	// overhead ablation of DESIGN.md).
	InstrumentAll bool
	// Interprocedural enables the future-work extension that follows
	// user function calls out of parallel regions.
	Interprocedural bool

	// EnforceThreadLevel makes the simulated MPI runtime faithfully
	// misbehave on calls that violate the provided thread level
	// (Figure 1 behaviour). Checking does not require it.
	EnforceThreadLevel bool

	// Costs overrides the base cost model (zero = defaults).
	Costs CostModel
	// MaxSteps bounds interpreted statements (0 = default).
	MaxSteps int64
	// MaxArrayElems bounds a single array declaration (0 = default);
	// fuzzing lowers it to keep memory bounded.
	MaxArrayElems int

	// Chaos, when non-nil, runs the program under deterministic fault
	// injection (message perturbation, crash-stop ranks, thread stalls;
	// see docs/ROBUSTNESS.md). Crash-stop plans yield partial reports.
	Chaos *ChaosPlan
	// WatchdogGraceNs is the deadlock watchdog's wall-clock grace for
	// all-blocked states containing injected transient stalls (0 =
	// default). Irrelevant without chaos stalls: detection stays exact.
	WatchdogGraceNs int64

	// RecordSchedule, when non-nil, records the run's realized fault
	// schedule (every fault decision and nondeterministic resolution)
	// into the given recorder; serialize it with its Write/WriteFile
	// methods. Combined with ReplaySchedule it re-records the replay's
	// realized schedule: forced decisions are echoed verbatim and any
	// live fallback past the forced prefix is captured, so a partially
	// divergent replay (a mutated or salvaged schedule) still yields a
	// complete, deterministically replayable recording.
	RecordSchedule *ScheduleRecorder
	// ReplaySchedule, when non-nil, replays a recorded schedule: the
	// run takes its chaos plan from the schedule header (Options.Chaos
	// is ignored), disables the seed-hash fault path, and forces the
	// recorded interleaving, reproducing the recorded Report verdicts.
	ReplaySchedule *Schedule

	// Explain extracts a causal witness for every race and violation
	// (Report.Witnesses) and retains the run's event log
	// (Report.Trace) for timeline export. The detector captures full
	// vector clocks per monitored access under this option and orders
	// race pairs canonically, so explained output is byte-stable
	// across host schedules for schedule-invariant programs.
	Explain bool

	// Stats, when non-nil, collects runtime counters from every layer
	// of the run; Report.Stats carries the final snapshot. Use one
	// registry per run.
	Stats *StatsRegistry
	// Live, when non-nil, registers the run on the process-wide
	// telemetry plane (internal/obs/live): phase transitions, periodic
	// stats-snapshot deltas and a per-(rank, tid) flight recorder
	// become observable over the -introspect HTTP/SSE server while the
	// run executes. Publication only reads run state — virtual time,
	// schedules and report bytes are identical with and without it.
	Live *live.Plane
	// LiveName labels the run on the telemetry plane ("program" when
	// empty). Purely cosmetic; it appears in /runs and SSE events.
	LiveName string
	// Profile, when non-nil, records a span per pipeline phase
	// (parse, static, instrument, execute, analyze, match);
	// Report.Spans carries the result.
	Profile *Profile
}

// HOME's own probe costs (virtual ns). The wrapper write is a fixed
// probe cost; the per-event lockset/vector-clock bookkeeping (charged
// at emission, modelling the paper's on-the-fly analysis) scales with
// the logarithm of the total thread count, because the analysis's
// vector clocks carry one component per thread and its shared state
// grows with the fleet. Calibrated on the NPB-MZ-style workloads so
// the end-to-end overhead lands in the paper's 16-45% band over
// 2..64 processes (see EXPERIMENTS.md).
const (
	homeEmitNs         = 100
	homeAnalysisBaseNs = 383
	homeAnalysisLogNs  = 994
)

// homeAnalysisNs is the per-event analysis cost at a given fleet size.
func homeAnalysisNs(procs, threads int) int64 {
	return homeAnalysisBaseNs + homeAnalysisLogNs*sim.Log2Ceil(procs*threads)
}

// Report is the outcome of a Check: the static plan and warnings, the
// dynamic concurrency reports, and the matched violations.
type Report struct {
	// Plan is the instrumentation plan (site list, checklist,
	// filtering statistics).
	Plan *Plan
	// Warnings are the static phase's unsafe-style reports.
	Warnings []Warning
	// Diagnostics are front-end semantic findings (undeclared
	// identifiers, arity mismatches, ...). They are reported, not
	// fatal: published hybrid codes — including the paper's own
	// Figure 2 listing with its stray private(i) — often carry such
	// blemishes, and the dynamic phase can still run.
	Diagnostics []minic.SemaError
	// Races are the concurrency reports on monitored variables.
	Races []Race
	// Violations are the matched thread-safety violations, sorted by
	// (kind, rank).
	Violations []Violation
	// Witnesses are the causal explanations — one per violation, in
	// the violations' order, then one per race no violation claimed.
	// Populated only under Options.Explain.
	Witnesses []Witness
	// Trace is the run's instrumentation event log, retained for
	// timeline export. Populated only under Options.Explain.
	Trace []TraceEvent

	// Makespan is the instrumented run's virtual execution time (ns).
	Makespan int64
	// Deadlocked reports whether the run ended in a global deadlock
	// (the analyses still run over the events collected up to that
	// point).
	Deadlocked bool
	// Output is the program's print output.
	Output string
	// RunErrors holds per-rank runtime errors (deadlock errors appear
	// here too).
	RunErrors []error
	// EventsAnalyzed counts instrumentation events processed.
	EventsAnalyzed int

	// Partial reports that one or more ranks crash-stopped (chaos fault
	// injection): the violations cover each rank's surviving prefix.
	Partial bool
	// DeadRanks lists the crash-stopped ranks, sorted.
	DeadRanks []int
	// RankCoverage summarizes, per rank, how much execution the
	// analyses observed (instrumentation events) and whether the rank
	// failed. Filled for every run — not only partial ones — so
	// cross-run aggregation needs no special cases.
	RankCoverage []RankCoverage

	// Stats is the run's observability snapshot (nil unless
	// Options.Stats was set).
	Stats *StatsSnapshot
	// Spans are the pipeline phase spans (nil unless Options.Profile
	// was set).
	Spans []Span
}

// RankCoverage is one rank's share of the observed execution: how many
// instrumentation events the analyses saw from it and whether it
// crash-stopped (making its coverage a prefix).
type RankCoverage struct {
	Rank   int  `json:"rank"`
	Events int  `json:"events"`
	Failed bool `json:"failed,omitempty"`
}

// ParseError wraps a front-end parse failure. Its string form keeps
// the established "parse: ..." shape.
type ParseError struct{ Err error }

func (e *ParseError) Error() string { return "parse: " + e.Err.Error() }
func (e *ParseError) Unwrap() error { return e.Err }

// HasViolation reports whether any violation of the given kind was
// found.
func (r *Report) HasViolation(kind ViolationKind) bool {
	for _, v := range r.Violations {
		if v.Kind == kind {
			return true
		}
	}
	return false
}

// CountByKind tallies violations per class.
func (r *Report) CountByKind() map[ViolationKind]int {
	return spec.CountByKind(r.Violations)
}

// Summary renders a human-readable report.
func (r *Report) Summary() string {
	s := fmt.Sprintf("HOME report: %d violation(s), %d race(s), %d/%d MPI call sites instrumented, %d events analyzed\n",
		len(r.Violations), len(r.Races), r.Plan.Instrumented, r.Plan.TotalMPICalls, r.EventsAnalyzed)
	if r.Deadlocked {
		s += "note: the run ended in a global deadlock (reported violations cover the execution prefix)\n"
	}
	if r.Partial {
		s += fmt.Sprintf("note: partial report — rank(s) %v crash-stopped; violations cover each rank's surviving prefix\n", r.DeadRanks)
		for _, c := range r.RankCoverage {
			state := "survived"
			if c.Failed {
				state = "crash-stopped"
			}
			s += fmt.Sprintf("coverage: rank %d: %d events observed (%s)\n", c.Rank, c.Events, state)
		}
	}
	for _, d := range r.Diagnostics {
		s += "diagnostic: " + d.Error() + "\n"
	}
	for _, w := range r.Warnings {
		s += "static warning: " + w.String() + "\n"
	}
	for _, v := range r.Violations {
		s += "violation: " + v.String() + "\n"
	}
	return s
}

// Parse parses MiniHPC source text.
func Parse(src string) (*Program, error) { return minic.Parse(src) }

// Check parses the source and runs the full HOME pipeline.
func Check(src string, opts Options) (*Report, error) {
	sp := opts.Profile.Start("parse")
	c, err := Compile(src)
	sp.End()
	if err != nil {
		return nil, err
	}
	return CheckCompiled(c, opts)
}

// CheckProgram runs the full HOME pipeline on a parsed program:
// static analysis, instrumented execution, combined dynamic analysis,
// and specification matching. Each call builds a fresh one-shot
// *Compiled handle, so the front-end runs (and its phase spans appear)
// exactly as they always have; callers that check the same program
// repeatedly should compile once (Compile/CompileProgram) and call
// CheckCompiled to skip the front-end after the first run.
func CheckProgram(prog *Program, opts Options) (*Report, error) {
	return CheckCompiled(CompileProgram(prog), opts)
}

// liveName labels a run for the telemetry plane.
func liveName(opts *Options) string {
	if opts.LiveName != "" {
		return opts.LiveName
	}
	return "program"
}

// livePlanLabel renders the run's chaos plan for the telemetry plane
// (the replay header's plan when replaying; "" without chaos).
func livePlanLabel(opts *Options) string {
	if opts.ReplaySchedule != nil {
		p := opts.ReplaySchedule.Plan()
		return p.String()
	}
	if opts.Chaos != nil {
		return opts.Chaos.String()
	}
	return ""
}

// liveVerdict summarizes a report for the telemetry plane's verdict
// event.
func liveVerdict(r *Report) string { return r.Verdict() }

// Verdict is the report's one-line outcome — "clean", "N violations",
// "partial:N violations" or "deadlock" — the same string the telemetry
// plane publishes as the run's verdict event and homeserve returns as
// the job verdict.
func (r *Report) Verdict() string {
	switch {
	case r.Deadlocked:
		return "deadlock"
	case r.Partial:
		return fmt.Sprintf("partial:%d violations", len(r.Violations))
	case len(r.Violations) > 0:
		return fmt.Sprintf("%d violations", len(r.Violations))
	default:
		return "clean"
	}
}

// resolveSched resolves the run's chaos plan and record/replay hooks
// from the options. Replay takes precedence: the plan embedded in the
// schedule header reconstructs the recorded injector exactly. Setting
// both ReplaySchedule and RecordSchedule re-records the *realized*
// schedule of the replay through an echo source: forced decisions are
// copied verbatim into the recorder (replay branches re-apply records
// without reaching the Observe hooks) while decisions past the forced
// prefix — where a mutated or truncated schedule lets execution
// diverge to live resolution — are captured by the hooks as usual.
// The re-recorded stream is a complete schedule of the run that
// actually happened, which is how the schedule-space explorer turns a
// diverging mutant into a deterministic repro.
func resolveSched(opts *Options) (*chaos.Plan, chaos.Recorder, chaos.Source) {
	if opts.ReplaySchedule != nil {
		plan := opts.ReplaySchedule.Plan()
		if opts.RecordSchedule != nil {
			opts.RecordSchedule.SetPlan(plan)
			return &plan, opts.RecordSchedule, sched.Echo(opts.ReplaySchedule, opts.RecordSchedule)
		}
		return &plan, nil, opts.ReplaySchedule
	}
	if opts.RecordSchedule != nil {
		if opts.Chaos != nil {
			opts.RecordSchedule.SetPlan(*opts.Chaos)
		}
		return opts.Chaos, opts.RecordSchedule, nil
	}
	return opts.Chaos, nil, nil
}

// replayForced samples the replay schedule's forced-decision counters
// (total and order-family subset) before a run, so per-run accounting
// tolerates schedule reuse.
func replayForced(opts *Options) (forced0, orderForced0 int64) {
	if opts.ReplaySchedule == nil {
		return 0, 0
	}
	return opts.ReplaySchedule.Forced(), opts.ReplaySchedule.OrderForced()
}

// recordSchedStats publishes the record/replay substrate's counters
// after a run (nil-safe registry).
//
// Stat names:
//
//	sched.records        realized-decision records captured this run
//	sched.order_records  subset of sched.records in the v2 order
//	                     families (collective membership, lock grants,
//	                     single elections, loop chunks)
//	sched.replay_forced  recorded decisions replay forced onto this run
//	sched.order_forced   subset of sched.replay_forced from the order
//	                     families
//	sched.bytes_v3       recorded schedule size in the v3 binary
//	                     container
func recordSchedStats(opts *Options, forced0, orderForced0 int64) {
	if opts.ReplaySchedule != nil {
		opts.Stats.Counter("sched.replay_forced").Add(opts.ReplaySchedule.Forced() - forced0)
		opts.Stats.Counter("sched.order_forced").Add(opts.ReplaySchedule.OrderForced() - orderForced0)
	}
	if opts.RecordSchedule != nil {
		opts.Stats.Counter("sched.records").Add(int64(opts.RecordSchedule.Len()))
		opts.Stats.Counter("sched.order_records").Add(int64(opts.RecordSchedule.OrderLen()))
		// Size of the run's schedule in the v3 binary container — the
		// artifact cost a `hometrace transcode` or WriteFileBinary
		// would pay, and the number the codec-size CI gate watches.
		opts.Stats.Counter("sched.bytes_v3").Add(int64(len(opts.RecordSchedule.BytesBinary())))
	}
}

// rankCoverage tallies the observed instrumentation events per rank.
func rankCoverage(procs int, events []trace.Event, dead []int) []RankCoverage {
	failed := make(map[int]bool, len(dead))
	for _, r := range dead {
		failed[r] = true
	}
	counts := make([]int, procs)
	for i := range events {
		if r := events[i].Rank; r >= 0 && r < procs {
			counts[r]++
		}
	}
	out := make([]RankCoverage, procs)
	for r := range out {
		out[r] = RankCoverage{Rank: r, Events: counts[r], Failed: failed[r]}
	}
	return out
}

// RunBase executes the program uninstrumented and returns its virtual
// makespan in nanoseconds — the "Base" series of the paper's figures.
func RunBase(prog *Program, opts Options) (*interp.Result, error) {
	if opts.Procs <= 0 {
		opts.Procs = 2
	}
	if opts.Threads <= 0 {
		opts.Threads = 2
	}
	chaosPlan, schedRec, schedSrc := resolveSched(&opts)
	forced0, orderForced0 := replayForced(&opts)
	res := interp.Run(prog, interp.Config{
		Procs:              opts.Procs,
		Threads:            opts.Threads,
		Seed:               opts.Seed,
		Costs:              opts.Costs,
		EnforceThreadLevel: opts.EnforceThreadLevel,
		MaxSteps:           opts.MaxSteps,
		MaxArrayElems:      opts.MaxArrayElems,
		Stats:              opts.Stats,
		Chaos:              chaosPlan,
		SchedRecorder:      schedRec,
		SchedSource:        schedSrc,
		WatchdogGraceNs:    opts.WatchdogGraceNs,
	})
	recordSchedStats(&opts, forced0, orderForced0)
	return res, nil
}

// MessageRace is a cross-rank message-nondeterminism report (see
// internal/msgrace).
type MessageRace = msgrace.Report

// MessageRaces runs the extension analysis for cross-rank message
// races (wildcard receives with competing senders). Unlike the
// thread-safety check it needs every point-to-point call observed, so
// it performs its own instrument-everything run.
func MessageRaces(prog *Program, opts Options) ([]MessageRace, error) {
	if opts.Procs <= 0 {
		opts.Procs = 2
	}
	if opts.Threads <= 0 {
		opts.Threads = 2
	}
	log := trace.NewLog()
	chaosPlan, schedRec, schedSrc := resolveSched(&opts)
	res := interp.Run(prog, interp.Config{
		Procs:           opts.Procs,
		Threads:         opts.Threads,
		Seed:            opts.Seed,
		Costs:           opts.Costs,
		MaxSteps:        opts.MaxSteps,
		MaxArrayElems:   opts.MaxArrayElems,
		Instrument:      func(int) bool { return true },
		Sink:            log,
		Chaos:           chaosPlan,
		SchedRecorder:   schedRec,
		SchedSource:     schedSrc,
		WatchdogGraceNs: opts.WatchdogGraceNs,
	})
	// A deadlocked or crash-truncated run still yields a usable prefix.
	_ = res
	return msgrace.Analyze(log.Events()), nil
}

// StaticOnly runs just the compile-time phase, returning the plan
// (site list, checklist, warnings) without executing the program.
func StaticOnly(src string, opts Options) (*Plan, error) {
	prog, err := minic.Parse(src)
	if err != nil {
		return nil, &ParseError{Err: err}
	}
	return static.Analyze(prog, static.Options{
		InstrumentAll:   opts.InstrumentAll,
		Interprocedural: opts.Interprocedural,
	}), nil
}
