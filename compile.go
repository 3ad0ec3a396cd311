package home

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"home/internal/detect"
	"home/internal/explain"
	"home/internal/interp"
	"home/internal/minic"
	"home/internal/obs/live"
	"home/internal/sim"
	"home/internal/spec"
	"home/internal/static"
	"home/internal/trace"
)

// Compiled is a reusable compiled-program handle: the parsed program
// plus its front-end artifacts — semantic diagnostics and the static
// instrumentation plan — computed once and cached. A handle is safe to
// check from many goroutines at once (the artifacts are immutable once
// built, and building is serialized), which is what lets the artifact
// cache in internal/serve, the soak/bench harnesses and the explorer
// amortize the front-end across a corpus of checks: every
// CheckCompiled call after the first skips parse, sema and instrument
// entirely, going straight to execution.
//
// The plan cache is keyed by the static.Options a check requests
// (InstrumentAll × Interprocedural), so one handle serves ablation
// sweeps that flip those flags without recomputing the common case.
type Compiled struct {
	prog *minic.Program
	src  string // "" when built from an already-parsed program

	hashOnce sync.Once
	hash     string

	mu       sync.Mutex
	semaDone bool
	diags    []minic.SemaError
	plans    map[planKey]*static.Plan
}

// planKey is the front-end cache key for a static plan.
type planKey struct {
	instrumentAll   bool
	interprocedural bool
}

// Compile parses MiniHPC source text into a reusable handle. Parse
// failures wrap as *ParseError, exactly like Check.
func Compile(src string) (*Compiled, error) {
	prog, err := minic.Parse(src)
	if err != nil {
		return nil, &ParseError{Err: err}
	}
	c := CompileProgram(prog)
	c.src = src
	return c, nil
}

// CompileProgram wraps an already-parsed program in a handle. The
// program must not be mutated afterwards.
func CompileProgram(prog *Program) *Compiled {
	return &Compiled{prog: prog, plans: map[planKey]*static.Plan{}}
}

// Program returns the parsed program.
func (c *Compiled) Program() *Program { return c.prog }

// Source returns the source text the handle was compiled from ("" for
// CompileProgram handles).
func (c *Compiled) Source() string { return c.src }

// Hash returns the handle's identity: the hex SHA-256 of the source
// text (or of the formatted program for CompileProgram handles). This
// is the artifact-cache key — two submissions with byte-identical
// source share one handle.
func (c *Compiled) Hash() string {
	c.hashOnce.Do(func() {
		src := c.src
		if src == "" {
			src = minic.Format(c.prog)
		}
		sum := sha256.Sum256([]byte(src))
		c.hash = hex.EncodeToString(sum[:])
	})
	return c.hash
}

// frontEnd returns the cached semantic diagnostics and static plan,
// computing whichever is missing. Only fresh computation announces the
// static/instrument phases (telemetry + profile spans): a warm handle
// goes straight to execution, which is exactly the observable signal a
// cache hit promises — no parse/static/instrument spans, same report.
func (c *Compiled) frontEnd(opts *Options, lh *live.RunHandle) ([]minic.SemaError, *static.Plan) {
	key := planKey{opts.InstrumentAll, opts.Interprocedural}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.semaDone {
		lh.Phase("static")
		sp := opts.Profile.Start("static")
		c.diags = minic.CheckSemantics(c.prog, minic.DefaultSemaOptions())
		sp.End()
		c.semaDone = true
	}
	plan, ok := c.plans[key]
	if !ok {
		lh.Phase("instrument")
		sp := opts.Profile.Start("instrument")
		plan = static.Analyze(c.prog, static.Options{
			InstrumentAll:   key.instrumentAll,
			Interprocedural: key.interprocedural,
		})
		sp.End()
		c.plans[key] = plan
	}
	return c.diags, plan
}

// CheckCompiled runs the HOME pipeline on a compiled handle: cached
// front-end (semantic validation + instrumentation plan, computed on
// first use), then instrumented execution, combined dynamic analysis,
// and specification matching. Reports are byte-identical between cold
// and warm handles — the front-end is a pure function of the program —
// except that warm runs carry no static/instrument phase spans.
func CheckCompiled(c *Compiled, opts Options) (*Report, error) {
	if opts.Procs <= 0 {
		opts.Procs = 2
	}
	if opts.Threads <= 0 {
		opts.Threads = 2
	}
	prog := c.prog

	// Register on the telemetry plane (nil-safe: a nil Options.Live
	// yields a nil handle whose methods all no-op).
	lh := opts.Live.Register(live.RunInfo{
		Program: liveName(&opts),
		Plan:    livePlanLabel(&opts),
		Procs:   opts.Procs,
		Threads: opts.Threads,
		Seed:    opts.Seed,
	})
	lh.AttachStats(opts.Stats)

	// Phase 1: compile-time checking — front-end semantic validation
	// followed by the instrumentation analysis, cached on the handle.
	diags, plan := c.frontEnd(&opts, lh)

	// Phase 2: instrumented execution.
	costs := opts.Costs
	if costs == (sim.CostModel{}) {
		costs = sim.DefaultCostModel()
	}
	costs.EmitNs = homeEmitNs
	costs.AnalysisNsPerEvent = homeAnalysisNs(opts.Procs, opts.Threads)
	// The log is the run's only analysis sink; phase 3 analyzes it once
	// the run ends.
	log := trace.NewLog()
	chaosPlan, schedRec, schedSrc := resolveSched(&opts)
	forced0, orderForced0 := replayForced(&opts)
	// The flight recorder rides a TeeSink: the per-event Emit cost is
	// charged whether or not a recorder is attached (Sink is always
	// non-nil here), so attaching one never perturbs virtual time.
	var sink trace.Sink = log
	if fr := lh.Flight(); fr != nil {
		sink = trace.TeeSink{log, fr}
	}
	lh.Phase("execute")
	sp := opts.Profile.Start("execute")
	run := interp.Run(prog, interp.Config{
		Procs:              opts.Procs,
		Threads:            opts.Threads,
		Seed:               opts.Seed,
		Costs:              costs,
		EnforceThreadLevel: opts.EnforceThreadLevel,
		Instrument:         plan.Instrument,
		Sink:               sink,
		MaxSteps:           opts.MaxSteps,
		MaxArrayElems:      opts.MaxArrayElems,
		Stats:              opts.Stats,
		Chaos:              chaosPlan,
		SchedRecorder:      schedRec,
		SchedSource:        schedSrc,
		Live:               lh,
	})
	sp.SetVirtual(run.Makespan)
	sp.End()
	// Capture the "what was everyone doing" table the moment the run
	// stops abnormally: a global deadlock or a crash-stop.
	if run.Deadlocked {
		lh.AutoDump("deadlock")
	} else if len(run.DeadRanks) > 0 {
		lh.AutoDump("crash-stop")
	}
	// Phase 3: lockset + happens-before analysis of the log. The cost
	// model charged its virtual cost (AnalysisNsPerEvent per event) at
	// emission during execute, modelling the paper's on-the-fly HOME,
	// so virtual time does not depend on where the analysis runs; the
	// span reports that same total. The analyses read the log's own
	// chunks in place.
	chunks := log.Chunks()
	lh.Phase("analyze")
	sp = opts.Profile.Start("analyze")
	rep := detect.AnalyzeChunks(chunks, detect.Options{Mode: opts.Mode, Stats: opts.Stats, Explain: opts.Explain})
	sp.SetVirtual(int64(rep.EventsAnalyzed) * costs.AnalysisNsPerEvent)
	sp.End()

	recordSchedStats(&opts, forced0, orderForced0)

	// Phase 4: specification matching.
	lh.Phase("match")
	sp = opts.Profile.Start("match")
	violations := spec.MatchChunks(chunks, rep)
	sp.End()

	report := &Report{
		Plan:           plan,
		Warnings:       plan.Warnings,
		Diagnostics:    diags,
		Races:          rep.Races,
		Violations:     violations,
		Makespan:       run.Makespan,
		Deadlocked:     run.Deadlocked,
		Output:         run.Output,
		RunErrors:      run.Errs,
		EventsAnalyzed: rep.EventsAnalyzed,
		Spans:          opts.Profile.Spans(),
	}
	if opts.Explain {
		events := log.Events()
		report.Witnesses = explain.Extract(events, rep, violations)
		report.Trace = events
	}
	// Every report carries per-rank coverage — uniform shape whether or
	// not ranks died — so fleet aggregation never special-cases.
	report.RankCoverage = rankCoverage(opts.Procs, chunks, run.DeadRanks)
	if len(run.DeadRanks) > 0 {
		// Graceful degradation: a crash-stopped rank truncates its own
		// event stream, but the analyses are prefix-closed, so the
		// report stands — flagged partial, with per-rank coverage.
		report.Partial = true
		report.DeadRanks = run.DeadRanks
		opts.Stats.Counter("home.partial_reports").Inc()
	}
	if opts.Stats != nil {
		snap := opts.Stats.Snapshot()
		report.Stats = &snap
	}
	lh.Finish(liveVerdict(report))
	return report, nil
}
