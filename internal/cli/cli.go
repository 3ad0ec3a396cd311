// Package cli implements the command-line tools (homecheck, homerun,
// homefmt, hometrace) as testable functions: each takes its argument
// vector and output streams and returns a process exit code. The
// cmd/* mains are thin wrappers.
package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"home"
	"home/internal/cfg"
	"home/internal/detect"
	"home/internal/explain"
	"home/internal/explore"
	"home/internal/harness"
	"home/internal/interp"
	"home/internal/minic"
	"home/internal/obs"
	"home/internal/obs/live"
	"home/internal/sched"
	"home/internal/spec"
	"home/internal/static"
	"home/internal/trace"
)

// writeSpans serializes phase spans as Chrome trace_event JSON.
func writeSpans(path string, spans []obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseMode maps the -mode flag value.
func parseMode(mode string) (detect.Mode, bool) {
	switch mode {
	case "combined":
		return detect.ModeCombined, true
	case "lockset":
		return detect.ModeLocksetOnly, true
	case "hb":
		return detect.ModeHappensBeforeOnly, true
	}
	return 0, false
}

// HomeCheck implements the homecheck command. Exit codes: 0 clean,
// 1 violations found, 2 usage/program error.
func HomeCheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("homecheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 2, "number of MPI ranks to simulate")
	threads := fs.Int("threads", 2, "OpenMP threads per rank")
	seed := fs.Int64("seed", 1, "simulation seed")
	all := fs.Bool("all", false, "instrument every MPI call (disable the static filter)")
	inter := fs.Bool("interprocedural", false, "follow user calls out of parallel regions (extension)")
	enforce := fs.Bool("enforce-thread-level", false, "make the runtime misbehave on thread-level violations")
	mode := fs.String("mode", "combined", "dynamic analysis: combined, lockset, or hb")
	staticOnly := fs.Bool("static", false, "run only the static phase")
	dumpCFG := fs.Bool("cfg", false, "print the control-flow graphs in dot syntax and exit")
	races := fs.Bool("races", false, "also print the raw concurrency reports")
	explainFlag := fs.Bool("explain", false, "print a causal witness for every verdict (see docs/OBSERVABILITY.md)")
	explainJSON := fs.Bool("explain-json", false, "print the causal witnesses as a JSON array")
	msgRaces := fs.Bool("msgrace", false, "also run the cross-rank message-race extension analysis")
	stats := fs.Bool("stats", false, "print the run's observability counters (see docs/OBSERVABILITY.md)")
	hotspots := fs.Bool("hotspots", false, "print the phase/hot-counter profile table (see docs/OBSERVABILITY.md)")
	spansOut := fs.String("spans", "", "write pipeline phase spans as Chrome trace_event JSON to this file")
	chaosSpec := fs.String("chaos", "", "inject faults from a chaos plan, e.g. seed=3 or seed=3,crash=1@5 (see docs/ROBUSTNESS.md)")
	graceMs := fs.Int64("watchdog-grace-ms", 0, "deadlock watchdog grace window under transient stalls (0 = default)")
	recordSched := fs.String("record-sched", "", "record the run's realized fault schedule to this file (replay it with -replay-sched)")
	replaySched := fs.String("replay-sched", "", "replay a recorded (version 2) fault schedule, forcing the recorded interleaving and virtual time (plan comes from the schedule; excludes -chaos)")
	exploreFlag := fs.Bool("explore", false, "run a schedule-space exploration campaign around the seed schedule (-replay-sched, or a fresh recording under -chaos; see docs/ROBUSTNESS.md)")
	exploreBudget := fs.Int("explore-budget", 64, "mutants to try in the -explore campaign")
	exploreOut := fs.String("explore-out", "", "directory for minimal reproducing schedules found by -explore (default: a fresh temp directory)")
	replayTimeout := fs.Duration("replay-timeout", 0, "per-replay wall-clock watchdog; a run exceeding it reports budget-exceeded instead of wedging (0 = off)")
	introspect := fs.String("introspect", "", "serve live HTTP/SSE introspection on this address, e.g. 127.0.0.1:8090 (see docs/OBSERVABILITY.md)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: homecheck [flags] program.c")
		fs.PrintDefaults()
		return 2
	}
	srcBytes, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "homecheck:", err)
		return 2
	}
	src := string(srcBytes)

	opts := home.Options{
		Procs:              *procs,
		Threads:            *threads,
		Seed:               *seed,
		InstrumentAll:      *all,
		Interprocedural:    *inter,
		EnforceThreadLevel: *enforce,
	}
	m, ok := parseMode(*mode)
	if !ok {
		fmt.Fprintf(stderr, "homecheck: unknown -mode %q\n", *mode)
		return 2
	}
	opts.Mode = m
	opts.Explain = *explainFlag || *explainJSON
	if *stats || *hotspots {
		opts.Stats = home.NewStatsRegistry()
	}
	if *spansOut != "" || *hotspots {
		opts.Profile = home.NewProfile()
	}
	if *chaosSpec != "" {
		plan, perr := home.ParseChaosSpec(*chaosSpec)
		if perr != nil {
			fmt.Fprintln(stderr, "homecheck:", perr)
			return 2
		}
		opts.Chaos = plan
		fmt.Fprintf(stderr, "chaos: injecting faults from plan %s\n", plan)
	}
	if *graceMs > 0 {
		opts.WatchdogGraceNs = *graceMs * 1e6
	}
	if *introspect != "" {
		plane := live.NewPlane()
		srv, serr := live.Serve(*introspect, plane)
		if serr != nil {
			fmt.Fprintln(stderr, "homecheck:", serr)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "introspect: serving on %s\n", srv.Addr())
		opts.Live = plane
		opts.LiveName = fs.Arg(0)
	}
	if *recordSched != "" && *replaySched != "" {
		fmt.Fprintln(stderr, "homecheck: -record-sched and -replay-sched are mutually exclusive")
		return 2
	}
	var schedRec *home.ScheduleRecorder
	if *recordSched != "" {
		schedRec = home.NewScheduleRecorder()
		opts.RecordSchedule = schedRec
	}
	if *replaySched != "" {
		if *chaosSpec != "" {
			fmt.Fprintln(stderr, "homecheck: -replay-sched takes its fault plan from the schedule header; drop -chaos")
			return 2
		}
		schedule, rerr := home.ReadScheduleFile(*replaySched)
		if rerr != nil {
			var te *sched.TruncatedError
			if !errors.As(rerr, &te) {
				fmt.Fprintln(stderr, "homecheck:", rerr)
				return 2
			}
			// A schedule cut short still forces the recorded prefix of
			// the interleaving; warn and replay what was salvaged.
			fmt.Fprintf(stderr, "homecheck: warning: %v; replaying the salvaged prefix\n", te)
		}
		opts.ReplaySchedule = schedule
		plan := schedule.Plan()
		fmt.Fprintf(stderr, "replay: forcing recorded schedule from %s (plan %s, virtual-time exact)\n",
			*replaySched, &plan)
	}

	if *exploreFlag {
		return runExploreCampaign(src, opts, *seed, *exploreBudget, *exploreOut, *replayTimeout, stdout, stderr)
	}

	if *dumpCFG {
		prog, err := minic.Parse(src)
		if err != nil {
			fmt.Fprintln(stderr, "homecheck:", err)
			return 2
		}
		for name, g := range cfg.BuildProgram(prog) {
			fmt.Fprintf(stdout, "// function %s\n%s\n", name, g.Dot())
		}
		return 0
	}

	if *staticOnly {
		plan, err := home.StaticOnly(src, opts)
		if err != nil {
			fmt.Fprintln(stderr, "homecheck:", err)
			return 2
		}
		fmt.Fprintf(stdout, "static analysis: %d of %d MPI call sites selected for instrumentation\n",
			plan.Instrumented, plan.TotalMPICalls)
		fmt.Fprintf(stdout, "monitored-variable checklist: %v\n", plan.MonitoredVars)
		for _, s := range plan.SiteList() {
			fmt.Fprintln(stdout, "  instrument:", s)
		}
		for _, w := range plan.Warnings {
			fmt.Fprintln(stdout, "warning:", w)
		}
		return 0
	}

	var rep *home.Report
	if *replayTimeout > 0 {
		comp, cerr := home.Compile(src)
		if cerr != nil {
			fmt.Fprintln(stderr, "homecheck:", cerr)
			return 2
		}
		var timedOut bool
		rep, err, timedOut = explore.CheckCompiledBounded(comp, opts, *replayTimeout)
		if timedOut {
			fmt.Fprintf(stderr, "homecheck: budget-exceeded: run exceeded -replay-timeout %s\n", *replayTimeout)
			return 2
		}
	} else {
		rep, err = home.Check(src, opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, "homecheck:", err)
		return 2
	}
	if schedRec != nil {
		if werr := schedRec.WriteFile(*recordSched); werr != nil {
			fmt.Fprintln(stderr, "homecheck:", werr)
			return 2
		}
		fmt.Fprintf(stderr, "recorded schedule: %d decisions to %s\n", schedRec.Len(), *recordSched)
	}
	fmt.Fprint(stdout, rep.Summary())
	if *races {
		for _, r := range rep.Races {
			fmt.Fprintln(stdout, "race:", r)
		}
	}
	switch {
	case *explainJSON:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep.Witnesses); err != nil {
			fmt.Fprintln(stderr, "homecheck:", err)
			return 2
		}
	case *explainFlag:
		for i, w := range rep.Witnesses {
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			fmt.Fprint(stdout, w.String())
		}
	}
	if *stats && rep.Stats != nil {
		fmt.Fprintln(stdout, "runtime stats:")
		for _, line := range strings.Split(strings.TrimRight(rep.Stats.String(), "\n"), "\n") {
			fmt.Fprintln(stdout, "  "+line)
		}
	}
	if *hotspots && rep.Stats != nil {
		hs := obs.BuildHotspots(rep.Spans, *rep.Stats)
		fmt.Fprintln(stdout, "hotspot profile:")
		for _, line := range strings.Split(strings.TrimRight(hs.String(), "\n"), "\n") {
			fmt.Fprintln(stdout, "  "+line)
		}
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, rep.Spans); err != nil {
			fmt.Fprintln(stderr, "homecheck:", err)
			return 2
		}
	}
	failed := len(rep.Violations) > 0
	if *msgRaces {
		prog, perr := home.Parse(src)
		if perr != nil {
			fmt.Fprintln(stderr, "homecheck:", perr)
			return 2
		}
		// The schedule covers the main check run only; the extension
		// analysis is a separate execution with its own interleaving.
		opts.RecordSchedule, opts.ReplaySchedule = nil, nil
		mrs, merr := home.MessageRaces(prog, opts)
		if merr != nil {
			fmt.Fprintln(stderr, "homecheck:", merr)
			return 2
		}
		for _, mr := range mrs {
			fmt.Fprintln(stdout, "extension:", mr)
		}
		if len(mrs) > 0 {
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runExploreCampaign implements homecheck -explore: seed a schedule
// (the -replay-sched file, or a fresh recording under the -chaos
// plan), run a budgeted mutation campaign around it, and print the
// campaign summary plus any minimal repro artifacts. Exit codes:
// 0 nothing new found, 1 the campaign discovered new verdicts,
// 2 setup error.
func runExploreCampaign(src string, opts home.Options, seed int64, budget int, outDir string, timeout time.Duration, stdout, stderr io.Writer) int {
	prog, err := home.Parse(src)
	if err != nil {
		fmt.Fprintln(stderr, "homecheck:", err)
		return 2
	}
	seedSched := opts.ReplaySchedule
	if seedSched == nil {
		// Record the seed schedule under the given options (the -chaos
		// plan, or the unperturbed run).
		rec := home.NewScheduleRecorder()
		recOpts := opts
		recOpts.RecordSchedule, recOpts.Explain = rec, false
		if _, rerr := home.CheckProgram(prog, recOpts); rerr != nil {
			fmt.Fprintln(stderr, "homecheck: recording seed schedule:", rerr)
			return 2
		}
		if seedSched, err = rec.Schedule(); err != nil {
			fmt.Fprintln(stderr, "homecheck: seed schedule:", err)
			return 2
		}
		fmt.Fprintf(stderr, "explore: recorded seed schedule (%d decisions)\n", seedSched.Len())
	}
	if outDir == "" {
		if outDir, err = os.MkdirTemp("", "homecheck-explore-"); err != nil {
			fmt.Fprintln(stderr, "homecheck:", err)
			return 2
		}
	}
	res, err := explore.Run(prog, seedSched, explore.Config{
		Procs:           opts.Procs,
		Threads:         opts.Threads,
		Seed:            seed,
		Budget:          budget,
		MutantTimeout:   timeout,
		WatchdogGraceNs: opts.WatchdogGraceNs,
		OutDir:          outDir,
		Live:            opts.Live,
	})
	if err != nil {
		fmt.Fprintln(stderr, "homecheck:", err)
		return 2
	}
	fmt.Fprintf(stdout, "explore: %d mutants tried: %d ok, %d diverged, %d infeasible, %d budget-exceeded\n",
		res.Tried, res.Outcomes.OK, res.Outcomes.Diverged, res.Outcomes.Infeasible, res.Outcomes.Budget)
	s, e := res.CoverageStart, res.CoverageEnd
	fmt.Fprintf(stdout, "explore: coverage %d -> %d distinct decisions (+%d)\n",
		s.Matches+s.Collectives+s.LockOrders+s.CrashPoints,
		e.Matches+e.Collectives+e.LockOrders+e.CrashPoints, res.NewSignatures())
	if len(res.NewVerdicts) == 0 {
		fmt.Fprintln(stdout, "explore: no new verdicts beyond the seed schedule")
		return 0
	}
	fmt.Fprintf(stdout, "explore: %d new verdicts:\n", len(res.NewVerdicts))
	for _, v := range res.NewVerdicts {
		fmt.Fprintln(stdout, "  "+v)
	}
	for i, rp := range res.Repros {
		status := "UNVERIFIED"
		if rp.Verified {
			status = "verified"
		}
		fmt.Fprintf(stdout, "explore: repro %d (%d mutations, %s): %s\n", i, len(rp.Mutations), status, rp.SchedPath)
	}
	return 1
}

// HomeRun implements the homerun command. Exit codes: 0 success,
// 1 program failure (including deadlock), 2 usage error.
func HomeRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("homerun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 2, "number of MPI ranks to simulate")
	threads := fs.Int("threads", 2, "OpenMP threads per rank")
	seed := fs.Int64("seed", 1, "simulation seed")
	enforce := fs.Bool("enforce-thread-level", true,
		"make the runtime misbehave faithfully on thread-level violations")
	maxSteps := fs.Int64("max-steps", 0, "statement budget (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: homerun [flags] program.c")
		fs.PrintDefaults()
		return 2
	}
	srcBytes, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "homerun:", err)
		return 2
	}
	prog, err := home.Parse(string(srcBytes))
	if err != nil {
		fmt.Fprintln(stderr, "homerun:", err)
		return 2
	}

	res := interp.Run(prog, interp.Config{
		Procs:              *procs,
		Threads:            *threads,
		Seed:               *seed,
		EnforceThreadLevel: *enforce,
		MaxSteps:           *maxSteps,
	})
	fmt.Fprint(stdout, res.Output)
	fmt.Fprintf(stderr, "virtual time: %.6f s\n", float64(res.Makespan)/1e9)
	status := 0
	if res.Deadlocked {
		fmt.Fprintln(stderr, "DEADLOCK: the watchdog found all live threads blocked:")
		for _, op := range res.BlockedOps {
			fmt.Fprintln(stderr, "  ", op)
		}
	}
	for rank, err := range res.Errs {
		if err != nil {
			fmt.Fprintf(stderr, "rank %d: %v\n", rank, err)
			status = 1
		}
	}
	return status
}

// HomeFmt implements the homefmt command.
func HomeFmt(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("homefmt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	write := fs.Bool("w", false, "write results back to the source files")
	list := fs.Bool("l", false, "list files whose formatting differs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: homefmt [-w] [-l] file.c ...")
		return 2
	}
	status := 0
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "homefmt:", err)
			status = 2
			continue
		}
		prog, err := minic.Parse(string(src))
		if err != nil {
			fmt.Fprintf(stderr, "homefmt: %s: %v\n", path, err)
			status = 2
			continue
		}
		formatted := minic.Format(prog)
		switch {
		case *list:
			if formatted != string(src) {
				fmt.Fprintln(stdout, path)
			}
		case *write:
			if formatted != string(src) {
				if err := os.WriteFile(path, []byte(formatted), 0o644); err != nil {
					fmt.Fprintln(stderr, "homefmt:", err)
					status = 2
				}
			}
		default:
			fmt.Fprint(stdout, formatted)
		}
	}
	return status
}

// HomeTrace implements the hometrace command
// (record/analyze/replay/timeline/report).
func HomeTrace(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		traceUsage(stderr)
		return 2
	}
	switch args[0] {
	case "record":
		return traceRecord(args[1:], stdout, stderr)
	case "analyze":
		return traceAnalyze(args[1:], stdout, stderr)
	case "replay":
		return traceReplay(args[1:], stdout, stderr)
	case "timeline":
		return traceTimeline(args[1:], stdout, stderr)
	case "report":
		return traceReport(args[1:], stdout, stderr)
	case "transcode":
		return traceTranscode(args[1:], stdout, stderr)
	}
	traceUsage(stderr)
	return 2
}

func traceUsage(stderr io.Writer) {
	fmt.Fprintln(stderr, `usage:
  hometrace record [-procs N] [-threads N] [-seed S] [-all] [-spans out.json] program.c > trace.jsonl
  hometrace analyze [-mode combined|lockset|hb] [-ignore-locks] trace.jsonl
  hometrace replay [-procs N] [-threads N] [-seed S] [-mode M] sched.jsonl program.c
  hometrace timeline [-procs N] [-threads N] [-seed S] [-o out.json] trace.jsonl
  hometrace timeline [-procs N] [-threads N] [-seed S] [-o out.json] sched.jsonl program.c
  hometrace report [-format md|json] corpus.jsonl
  hometrace transcode [-to v3|jsonl] [-o out] sched.jsonl|sched.bin

replay re-checks the program while forcing the fault schedule recorded
by homecheck -record-sched; pass the same -procs/-threads/-seed as the
recording run. The schedule pins fault decisions, failure and match
resolutions, collective membership and lock/election orders, so the
replay reproduces the report and virtual time — Makespan, every event
timestamp and the rendered timeline — exactly. Only version-2
schedules replay; a version-1 schedule is rejected.

timeline renders a per-(rank,thread) virtual-time timeline as Chrome
trace_event JSON (open in chrome://tracing or ui.perfetto.dev), with
causal-witness markers overlaid on every verdict site. The one-argument
form analyzes a recorded event trace; the two-argument form replays a
recorded fault schedule through the full checker first.

report aggregates a run corpus (homebench -exp chaos -corpus out.jsonl)
into a fleet report: per-(program, plan, verdict) cells with merged
stats, plus corpus-wide schedule-space coverage. -format md renders
markdown; -format json emits the FleetReport document.

transcode converts a schedule between the JSONL container and the v3
binary container (-to v3 by default when given JSONL, -to jsonl when
given binary). The conversion is lossless: records and their order
survive exactly, so a transcoded schedule replays identically, and a
v2->v3->v2 round trip is byte-identical.`)
}

// traceReport renders a run-corpus JSONL file (written by homebench
// -corpus) as a fleet report. Exit codes: 0 rendered, 2 errors.
func traceReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "md", "output format: md or json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		traceUsage(stderr)
		return 2
	}
	runs, err := harness.ReadCorpusFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "hometrace:", err)
		return 2
	}
	fleet := harness.BuildFleet(runs)
	switch *format {
	case "md":
		fmt.Fprint(stdout, fleet.Markdown())
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fleet); err != nil {
			fmt.Fprintln(stderr, "hometrace:", err)
			return 2
		}
	default:
		fmt.Fprintf(stderr, "hometrace: unknown -format %q\n", *format)
		return 2
	}
	fmt.Fprintf(stderr, "fleet report: %d runs in %d cells\n", fleet.Runs, len(fleet.Cells))
	return 0
}

// traceTimeline renders a run as per-lane Chrome trace_event JSON with
// witness markers. Exit codes: 0 written, 2 errors (verdicts do not
// affect the exit code — the artifact is the point).
func traceTimeline(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 2, "MPI ranks (schedule form; must match the recording run)")
	threads := fs.Int("threads", 2, "OpenMP threads per rank (schedule form)")
	seed := fs.Int64("seed", 1, "simulation seed (schedule form)")
	out := fs.String("o", "", "write the timeline JSON to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var (
		tl *trace.Timeline
		ws []explain.Witness
	)
	switch fs.NArg() {
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "hometrace:", err)
			return 2
		}
		events, err := trace.ReadJSON(f)
		f.Close()
		if err != nil {
			var te *trace.TruncatedError
			if !errors.As(err, &te) {
				fmt.Fprintln(stderr, "hometrace:", err)
				return 2
			}
			fmt.Fprintf(stderr, "hometrace: warning: %v; rendering the salvaged prefix\n", te)
		}
		rep := detect.Analyze(events, detect.Options{Explain: true})
		violations := spec.Match(events, rep)
		ws = explain.Extract(events, rep, violations)
		tl = trace.BuildTimeline(events)
		explain.Overlay(tl, ws)
	case 2:
		schedule, err := home.ReadScheduleFile(fs.Arg(0))
		if err != nil {
			var te *sched.TruncatedError
			if !errors.As(err, &te) {
				fmt.Fprintln(stderr, "hometrace:", err)
				return 2
			}
			fmt.Fprintf(stderr, "hometrace: warning: %v; replaying the salvaged prefix\n", te)
		}
		srcBytes, err := os.ReadFile(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "hometrace:", err)
			return 2
		}
		rep, err := home.Check(string(srcBytes), home.Options{
			Procs: *procs, Threads: *threads, Seed: *seed,
			ReplaySchedule: schedule, Explain: true,
		})
		if err != nil {
			fmt.Fprintln(stderr, "hometrace:", err)
			return 2
		}
		ws = rep.Witnesses
		tl = home.BuildTimeline(rep.Trace)
		home.OverlayWitnesses(tl, ws)
	default:
		traceUsage(stderr)
		return 2
	}

	dst := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "hometrace:", err)
			return 2
		}
		defer f.Close()
		dst = f
	}
	if err := tl.WriteJSON(dst); err != nil {
		fmt.Fprintln(stderr, "hometrace:", err)
		return 2
	}
	fmt.Fprintf(stderr, "timeline: %d lanes rendered, %d witness markers\n", tl.Lanes(), len(ws))
	return 0
}

// traceReplay re-runs the full checker forcing a recorded schedule.
// Exit codes mirror homecheck: 0 clean, 1 violations, 2 errors.
func traceReplay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 2, "MPI ranks (must match the recording run)")
	threads := fs.Int("threads", 2, "OpenMP threads per rank (must match the recording run)")
	seed := fs.Int64("seed", 1, "simulation seed (must match the recording run)")
	mode := fs.String("mode", "combined", "dynamic analysis: combined, lockset, or hb")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		traceUsage(stderr)
		return 2
	}
	schedule, err := home.ReadScheduleFile(fs.Arg(0))
	if err != nil {
		var te *sched.TruncatedError
		if !errors.As(err, &te) {
			fmt.Fprintln(stderr, "hometrace:", err)
			return 2
		}
		// A schedule cut short still forces the recorded prefix of the
		// interleaving; warn and replay what was salvaged.
		fmt.Fprintf(stderr, "hometrace: warning: %v; replaying the salvaged prefix\n", te)
	}
	srcBytes, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "hometrace:", err)
		return 2
	}
	opts := home.Options{
		Procs:          *procs,
		Threads:        *threads,
		Seed:           *seed,
		ReplaySchedule: schedule,
	}
	m, ok := parseMode(*mode)
	if !ok {
		traceUsage(stderr)
		return 2
	}
	opts.Mode = m
	plan := schedule.Plan()
	fmt.Fprintf(stderr, "replay: forcing recorded schedule from %s (plan %s)\n", fs.Arg(0), &plan)
	rep, err := home.Check(string(srcBytes), opts)
	if err != nil {
		fmt.Fprintln(stderr, "hometrace:", err)
		return 2
	}
	fmt.Fprint(stdout, rep.Summary())
	if len(rep.Violations) > 0 {
		return 1
	}
	return 0
}

func traceRecord(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 2, "MPI ranks")
	threads := fs.Int("threads", 2, "OpenMP threads per rank")
	seed := fs.Int64("seed", 1, "simulation seed")
	all := fs.Bool("all", false, "instrument every MPI call")
	spansOut := fs.String("spans", "", "write phase spans as Chrome trace_event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		traceUsage(stderr)
		return 2
	}
	var prof *obs.Profile
	if *spansOut != "" {
		prof = obs.NewProfile()
	}
	srcBytes, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "hometrace:", err)
		return 2
	}
	sp := prof.Start("parse")
	prog, err := minic.Parse(string(srcBytes))
	sp.End()
	if err != nil {
		fmt.Fprintln(stderr, "hometrace:", err)
		return 2
	}
	sp = prof.Start("static")
	diags := minic.CheckSemantics(prog, minic.DefaultSemaOptions())
	sp.End()
	for _, d := range diags {
		fmt.Fprintln(stderr, "hometrace: diagnostic:", d.Error())
	}
	sp = prof.Start("instrument")
	plan := static.Analyze(prog, static.Options{InstrumentAll: *all})
	sp.End()
	log := trace.NewLog()
	sp = prof.Start("execute")
	res := interp.Run(prog, interp.Config{
		Procs: *procs, Threads: *threads, Seed: *seed,
		Instrument: plan.Instrument, Sink: log,
	})
	sp.SetVirtual(res.Makespan)
	sp.End()
	sp = prof.Start("write")
	err = trace.WriteJSON(stdout, log.Events())
	sp.End()
	if err != nil {
		fmt.Fprintln(stderr, "hometrace:", err)
		return 2
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, prof.Spans()); err != nil {
			fmt.Fprintln(stderr, "hometrace:", err)
			return 2
		}
	}
	fmt.Fprintf(stderr, "recorded %d events from %d ranks (deadlocked=%v)\n",
		log.Len(), *procs, res.Deadlocked)
	return 0
}

func traceAnalyze(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "combined", "analysis: combined, lockset, or hb")
	ignoreLocks := fs.Bool("ignore-locks", false, "drop lock events (the ITC model)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		traceUsage(stderr)
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "hometrace:", err)
		return 2
	}
	defer f.Close()
	events, err := trace.ReadJSON(f)
	if err != nil {
		var te *trace.TruncatedError
		if !errors.As(err, &te) {
			fmt.Fprintln(stderr, "hometrace:", err)
			return 2
		}
		// A recording cut short (crashed run, partial copy) still has an
		// analyzable prefix; warn and continue with what was salvaged.
		fmt.Fprintf(stderr, "hometrace: warning: %v; analyzing the salvaged prefix\n", te)
	}

	opts := detect.Options{IgnoreLocks: *ignoreLocks}
	m, ok := parseMode(*mode)
	if !ok {
		traceUsage(stderr)
		return 2
	}
	opts.Mode = m
	rep := detect.Analyze(events, opts)
	violations := spec.Match(events, rep)
	fmt.Fprintf(stdout, "analyzed %d events with %s analysis: %d race(s), %d violation(s)\n",
		len(events), opts.Mode, len(rep.Races), len(violations))
	for _, r := range rep.Races {
		fmt.Fprintln(stdout, "race:", r)
	}
	for _, v := range violations {
		fmt.Fprintln(stdout, "violation:", v)
	}
	if len(violations) > 0 {
		return 1
	}
	return 0
}

// traceTranscode converts a schedule stream between the JSONL and v3
// binary containers, losslessly. Exit codes: 0 written, 2 errors
// (including truncated input — a partial artifact should be salvaged
// deliberately with replay, not silently re-serialized as complete).
func traceTranscode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("transcode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	to := fs.String("to", "", "target container: v3 or jsonl (default: the one the input is not)")
	out := fs.String("o", "", "write the converted schedule to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		traceUsage(stderr)
		return 2
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "hometrace:", err)
		return 2
	}
	target := *to
	if target == "" {
		if sched.Binary(data) {
			target = "jsonl"
		} else {
			target = "v3"
		}
	}
	s, err := sched.Read(bytes.NewReader(data))
	if err != nil {
		fmt.Fprintln(stderr, "hometrace:", err)
		return 2
	}
	var converted []byte
	switch target {
	case "v3", "binary":
		converted, err = s.MarshalBinary()
	case "jsonl", "json":
		converted, err = s.MarshalJSONL()
	default:
		fmt.Fprintf(stderr, "hometrace: unknown -to %q (want v3 or jsonl)\n", target)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "hometrace:", err)
		return 2
	}
	if *out != "" {
		if err := os.WriteFile(*out, converted, 0o644); err != nil {
			fmt.Fprintln(stderr, "hometrace:", err)
			return 2
		}
	} else if _, err := stdout.Write(converted); err != nil {
		fmt.Fprintln(stderr, "hometrace:", err)
		return 2
	}
	fmt.Fprintf(stderr, "transcoded %d bytes to %d bytes (%s)\n", len(data), len(converted), target)
	return 0
}
