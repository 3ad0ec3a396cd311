package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"home"
	"home/internal/baseline"
	"home/internal/detect"
	"home/internal/interp"
	"home/internal/minic"
	"home/internal/sched"
	"home/internal/serve"
	"home/internal/spec"
	"home/internal/static"
	"home/internal/trace"
)

// ledgerOp is the op id of the first ledger configuration, above any
// op id a traced stretch uses.
const ledgerOp = 1 << 30

// samples collects per-configuration values of the ledger metrics.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) mean(name string) float64 { return sum(s[name]) / float64(len(s[name])) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timed runs f inside a span and returns its duration.
func (o opTrace) timed(name string, f func()) time.Duration {
	s := o.begin(name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	o.end(s)
	return d
}

// runLedger attributes time to layers by isolation: for each distinct
// config of the workload it calls every layer's public entry point on
// its own (front end, runtime with and without the trace log, detector,
// matcher, the HOME pipeline, the schedule codecs and replay, the
// baseline tools, the serving layer) under a span, and derives the
// per-layer metrics as means per config. Counters come from the HOME
// pipeline's stats registry.
func runLedger(tr *tracer, cfgs []config, t *tally, vals map[string]float64) error {
	srv := serve.New(serve.Config{Workers: 2})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(ctx)
	}
	cl, err := newClient(srv.Addr())
	if err != nil {
		stop()
		return err
	}
	defer func() {
		cl.close()
		stop()
	}()

	s := samples{}
	for i, c := range cfgs {
		op := ledgerOp + i
		ot := opTrace{tr: tr, op: op}
		ot.parent = tr.begin("ledger", op, 0)
		err := ledgerConfig(ot, c, cl, s)
		tr.end(ot.parent)
		if err != nil {
			err = fmt.Errorf("ledger %s: %w", c.name, err)
		}
		t.count(err)
	}

	for _, d := range perLayer {
		if _, ok := s[d.name]; ok {
			vals[d.name] = s.mean(d.name)
		}
	}
	// The epoch fast-path hit rate is a ratio of totals, not a mean.
	hits, joins := sum(s["detect.epoch_hits"]), sum(s["detect.vc_joins"])
	vals["detect.epoch_hit_ratio"] = hits / max(1, hits+joins)
	return nil
}

// ledgerConfig measures every layer once on config c.
func ledgerConfig(ot opTrace, c config, cl *client, s samples) error {
	// Front end, cold, on the program's source text.
	var prog *minic.Program
	var err error
	src := c.comp.Source()
	s.add("minic.parse_us", us(ot.timed("minic.parse", func() { prog, err = minic.Parse(src) })))
	if err != nil {
		return err
	}
	s.add("minic.sema_us", us(ot.timed("minic.sema", func() { minic.CheckSemantics(prog, minic.DefaultSemaOptions()) })))
	var plan *static.Plan
	s.add("static.plan_us", us(ot.timed("static.plan", func() { plan = static.Analyze(prog, static.Options{}) })))

	// Runtime without a sink, then with the trace log the pipeline
	// keeps; the difference is the cost of emitting events.
	ic := interp.Config{Procs: c.opts.Procs, Threads: c.opts.Threads, Seed: c.opts.Seed, Chaos: c.opts.Chaos}
	run := ot.timed("interp.run", func() { interp.Run(prog, ic) })
	log := trace.NewLog()
	ic.Instrument, ic.Sink = plan.Instrument, log
	logged := ot.timed("interp.run_logged", func() { interp.Run(prog, ic) })
	events := log.Events()
	var rep *detect.Report
	analyze := ot.timed("detect.analyze", func() { rep = detect.Analyze(events, detect.Options{}) })
	s.add("spec.match_ms", ms(ot.timed("spec.match", func() { spec.Match(events, rep) })))

	// The HOME pipeline on the warm handle, with its phase spans and
	// counters.
	opts := c.opts
	opts.Profile, opts.Stats = home.NewProfile(), home.NewStatsRegistry()
	sp := ot.begin("home.check")
	t0 := time.Now()
	hrep, err := home.CheckCompiled(c.comp, opts)
	check := time.Since(t0)
	ot.end(sp)
	if err != nil {
		return err
	}
	ot.tr.addProfile(sp, opts.Profile)
	phase := map[string]time.Duration{}
	for _, p := range opts.Profile.Spans() {
		phase[p.Name] += time.Duration(p.WallNs)
	}
	counters := hrep.Stats.Counters
	stmts := float64(counters["interp.statements"])

	s.add("interp.run_ms", ms(run))
	s.add("interp.ns_per_stmt", float64(run.Nanoseconds())/max(1, stmts))
	s.add("trace.emit_ms", ms(logged-run))
	s.add("trace.events", float64(len(events)))
	s.add("detect.analyze_ms", ms(analyze))
	s.add("detect.ns_per_event", float64(analyze.Nanoseconds())/float64(max(1, len(events))))
	s.add("home.execute_ms", ms(phase["execute"]))
	s.add("home.analyze_ms", ms(phase["analyze"]))
	s.add("home.match_ms", ms(phase["match"]))
	// execute runs the same instrumented program as the logged run,
	// plus the online detector.
	s.add("detect.online_ms", ms(phase["execute"]-logged))
	s.add("baseline.home_ms", ms(check))
	for _, name := range []string{
		"interp.statements", "mpi.sends", "mpi.collective_rounds", "omp.parallel_regions", "omp.lock_acquires",
		"detect.vc_comparisons", "detect.vc_joins", "detect.epoch_hits", "detect.confirmed_races",
	} {
		s.add(name, float64(counters[name]))
	}

	if err := ledgerSched(ot, c, s); err != nil {
		return err
	}

	// The baseline tools. The ITC model is timed as its two steps, the
	// all-access run and the lock-blind analysis of its log.
	bo := baseline.Options{Procs: c.opts.Procs, Threads: c.opts.Threads, Seed: c.opts.Seed}
	s.add("baseline.base_ms", ms(ot.timed("baseline.base", func() { baseline.RunBase(prog, bo) })))
	s.add("baseline.marmot_ms", ms(ot.timed("baseline.marmot", func() { baseline.RunMarmot(prog, bo) })))
	itcLog := trace.NewLog()
	itcRun := ot.timed("interp.run_itc", func() {
		interp.Run(prog, interp.Config{
			Procs: bo.Procs, Threads: bo.Threads, Seed: bo.Seed,
			Instrument: func(int) bool { return true }, Sink: itcLog, MonitorAllAccesses: true,
		})
	})
	itcAnalyze := ot.timed("detect.itc_analyze", func() {
		detect.Analyze(itcLog.Events(), detect.Options{IgnoreLocks: true})
	})
	s.add("detect.itc_analyze_ms", ms(itcAnalyze))
	s.add("baseline.itc_ms", ms(itcRun+itcAnalyze))

	return ledgerServe(ot, c, cl, check, s)
}

// ledgerSched records the config's schedule, decodes it from both
// codecs and replays the JSONL decoding. A schedule that fails to
// decode, or a replay that diverges or wedges, counts against the
// identity ratio; that is what the ratio measures, not a failure.
func ledgerSched(ot opTrace, c config, s samples) error {
	var rrep *home.Report
	var rec *home.ScheduleRecorder
	var err error
	ot.timed("sched.record", func() { rrep, rec, err = record(c.comp, c.opts) })
	if err != nil {
		return err
	}
	jsonl, v3 := rec.Bytes(), rec.BytesBinary()
	var sc *sched.Schedule
	var errJSONL, errV3 error
	s.add("sched.decode_us.jsonl", us(ot.timed("sched.decode.jsonl", func() { sc, errJSONL = sched.Read(bytes.NewReader(jsonl)) })))
	s.add("sched.decode_us.v3", us(ot.timed("sched.decode.v3", func() { _, errV3 = sched.Read(bytes.NewReader(v3)) })))
	s.add("sched.bytes_jsonl", float64(len(jsonl)))
	s.add("sched.bytes_v3", float64(len(v3)))
	decodeErrs := 0
	for _, e := range []error{errJSONL, errV3} {
		if e != nil {
			decodeErrs++
		}
	}
	s.add("sched.decode_errors", float64(decodeErrs))
	if errJSONL != nil {
		s.add("sched.replay_forced", 0)
		s.add("replay.report_identity_ratio", 0)
		return nil
	}
	opts := c.opts
	opts.Chaos, opts.ReplaySchedule = nil, sc
	var prep *home.Report
	ot.timed("sched.replay", func() { prep, err = boundedCheck(c.comp, opts) })
	s.add("sched.replay_forced", float64(sc.Forced()))
	same := 0.0
	if err == nil && prep.Summary() == rrep.Summary() {
		same = 1
	}
	s.add("replay.report_identity_ratio", same)
	return nil
}

// ledgerServe submits the config to an in-process daemon twice: once
// with a unique trailing comment (a cache miss) and once resubmitting
// those bytes (a hit). The hit's latency beyond the in-process check is
// the serving overhead.
func ledgerServe(ot opTrace, c config, cl *client, check time.Duration, s samples) error {
	req := serve.JobRequest{
		Program: c.comp.Source() + fmt.Sprintf("\n/* perf ledger %d */\n", ot.op),
		Procs:   c.opts.Procs, Threads: c.opts.Threads, Seed: c.opts.Seed,
	}
	if c.opts.Chaos != nil {
		req.Chaos = c.opts.Chaos.String()
	}
	for _, kind := range []string{"miss", "hit"} {
		j := newJob(fmt.Sprintf("perf-ledger-%d-%s", ot.op, kind), ot.op, 0, nil, req)
		j.parent = ot.parent
		var t tally
		cl.drive([]*job{j}, 1, ot.tr, &t)
		if t.failed > 0 {
			return errors.New(t.errs[0])
		}
		s.add("serve.submit_ms."+kind, ms(j.submit))
		if kind == "hit" {
			s.add("serve.overhead_ms", ms(j.lat-check))
		}
	}
	return nil
}
