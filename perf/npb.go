package main

import (
	"errors"
	"fmt"
	"math/rand"

	"home"
	"home/internal/baseline"
	"home/internal/npb"
	"home/internal/spec"
)

// tableI is the paper's Table I at 4 processes: the number of reports
// each tool makes on each benchmark with six injected violations
// (detected injections plus false positives).
var tableI = map[npb.Benchmark]struct{ home, itc, marmot int }{
	npb.LU: {6, 5, 5},
	npb.BT: {6, 7, 6},
	npb.SP: {6, 6, 5},
}

// tableIProcs is the process count of Table I.
const tableIProcs = 4

// npbProgram is one generated NPB-MZ benchmark with the paper's
// injections, compiled.
type npbProgram struct {
	bench npb.Benchmark
	src   *npb.Source
	comp  *home.Compiled
}

func compileNPB(class byte) ([]npbProgram, error) {
	var out []npbProgram
	for _, b := range npb.All() {
		o := npb.PaperInjections(b)
		o.Class = npb.Class(class)
		src := npb.Generate(b, o)
		comp, err := home.Compile(src.Text)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", b, err)
		}
		out = append(out, npbProgram{bench: b, src: src, comp: comp})
	}
	return out, nil
}

// score attributes a tool's violations to the injected sites: the
// number of distinct injected kinds hit and of reports outside every
// site (false positives).
func score(src *npb.Source, vs []spec.Violation) (detected, falsePos int) {
	hit := map[spec.Kind]bool{}
	fps := map[string]bool{}
	for _, v := range vs {
		if k, ok := src.Attribute(v); ok {
			hit[k] = true
		} else {
			fps[fmt.Sprintf("%v@%v", v.Kind, v.Lines)] = true
		}
	}
	return len(hit), len(fps)
}

// checkHOME checks a HOME report on an injected NPB program: all six
// injected kinds attributed and no false positive (the Table I HOME
// cell), from a run that neither failed nor deadlocked.
func checkHOME(src *npb.Source, rep *home.Report, wantKinds int) error {
	if err := firstErr(rep.RunErrors); err != nil {
		return err
	}
	if rep.Deadlocked {
		return errors.New("deadlocked")
	}
	if det, fp := score(src, rep.Violations); det != wantKinds || fp != 0 {
		return fmt.Errorf("HOME attributed %d/%d injected kinds with %d false positives", det, wantKinds, fp)
	}
	return nil
}

// checkTool checks a baseline tool's run, and its Table I cell when
// want >= 0.
func checkTool(src *npb.Source, r *baseline.Result, want int) error {
	if err := firstErr(r.Errs); err != nil {
		return fmt.Errorf("%v: %w", r.Tool, err)
	}
	if r.Deadlocked {
		return fmt.Errorf("%v: deadlocked", r.Tool)
	}
	if want < 0 {
		return nil
	}
	if det, fp := score(src, r.Violations); det+fp != want {
		return fmt.Errorf("%v reported %d (%d kinds + %d false positives), Table I says %d", r.Tool, det+fp, det, fp, want)
	}
	return nil
}

func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// npbBench is npb-check or paper-figures: a closed loop over NPB
// configs.
type npbBench struct {
	*closedLoop
	cfgs []config
}

func (b *npbBench) configs() []config { return b.cfgs }
func (b *npbBench) diagnose()         {}
func (b *npbBench) close() error      { return nil }

// newNPBBench compiles the three benchmarks at the class, crosses them
// with the process counts, and makes one op per config with mk. Set-up
// ends with one warm-up op on every config whose procs are in warm.
func newNPBBench(seed int64, class byte, procs, warm []int,
	mk func(c config, p npbProgram) func(opTrace, *tally) (int, error)) (*npbBench, error) {
	progs, err := compileNPB(class)
	if err != nil {
		return nil, err
	}
	b := &npbBench{closedLoop: &closedLoop{rng: rand.New(rand.NewSource(seed))}}
	var warmOps []op
	for _, p := range progs {
		for _, n := range procs {
			c := config{
				name: fmt.Sprintf("%v/%c/p%d", p.bench, class, n),
				comp: p.comp,
				opts: home.Options{Procs: n, Threads: 2, Seed: seed},
			}
			o := op{name: c.name, run: mk(c, p)}
			b.cfgs = append(b.cfgs, c)
			b.ops = append(b.ops, o)
			for _, w := range warm {
				if w == n {
					warmOps = append(warmOps, o)
				}
			}
		}
	}
	var t tally
	for _, o := range warmOps {
		if _, err := o.run(opTrace{}, &t); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", o.name, err)
		}
	}
	return b, nil
}

// setupNPBCheck is npb-check: a user checking a real hybrid code. One
// op is one warm-handle home.CheckCompiled of an injected class-B
// benchmark, so the front end stays outside the timed path and the
// runtime dominates.
func setupNPBCheck(seed int64, sz sizes) (bench, error) {
	return newNPBBench(seed, sz.checkClass, sz.checkProcs, sz.checkProcs, func(c config, p npbProgram) func(opTrace, *tally) (int, error) {
		return func(ot opTrace, t *tally) (int, error) {
			rep, err := traceCheck(ot, "home.check", c.comp, c.opts)
			if err != nil {
				return 0, err
			}
			if err := checkHOME(p.src, rep, tableI[p.bench].home); err != nil {
				return 0, err
			}
			t.makespan(c.name, rep.Makespan)
			return rep.EventsAnalyzed, nil
		}
	})
}

// setupFigures is paper-figures: one op is one point of Figures 4-6,
// the Base, HOME, Marmot and ITC runs of one benchmark at one process
// count. ITC's all-access log makes the detector the main cost here.
func setupFigures(seed int64, sz sizes) (bench, error) {
	return newNPBBench(seed, sz.figureClass, sz.figureProcs, sz.warmFigure, func(c config, p npbProgram) func(opTrace, *tally) (int, error) {
		prog := c.comp.Program()
		bo := baseline.Options{Procs: c.opts.Procs, Threads: c.opts.Threads, Seed: c.opts.Seed}
		wantITC, wantMarmot := -1, -1
		if c.opts.Procs == tableIProcs {
			wantITC, wantMarmot = tableI[p.bench].itc, tableI[p.bench].marmot
		}
		return func(ot opTrace, t *tally) (int, error) {
			s := ot.begin("baseline.base")
			base := baseline.RunBase(prog, bo)
			ot.end(s)
			if err := checkTool(p.src, base, -1); err != nil {
				return 0, err
			}
			rep, err := traceCheck(ot, "home.check", c.comp, c.opts)
			if err != nil {
				return 0, err
			}
			if err := checkHOME(p.src, rep, tableI[p.bench].home); err != nil {
				return 0, err
			}
			t.makespan(c.name, rep.Makespan)
			s = ot.begin("baseline.marmot")
			marmot := baseline.RunMarmot(prog, bo)
			ot.end(s)
			if err := checkTool(p.src, marmot, wantMarmot); err != nil {
				return 0, err
			}
			s = ot.begin("baseline.itc")
			itc := baseline.RunITC(prog, bo)
			ot.end(s)
			if err := checkTool(p.src, itc, wantITC); err != nil {
				return 0, err
			}
			return rep.EventsAnalyzed + marmot.Events + itc.Events, nil
		}
	})
}

// traceCheck runs home.CheckCompiled inside a span named name, with the
// pipeline's phase spans as its children when tracing.
func traceCheck(ot opTrace, name string, comp *home.Compiled, opts home.Options) (*home.Report, error) {
	opts.Profile = ot.tr.profile()
	s := ot.begin(name)
	rep, err := home.CheckCompiled(comp, opts)
	ot.end(s)
	ot.tr.addProfile(s, opts.Profile)
	return rep, err
}
