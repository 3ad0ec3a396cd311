package interp

import (
	"math"

	"home/internal/minic"
	"home/internal/omp"
)

// omp lowers an OpenMP construct, without the statement-entry
// bumpStep. Its bodies are lowered once and shared by the sequential
// path (no team, or a team of one) and the team path.
func (l *lowerer) omp(v *minic.OmpStmt) stmtFn {
	switch v.Kind {
	case minic.PragmaParallel, minic.PragmaParallelFor:
		par := l.parallel(v)
		return func(tc *threadCtx) (ctrl, error) {
			return ctrlNone, par(tc)
		}

	case minic.PragmaFor:
		f := v.Body.(*minic.ForStmt)
		lp := l.loop(f, v)
		_, decl := f.Init.(*minic.DeclStmt)
		rebind := !decl && v.LoopRef.Bound()
		slot, outer := v.LoopRef.Slot, v.LoopOuter
		return func(tc *threadCtx) (ctrl, error) {
			if tc.member == nil || tc.member.NumThreads() == 1 {
				if rebind {
					// Run sequentially, an assigned loop variable is the
					// variable the initializer assigns.
					tc.frame[slot] = tc.cell(outer)
				}
				return lp.seq(tc)
			}
			return ctrlNone, lp.shared(tc, tc.member)
		}

	case minic.PragmaSections:
		secs := make([]stmtFn, len(v.Sections))
		for i, sec := range v.Sections {
			secs[i] = l.stmt(sec)
		}
		return func(tc *threadCtx) (ctrl, error) {
			if tc.member == nil || tc.member.NumThreads() == 1 {
				for _, sec := range secs {
					if c, err := sec(tc); err != nil || c == ctrlReturn {
						return c, err
					}
				}
				return ctrlNone, nil
			}
			bodies := make([]func() error, len(secs))
			for i, sec := range secs {
				bodies[i] = func() error {
					_, err := sec(tc)
					return err
				}
			}
			return ctrlNone, tc.member.Sections(bodies...)
		}

	case minic.PragmaSingle:
		return l.teamBody(v, (*omp.Member).Single)
	case minic.PragmaMaster:
		return l.teamBody(v, (*omp.Member).Master)
	case minic.PragmaCritical:
		name := v.Name
		return l.teamBody(v, func(m *omp.Member, body func() error) error {
			return m.Critical(name, body)
		})

	case minic.PragmaBarrier:
		return func(tc *threadCtx) (ctrl, error) {
			if tc.member == nil {
				return ctrlNone, nil
			}
			return ctrlNone, tc.member.Barrier()
		}
	}
	line, what := v.Line, v.Kind
	return func(tc *threadCtx) (ctrl, error) {
		return ctrlNone, runtimeError(line, "unsupported omp construct %v", what)
	}
}

// teamBody lowers single, master and critical: outside a team the body
// runs as a plain statement; inside, the construct decides who runs it.
func (l *lowerer) teamBody(v *minic.OmpStmt, construct func(m *omp.Member, body func() error) error) stmtFn {
	body := l.stmt(v.Body)
	return func(tc *threadCtx) (ctrl, error) {
		if tc.member == nil {
			return body(tc)
		}
		return ctrlNone, construct(tc.member, func() error {
			_, err := body(tc)
			return err
		})
	}
}

// parallel lowers `omp parallel` / `omp parallel for`: it forks a team.
func (l *lowerer) parallel(v *minic.OmpStmt) func(*threadCtx) error {
	var numThreads numFn
	if v.NumThreads != nil {
		numThreads = l.expr(v.NumThreads).num
	}
	var body stmtFn
	var shared func(*threadCtx, *omp.Member) error
	if v.Kind == minic.PragmaParallelFor {
		shared = l.loop(v.Body.(*minic.ForStmt), v).shared
	} else {
		body = l.stmt(v.Body)
	}
	return func(tc *threadCtx) error {
		n := 0
		if numThreads != nil {
			nv, err := numThreads(tc)
			if err != nil {
				return err
			}
			n = int(nv)
		}
		return tc.in.rt.Parallel(tc.ctx, n, func(m *omp.Member) error {
			mtc := &threadCtx{in: tc.in, ctx: m.Ctx, member: m, frame: append([]*cell(nil), tc.frame...), status: tc.status}
			defer mtc.flushSteps()
			mtc.privatize(v)
			redCells, err := mtc.initReduction(v)
			if err != nil {
				return err
			}
			if shared != nil {
				err = shared(mtc, m)
			} else {
				var c ctrl
				c, err = body(mtc)
				if err == nil && c == ctrlReturn {
					err = runtimeError(v.Line, "return inside an omp parallel region")
				}
			}
			if err != nil {
				return err
			}
			return mtc.combineReduction(v, redCells, m)
		})
	}
}

// shadowed returns the variable a construct's copy at slot ref is
// created from: the construct's earlier copy of the same name, or else
// the outer binding. The parent thread never binds a construct's
// slots, so a non-nil slot in a fresh member frame is such a copy.
func (tc *threadCtx) shadowed(ref, outer minic.Ref) *cell {
	if c := tc.frame[ref.Slot]; c != nil {
		return c
	}
	return tc.cell(outer)
}

// privatize binds thread-private copies of the private variables,
// inheriting the declared type of the shadowed variable.
func (tc *threadCtx) privatize(v *minic.OmpStmt) {
	for i, ref := range v.PrivRefs {
		isFloat := false
		if outer := tc.shadowed(ref, v.PrivOuter[i]); outer != nil {
			isFloat = outer.isFloat
		}
		tc.frame[ref.Slot] = newCell(isFloat, false, Value{})
	}
}

// initReduction binds private accumulators initialized to the
// operator identity and returns them, one per reduction variable.
func (tc *threadCtx) initReduction(v *minic.OmpStmt) ([]*cell, error) {
	if v.Reduction == "" {
		return nil, nil
	}
	var identity float64
	switch v.Reduction {
	case "+":
		identity = 0
	case "*":
		identity = 1
	case "max":
		identity = math.Inf(-1)
	case "min":
		identity = math.Inf(1)
	default:
		return nil, runtimeError(v.Line, "unsupported reduction operator %q", v.Reduction)
	}
	for i, ref := range v.RedRefs {
		isFloat := true
		if outer := tc.shadowed(ref, v.RedOuter[i]); outer != nil {
			isFloat = outer.isFloat
		}
		tc.frame[ref.Slot] = newCell(isFloat, false, floatVal(identity))
	}
	// Collected after binding: a name listed twice has one copy.
	cells := make([]*cell, len(v.RedRefs))
	for i, ref := range v.RedRefs {
		cells[i] = tc.frame[ref.Slot]
	}
	return cells, nil
}

// combineReduction folds each thread's accumulator into the shared
// outer variable under a critical section, as OpenMP reductions do at
// region end.
func (tc *threadCtx) combineReduction(v *minic.OmpStmt, cells []*cell, m *omp.Member) error {
	if len(cells) == 0 {
		return nil
	}
	return m.Critical("$omp_reduction", func() error {
		for i, name := range v.RedVars {
			priv := cells[i].load().Num
			outer := tc.cell(v.RedOuter[i])
			if outer == nil {
				return runtimeError(v.Line, "reduction variable %q is not declared in the enclosing scope", name)
			}
			cur := outer.load()
			switch v.Reduction {
			case "+":
				cur.Num += priv
			case "*":
				cur.Num *= priv
			case "max":
				if priv > cur.Num {
					cur.Num = priv
				}
			case "min":
				if priv < cur.Num {
					cur.Num = priv
				}
			}
			outer.set(cur)
		}
		return nil
	})
}

// loopBounds is the normalized form of a canonical OpenMP loop.
type loopBounds struct {
	lo    float64
	count int64
	step  float64
}

// forLoopFns is a lowered for statement: seq runs it sequentially
// (without the statement-entry bumpStep), shared distributes a
// canonical loop over a team. Each part of the loop is lowered once and
// used by both.
type forLoopFns struct {
	seq    stmtFn
	shared func(*threadCtx, *omp.Member) error
}

// loop lowers a for statement; o is the worksharing construct that
// governs it, or nil.
func (l *lowerer) loop(f *minic.ForStmt, o *minic.OmpStmt) forLoopFns {
	if o == nil {
		var init stmtFn
		if f.Init != nil {
			init = l.stmt(f.Init)
		}
		var cond condFn
		if f.Cond != nil {
			cond = l.cond(f.Cond)
		}
		var post numFn
		if f.Post != nil {
			post = l.expr(f.Post).num
		}
		return forLoopFns{seq: forLoop(init, cond, post, l.stmt(f.Body))}
	}
	a := &loopShape{line: f.Line}
	seqLoop := o.Kind == minic.PragmaFor
	loop := o.LoopRef

	// Init part: `int i = lo` or `i = lo`.
	var init stmtFn
	switch in := f.Init.(type) {
	case *minic.DeclStmt:
		if len(in.Decls) != 1 || in.Decls[0].Init == nil {
			a.initErr = "omp for needs a canonical loop initializer"
			if seqLoop {
				init = l.stmt(in)
			}
			break
		}
		lo := l.expr(in.Decls[0].Init)
		a.lo = lo.num
		if seqLoop {
			init = l.declStmt(in, []expr{lo})
		}
	case *minic.ExprStmt:
		as, ok := in.X.(*minic.Assign)
		if !ok || as.Op != minic.TAssign {
			a.initErr = "omp for needs a canonical loop initializer"
		} else if _, ok := as.LHS.(*minic.Ident); !ok {
			a.initErr = "omp for loop variable must be a scalar"
		}
		if a.initErr != "" {
			if seqLoop {
				init = l.stmt(in)
			}
			break
		}
		lo := l.expr(as.RHS)
		a.lo = lo.num
		if seqLoop {
			init = exprStmt(l.assign(as.Line, as.Op, as.LHS, lo))
		}
	default:
		a.initErr = "omp for needs a loop initializer"
		if seqLoop && f.Init != nil {
			init = l.stmt(f.Init)
		}
	}

	// Condition part: `i REL limit`.
	var cond condFn
	if c, ok := f.Cond.(*minic.Binary); ok {
		x, lim := l.expr(c.X), l.expr(c.Y)
		if seqLoop {
			cond = condOf(c.Line, c.Op, x, lim)
		}
		if id, ok := c.X.(*minic.Ident); !ok || id.Ref != loop {
			a.condErr = "omp for condition must test the loop variable"
		} else if reads(c.Y, loop) {
			a.condErr = "omp for loop bound must not read the loop variable"
		} else {
			a.limit = lim.num
			a.rel = c.Op
		}
	} else {
		a.condErr = "omp for needs a canonical loop condition"
		if seqLoop && f.Cond != nil {
			cond = l.cond(f.Cond)
		}
	}

	// Step part: `i++`, `i--`, `i += c` or `i -= c`.
	var post numFn
	switch p := f.Post.(type) {
	case *minic.IncDec:
		a.step = 1
		if p.Op != minic.TPlusPlus {
			a.step = -1
		}
		if seqLoop {
			post = l.expr(p).num
		}
	case *minic.Assign:
		sv := l.expr(p.RHS)
		if seqLoop {
			post = l.assign(p.Line, p.Op, p.LHS, sv).num
		}
		switch {
		case reads(p.RHS, loop):
			a.stepErr = "omp for step must not read the loop variable"
		case p.Op == minic.TPlusEq:
			a.stepExpr = sv.num
		case p.Op == minic.TMinusEq:
			a.stepExpr, a.negStep = sv.num, true
		default:
			a.stepExpr = sv.num
			a.badStep = true
		}
	default:
		a.stepErr = "omp for needs a loop increment"
		if seqLoop && f.Post != nil {
			post = l.expr(f.Post).num
		}
	}

	body := l.stmt(f.Body)
	fns := forLoopFns{shared: a.shared(o, l, body)}
	if seqLoop {
		fns.seq = forLoop(init, cond, post, body)
	}
	return fns
}

// loopShape is a canonical loop's analysis, decided at lowering: the
// lowered bound expressions and the first shape error. The error is
// raised when the worksharing loop runs, at the point where reading
// the loop's parts in order (initializer, limit, step) reaches it.
type loopShape struct {
	line int
	// initErr is raised before anything is evaluated, condErr after the
	// initializer, stepErr after the limit.
	initErr, condErr, stepErr string
	lo, limit                 numFn
	rel                       minic.Kind
	step                      float64 // ±1 for i++/i--
	stepExpr                  numFn   // the c of i += c or i -= c
	negStep                   bool
	badStep                   bool // an assignment other than += or -=, raised after c
}

// bounds evaluates the loop's (lo, count, step), raising its shape
// errors in order.
func (a *loopShape) bounds(tc *threadCtx) (loopBounds, error) {
	var b loopBounds
	if a.initErr != "" {
		return b, runtimeError(a.line, "%s", a.initErr)
	}
	v, err := a.lo(tc)
	if err != nil {
		return b, err
	}
	b.lo = v
	if a.condErr != "" {
		return b, runtimeError(a.line, "%s", a.condErr)
	}
	limit, err := a.limit(tc)
	if err != nil {
		return b, err
	}
	if a.stepErr != "" {
		return b, runtimeError(a.line, "%s", a.stepErr)
	}
	step := a.step
	if a.stepExpr != nil {
		sv, err := a.stepExpr(tc)
		if err != nil {
			return b, err
		}
		if a.badStep {
			return b, runtimeError(a.line, "omp for needs i++/i--/i+=c/i-=c increment")
		}
		step = sv
		if a.negStep {
			step = -sv
		}
	}
	if step == 0 {
		return b, runtimeError(a.line, "omp for step must be nonzero")
	}
	b.step = step

	// Iteration count from relation and step direction.
	var span float64
	switch a.rel {
	case minic.TLt:
		span = limit - b.lo
	case minic.TLe:
		span = limit - b.lo + 1
	case minic.TGt:
		span = b.lo - limit
	case minic.TGe:
		span = b.lo - limit + 1
	default:
		return b, runtimeError(a.line, "omp for condition must be a comparison")
	}
	if span <= 0 {
		b.count = 0
		return b, nil
	}
	b.count = int64(math.Ceil(span / math.Abs(step)))
	return b, nil
}

// reads reports whether e names the variable r.
func reads(e minic.Expr, r minic.Ref) bool {
	found := false
	minic.Walk(e, func(n minic.Node) bool {
		if id, ok := n.(*minic.Ident); ok && id.Ref == r {
			found = true
		}
		return !found
	})
	return found
}

// shared lowers the worksharing form of the loop: it distributes the
// canonical loop over the team.
func (a *loopShape) shared(o *minic.OmpStmt, l *lowerer, body stmtFn) func(*threadCtx, *omp.Member) error {
	sched := omp.ScheduleStatic
	switch o.Schedule {
	case minic.SchedDynamic:
		sched = omp.ScheduleDynamic
	case minic.SchedGuided:
		sched = omp.ScheduleGuided
	}
	var chunkExpr numFn
	if o.Chunk != nil {
		chunkExpr = l.expr(o.Chunk).num
	}
	slot, line := o.LoopRef.Slot, a.line
	return func(tc *threadCtx, m *omp.Member) error {
		b, err := a.bounds(tc)
		if err != nil {
			return err
		}
		chunk := int64(0)
		if chunkExpr != nil {
			cv, err := chunkExpr(tc)
			if err != nil {
				return err
			}
			chunk = int64(int(cv))
		}
		// The loop variable is implicitly private.
		ivar := newCell(false, false, Value{})
		tc.frame[slot] = ivar
		return m.For(0, b.count, sched, chunk, func(k int64) error {
			ivar.storeNum(b.lo+float64(k)*b.step, false)
			c, err := body(tc)
			if err != nil {
				return err
			}
			if c == ctrlReturn || c == ctrlBreak {
				return runtimeError(line, "break/return out of an omp for loop")
			}
			return nil
		})
	}
}
