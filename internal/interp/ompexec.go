package interp

import (
	"math"

	"home/internal/minic"
	"home/internal/omp"
)

// execOmp executes an OpenMP construct.
func (tc *threadCtx) execOmp(v *minic.OmpStmt) (ctrl, error) {
	switch v.Kind {
	case minic.PragmaParallel, minic.PragmaParallelFor:
		return ctrlNone, tc.execParallel(v)

	case minic.PragmaFor:
		f := v.Body.(*minic.ForStmt)
		if tc.member == nil || tc.member.NumThreads() == 1 {
			if _, decl := f.Init.(*minic.DeclStmt); !decl && v.LoopRef.Bound() {
				// Run sequentially, an assigned loop variable is the
				// variable the initializer assigns.
				tc.frame[v.LoopRef.Slot] = tc.cell(v.LoopOuter)
			}
			return tc.execFor(f)
		}
		return ctrlNone, tc.execWorksharedFor(v, f, tc.member)

	case minic.PragmaSections:
		if tc.member == nil || tc.member.NumThreads() == 1 {
			for _, sec := range v.Sections {
				if c, err := tc.execStmt(sec); err != nil || c == ctrlReturn {
					return c, err
				}
			}
			return ctrlNone, nil
		}
		bodies := make([]func() error, len(v.Sections))
		for i, sec := range v.Sections {
			sec := sec
			bodies[i] = func() error {
				_, err := tc.execStmt(sec)
				return err
			}
		}
		return ctrlNone, tc.member.Sections(bodies...)

	case minic.PragmaSingle:
		if tc.member == nil {
			return tc.execStmt(v.Body)
		}
		return ctrlNone, tc.member.Single(func() error {
			_, err := tc.execStmt(v.Body)
			return err
		})

	case minic.PragmaMaster:
		if tc.member == nil {
			return tc.execStmt(v.Body)
		}
		return ctrlNone, tc.member.Master(func() error {
			_, err := tc.execStmt(v.Body)
			return err
		})

	case minic.PragmaCritical:
		if tc.member == nil {
			return tc.execStmt(v.Body)
		}
		return ctrlNone, tc.member.Critical(v.Name, func() error {
			_, err := tc.execStmt(v.Body)
			return err
		})

	case minic.PragmaBarrier:
		if tc.member == nil {
			return ctrlNone, nil
		}
		return ctrlNone, tc.member.Barrier()
	}
	return ctrlNone, runtimeError(v.Line, "unsupported omp construct %v", v.Kind)
}

// execParallel forks a team for `omp parallel` / `omp parallel for`.
func (tc *threadCtx) execParallel(v *minic.OmpStmt) error {
	n := 0
	if v.NumThreads != nil {
		nv, err := tc.evalExpr(v.NumThreads)
		if err != nil {
			return err
		}
		n = nv.Int()
	}
	return tc.in.rt.Parallel(tc.ctx, n, func(m *omp.Member) error {
		mtc := &threadCtx{in: tc.in, ctx: m.Ctx, member: m, frame: append([]*cell(nil), tc.frame...), status: tc.status}
		defer mtc.flushSteps()
		mtc.privatize(v)
		redCells, err := mtc.initReduction(v)
		if err != nil {
			return err
		}
		if v.Kind == minic.PragmaParallelFor {
			err = mtc.execWorksharedFor(v, v.Body.(*minic.ForStmt), m)
		} else {
			var c ctrl
			c, err = mtc.execStmt(v.Body)
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

// analyzeLoop normalizes `for (i = lo; i REL limit; i STEP)` into
// (lo, iteration count, step), as an OpenMP runtime must for canonical
// loop forms. The loop variable i is the slot loop; the limit and the
// step must not read it.
func (tc *threadCtx) analyzeLoop(f *minic.ForStmt, loop minic.Ref) (loopBounds, error) {
	var b loopBounds
	// Init part.
	switch init := f.Init.(type) {
	case *minic.DeclStmt:
		if len(init.Decls) != 1 || init.Decls[0].Init == nil {
			return b, runtimeError(f.Line, "omp for needs a canonical loop initializer")
		}
		v, err := tc.evalExpr(init.Decls[0].Init)
		if err != nil {
			return b, err
		}
		b.lo = v.Num
	case *minic.ExprStmt:
		as, ok := init.X.(*minic.Assign)
		if !ok || as.Op != minic.TAssign {
			return b, runtimeError(f.Line, "omp for needs a canonical loop initializer")
		}
		if _, ok := as.LHS.(*minic.Ident); !ok {
			return b, runtimeError(f.Line, "omp for loop variable must be a scalar")
		}
		v, err := tc.evalExpr(as.RHS)
		if err != nil {
			return b, err
		}
		b.lo = v.Num
	default:
		return b, runtimeError(f.Line, "omp for needs a loop initializer")
	}

	// Condition part.
	cond, ok := f.Cond.(*minic.Binary)
	if !ok {
		return b, runtimeError(f.Line, "omp for needs a canonical loop condition")
	}
	if id, ok := cond.X.(*minic.Ident); !ok || id.Ref != loop {
		return b, runtimeError(f.Line, "omp for condition must test the loop variable")
	}
	if reads(cond.Y, loop) {
		return b, runtimeError(f.Line, "omp for loop bound must not read the loop variable")
	}
	limV, err := tc.evalExpr(cond.Y)
	if err != nil {
		return b, err
	}
	limit := limV.Num

	// Step part.
	step := 0.0
	switch post := f.Post.(type) {
	case *minic.IncDec:
		if post.Op == minic.TPlusPlus {
			step = 1
		} else {
			step = -1
		}
	case *minic.Assign:
		if reads(post.RHS, loop) {
			return b, runtimeError(f.Line, "omp for step must not read the loop variable")
		}
		sv, err := tc.evalExpr(post.RHS)
		if err != nil {
			return b, err
		}
		switch post.Op {
		case minic.TPlusEq:
			step = sv.Num
		case minic.TMinusEq:
			step = -sv.Num
		default:
			return b, runtimeError(f.Line, "omp for needs i++/i--/i+=c/i-=c increment")
		}
	default:
		return b, runtimeError(f.Line, "omp for needs a loop increment")
	}
	if step == 0 {
		return b, runtimeError(f.Line, "omp for step must be nonzero")
	}
	b.step = step

	// Iteration count from relation and step direction.
	var span float64
	switch cond.Op {
	case minic.TLt:
		span = limit - b.lo
	case minic.TLe:
		span = limit - b.lo + 1
	case minic.TGt:
		span = b.lo - limit
	case minic.TGe:
		span = b.lo - limit + 1
	default:
		return b, runtimeError(f.Line, "omp for condition must be a comparison")
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

// execWorksharedFor distributes a canonical loop over the team.
func (tc *threadCtx) execWorksharedFor(o *minic.OmpStmt, f *minic.ForStmt, m *omp.Member) error {
	b, err := tc.analyzeLoop(f, o.LoopRef)
	if err != nil {
		return err
	}
	sched := omp.ScheduleStatic
	switch o.Schedule {
	case minic.SchedDynamic:
		sched = omp.ScheduleDynamic
	case minic.SchedGuided:
		sched = omp.ScheduleGuided
	}
	chunk := int64(0)
	if o.Chunk != nil {
		cv, err := tc.evalExpr(o.Chunk)
		if err != nil {
			return err
		}
		chunk = int64(cv.Int())
	}
	// The loop variable is implicitly private.
	ivar := newCell(false, false, Value{})
	tc.frame[o.LoopRef.Slot] = ivar
	return m.For(0, b.count, sched, chunk, func(k int64) error {
		ivar.store(intVal(b.lo + float64(k)*b.step))
		c, err := tc.execStmt(f.Body)
		if err != nil {
			return err
		}
		if c == ctrlReturn || c == ctrlBreak {
			return runtimeError(f.Line, "break/return out of an omp for loop")
		}
		return nil
	})
}
