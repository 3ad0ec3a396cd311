package interp

import (
	"sync/atomic"

	"home/internal/minic"
)

// Lowering: the first Run of a program compiles it once into closures
// over *threadCtx, and every later run of the same *minic.Program
// reuses them (minic.Program.Lowered), whichever goroutine or tool
// runs it. A statement is a stmtFn; an expression is an expr whose
// float-ness is decided at lowering where it is static. Calls are
// bound here: a builtin to its implementation, a user call to its
// function. Each AST node is lowered exactly once.
//
// The lowered code keeps the interpreter's contract: bumpStep at every
// statement's entry and every loop back-edge, monitorAccess at every
// variable and element access, evaluation left to right with the first
// error stopping the rest, and each error's text and line. A shape error
// (a bad omp for, an unknown routine) is raised when the statement or
// call executes, not at lowering.

// program is a lowered *minic.Program.
type program struct {
	globals []stmtFn  // the global declarations, in order
	main    *function // nil if the program has no main
}

// function is a lowered user function.
type function struct {
	decl *minic.FuncDecl
	body stmtFn
}

// stmtFn executes one lowered statement.
type stmtFn func(tc *threadCtx) (ctrl, error)

// lowerCount counts lowerings, for tests: a program lowers once.
var lowerCount atomic.Int64

// lowered returns prog's compiled form, lowering it on first use.
func lowered(prog *minic.Program) *program {
	return prog.Lowered(func(p *minic.Program) any { return lower(p) }).(*program)
}

// lowerer carries the lowering state of one program.
type lowerer struct {
	funcs map[string]*function // the first definition of each name
	// globals and kinds are the float-ness of reads of the global
	// slots and of the current function's local slots (kinds is nil at
	// file scope, where every name is global).
	globals, kinds []kind
}

func lower(prog *minic.Program) *program {
	lowerCount.Add(1)
	l := &lowerer{funcs: make(map[string]*function, len(prog.Funcs)), globals: globalKinds(prog)}
	fns := make([]*function, len(prog.Funcs))
	for i, f := range prog.Funcs {
		fns[i] = &function{decl: f}
		if l.funcs[f.Name] == nil {
			l.funcs[f.Name] = fns[i]
		}
	}
	out := &program{main: l.funcs["main"]}
	for _, g := range prog.Globals {
		out.globals = append(out.globals, l.stmt(g))
	}
	for _, fn := range fns {
		l.kinds = slotKinds(fn.decl)
		fn.body = l.stmt(fn.decl.Body)
	}
	return out
}

// declKind is the float-ness of a declared variable. An array read as
// a scalar is an int.
func declKind(t minic.TypeKind, isArray bool) kind {
	if t == minic.TypeDouble && !isArray {
		return kindFloat
	}
	return kindInt
}

// globalKinds is the float-ness of each global slot: its declared
// type. Two exceptions are kindDyn: a name declared again with another
// type, and a double that shares its name with a runtime constant,
// which a read before the declaration runs falls back to.
func globalKinds(prog *minic.Program) []kind {
	kinds := make([]kind, prog.NumGlobals)
	seen := make([]bool, prog.NumGlobals)
	for _, g := range prog.Globals {
		for _, d := range g.Decls {
			if !d.Ref.Global || !d.Ref.Bound() {
				continue
			}
			s, k := d.Ref.Slot, declKind(g.Type, d.ArraySize != nil)
			if _, ok := constants[d.Name]; (ok && k != kindInt) || (seen[s] && kinds[s] != k) {
				k = kindDyn
			}
			kinds[s], seen[s] = k, true
		}
	}
	return kinds
}

// slotKinds is the float-ness of each local slot of f: its declared
// type, and for a construct's private copy or reduction accumulator
// the type of the variable it copies. The loop variable of an omp for
// is kindDyn unless it is an int: a team runs the loop on an int
// copy, while a thread alone runs it on the declared or assigned
// variable.
func slotKinds(f *minic.FuncDecl) []kind {
	kinds := make([]kind, f.Frame)
	for i, p := range f.Params {
		kinds[i] = declKind(p.Type, p.IsArray)
	}
	minic.Walk(f.Body, func(n minic.Node) bool {
		if ds, ok := n.(*minic.DeclStmt); ok {
			for _, d := range ds.Decls {
				if !d.Ref.Global && d.Ref.Bound() {
					kinds[d.Ref.Slot] = declKind(ds.Type, d.ArraySize != nil)
				}
			}
		}
		return true
	})
	// Constructs in source order, so a copy of an enclosing construct's
	// copy finds its kind decided. A copy of a global is kindDyn: a
	// function that a global initializer calls may fork before the
	// global is declared, and the copy then takes the type of no
	// variable.
	kindOf := func(r minic.Ref, unbound kind) kind {
		switch {
		case !r.Bound():
			return unbound
		case r.Global:
			return kindDyn
		}
		return kinds[r.Slot]
	}
	minic.Walk(f.Body, func(n minic.Node) bool {
		o, ok := n.(*minic.OmpStmt)
		if !ok {
			return true
		}
		for i, r := range o.PrivRefs {
			kinds[r.Slot] = kindOf(o.PrivOuter[i], kindInt)
		}
		for i, r := range o.RedRefs {
			kinds[r.Slot] = kindOf(o.RedOuter[i], kindFloat)
		}
		if r := o.LoopRef; r.Bound() {
			seq := kinds[r.Slot]
			if o.LoopOuter.Bound() {
				seq = kindOf(o.LoopOuter, kindDyn)
			}
			if o.Kind == minic.PragmaFor && seq != kindInt {
				kinds[r.Slot] = kindDyn
			} else {
				kinds[r.Slot] = kindInt
			}
		}
		return true
	})
	return kinds
}

// slotKind is the static float-ness of reads of the variable r names.
func (l *lowerer) slotKind(r minic.Ref) kind {
	switch {
	case !r.Bound():
		return kindDyn
	case r.Global:
		return l.globals[r.Slot]
	}
	return l.kinds[r.Slot]
}

// ---- statements ----

// stmt lowers one statement. Every lowered statement calls bumpStep on
// entry.
func (l *lowerer) stmt(s minic.Stmt) stmtFn {
	switch v := s.(type) {
	case *minic.Block:
		return l.block(v.Stmts)
	case *minic.DeclStmt:
		return l.declStmt(v, nil)
	case *minic.ExprStmt:
		return exprStmt(l.expr(v.X))
	case *minic.IfStmt:
		return l.ifStmt(v)
	case *minic.ForStmt:
		return bumped(l.loop(v, nil).seq)
	case *minic.WhileStmt:
		return l.while(v)
	case *minic.ReturnStmt:
		return l.returnStmt(v)
	case *minic.BreakStmt:
		return bumped(func(*threadCtx) (ctrl, error) { return ctrlBreak, nil })
	case *minic.ContinueStmt:
		return bumped(func(*threadCtx) (ctrl, error) { return ctrlContinue, nil })
	case *minic.OmpStmt:
		return bumped(l.omp(v))
	}
	line := s.Pos()
	return bumped(func(*threadCtx) (ctrl, error) {
		return ctrlNone, runtimeError(line, "unsupported statement %T", s)
	})
}

// bumped makes f a statement: bumpStep first.
func bumped(f stmtFn) stmtFn {
	return func(tc *threadCtx) (ctrl, error) {
		if err := tc.bumpStep(); err != nil {
			return ctrlNone, err
		}
		return f(tc)
	}
}

func (l *lowerer) block(stmts []minic.Stmt) stmtFn {
	body := make([]stmtFn, len(stmts))
	for i, s := range stmts {
		body[i] = l.stmt(s)
	}
	return func(tc *threadCtx) (ctrl, error) {
		if err := tc.bumpStep(); err != nil {
			return ctrlNone, err
		}
		for _, s := range body {
			if c, err := s(tc); err != nil || c != ctrlNone {
				return c, err
			}
		}
		return ctrlNone, nil
	}
}

func exprStmt(e expr) stmtFn {
	num := e.num
	return func(tc *threadCtx) (ctrl, error) {
		if err := tc.bumpStep(); err != nil {
			return ctrlNone, err
		}
		_, err := num(tc)
		return ctrlNone, err
	}
}

// declStmt lowers a declaration. inits, when non-nil, holds the
// already lowered initializer of each declarator (an omp for shares
// its loop initializer with the worksharing path).
func (l *lowerer) declStmt(ds *minic.DeclStmt, inits []expr) stmtFn {
	decls := make([]func(*threadCtx) error, len(ds.Decls))
	for i, d := range ds.Decls {
		var init *expr
		if inits != nil {
			init = &inits[i]
		}
		decls[i] = l.declare(ds, d, init)
	}
	return func(tc *threadCtx) (ctrl, error) {
		if err := tc.bumpStep(); err != nil {
			return ctrlNone, err
		}
		for _, d := range decls {
			if err := d(tc); err != nil {
				return ctrlNone, err
			}
		}
		return ctrlNone, nil
	}
}

// declare lowers one declarator: it makes a fresh cell and binds the
// declarator's slot to it. A scalar starts at its initializer's number,
// or 0.
func (l *lowerer) declare(ds *minic.DeclStmt, d minic.Declarator, init *expr) func(*threadCtx) error {
	bind := binder(d.Ref)
	if d.ArraySize != nil {
		size := l.expr(d.ArraySize).num
		line, name := ds.Line, d.Name
		return func(tc *threadCtx) error {
			szv, err := size(tc)
			if err != nil {
				return err
			}
			n := int(szv)
			limit := tc.in.conf.MaxArrayElems
			if limit <= 0 {
				limit = 1 << 26
			}
			if n < 0 || n > limit {
				return runtimeError(line, "bad array size %d for %s", n, name)
			}
			bind(tc, &cell{arr: make([]float64, n)})
			return nil
		}
	}
	e := constant(intVal(0))
	if init != nil {
		e = *init
	} else if d.Init != nil {
		e = l.expr(d.Init)
	}
	num, isFloat := e.num, ds.Type == minic.TypeDouble
	return func(tc *threadCtx) error {
		n, err := num(tc)
		if err != nil {
			return err
		}
		c := &cell{isFloat: isFloat}
		c.storeNum(n)
		bind(tc, c)
		return nil
	}
}

// binder returns the store that makes r name a cell.
func binder(r minic.Ref) func(*threadCtx, *cell) {
	slot := r.Slot
	if r.Global {
		return func(tc *threadCtx, c *cell) { tc.in.globals[slot] = c }
	}
	return func(tc *threadCtx, c *cell) { tc.frame[slot] = c }
}

func (l *lowerer) ifStmt(v *minic.IfStmt) stmtFn {
	cond := l.cond(v.Cond)
	then := l.stmt(v.Then)
	var els stmtFn
	if v.Else != nil {
		els = l.stmt(v.Else)
	}
	return func(tc *threadCtx) (ctrl, error) {
		if err := tc.bumpStep(); err != nil {
			return ctrlNone, err
		}
		ok, err := cond(tc)
		if err != nil {
			return ctrlNone, err
		}
		if ok {
			return then(tc)
		}
		if els != nil {
			return els(tc)
		}
		return ctrlNone, nil
	}
}

func (l *lowerer) while(v *minic.WhileStmt) stmtFn {
	cond := l.cond(v.Cond)
	body := l.stmt(v.Body)
	return func(tc *threadCtx) (ctrl, error) {
		if err := tc.bumpStep(); err != nil {
			return ctrlNone, err
		}
		for {
			ok, err := cond(tc)
			if err != nil {
				return ctrlNone, err
			}
			if !ok {
				return ctrlNone, nil
			}
			c, err := body(tc)
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
	}
}

func (l *lowerer) returnStmt(v *minic.ReturnStmt) stmtFn {
	val := constant(intVal(0)).val
	if v.X != nil {
		val = l.expr(v.X).val
	}
	return func(tc *threadCtx) (ctrl, error) {
		if err := tc.bumpStep(); err != nil {
			return ctrlNone, err
		}
		tc.ret = intVal(0)
		rv, err := val(tc)
		if err != nil {
			return ctrlNone, err
		}
		tc.ret = rv
		return ctrlReturn, nil
	}
}

// forLoop is the sequential form of a for statement, without the
// statement-entry bumpStep (an omp for run by one thread enters it
// from the construct's own statement).
func forLoop(init stmtFn, cond condFn, post numFn, body stmtFn) stmtFn {
	return func(tc *threadCtx) (ctrl, error) {
		if init != nil {
			if _, err := init(tc); err != nil {
				return ctrlNone, err
			}
		}
		for {
			if cond != nil {
				ok, err := cond(tc)
				if err != nil {
					return ctrlNone, err
				}
				if !ok {
					return ctrlNone, nil
				}
			}
			c, err := body(tc)
			if err != nil {
				return ctrlNone, err
			}
			switch c {
			case ctrlBreak:
				return ctrlNone, nil
			case ctrlReturn:
				return ctrlReturn, nil
			}
			if post != nil {
				if _, err := post(tc); err != nil {
					return ctrlNone, err
				}
			}
			if err := tc.bumpStep(); err != nil {
				return ctrlNone, err
			}
		}
	}
}
