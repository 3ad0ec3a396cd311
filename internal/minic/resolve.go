package minic

import (
	"fmt"
	"sort"
)

// Name resolution: the last step of Parse binds every variable name to
// a storage slot, so the interpreter runs each call on a flat frame of
// cells and reads a variable with one slice index. The pass stores its
// results in the AST (Ident.Ref, Declarator.Ref, FuncDecl.Frame,
// Program.NumGlobals and the OmpStmt bindings), so a program parsed
// once can run on many goroutines at the same time.
//
// Bindings are lexical and in source order, which is how the
// interpreter's scopes behave: a block or a for statement opens a
// scope; a declarator binds its name after its initializer is
// resolved; in `{ y = x; int x; }` the first x names the outer
// variable. Globals live in one file scope, one slot per name, so a
// repeated global declaration replaces the variable in its slot.
// Functions see every global, whatever the order.
//
// The walk is the front end's only binder, so it also records the
// diagnostics CheckSemantics returns: undeclared and redeclared names,
// unknown private and reduction names, undefined or mis-called
// functions, and break or continue outside a loop. A function's
// parameters and the top level of its body share one scope, so a body
// local that redeclares a parameter is reported (it still takes its
// own slot). Every construct checks its private and reduction names,
// but only parallel and parallel for give them per-thread slots, as
// the interpreter does.

// Ref is the storage a name binds to: a slot in the frame of the
// enclosing function call, or a global slot. Slot is -1 for a name
// that binds no variable (a runtime constant, a function name or an
// undeclared name).
type Ref struct {
	Slot   int32
	Global bool
}

// Unbound is the Ref of a name that binds no variable.
var Unbound = Ref{Slot: -1}

// Bound reports whether r names a variable.
func (r Ref) Bound() bool { return r.Slot >= 0 }

type binding struct {
	name string
	ref  Ref
}

// resolver carries the pass state. locals is a stack of the bindings
// in scope, innermost last; scope is where the innermost block, for
// statement or function scope starts in it, and closing the scope
// truncates locals there.
type resolver struct {
	prog    *Program
	globals map[string]int32
	locals  []binding
	scope   int
	frame   int32 // next free slot of the current function
	inFunc  bool
	loops   int // loops around the statement inside its function or construct body
	diags   []SemaError
}

// resolve binds every name in prog and records its diagnostics,
// ordered by line and message.
func resolve(prog *Program) {
	r := &resolver{prog: prog, globals: map[string]int32{}}
	for _, g := range prog.Globals {
		r.stmt(g)
	}
	prog.NumGlobals = len(r.globals)
	r.inFunc = true
	for _, f := range prog.Funcs {
		if first := prog.Func(f.Name); first != f {
			r.errorf(f.Line, "function %q redefined (first defined at line %d)", f.Name, first.Line)
		}
		r.locals, r.frame = r.locals[:0], 0
		for i, p := range f.Params {
			for _, q := range f.Params[:i] {
				if q.Name == p.Name {
					r.errorf(f.Line, "duplicate parameter %q in %s", p.Name, f.Name)
				}
			}
			r.bind(p.Name)
		}
		for _, s := range f.Body.Stmts {
			r.stmt(s)
		}
		f.Frame = int(r.frame)
	}
	sort.Slice(r.diags, func(i, j int) bool {
		if r.diags[i].Line != r.diags[j].Line {
			return r.diags[i].Line < r.diags[j].Line
		}
		return r.diags[i].Msg < r.diags[j].Msg
	})
	prog.diags = r.diags
}

func (r *resolver) errorf(line int, format string, args ...any) {
	r.diags = append(r.diags, SemaError{Line: line, Msg: fmt.Sprintf(format, args...)})
}

// lookup finds the binding of name among locals[:below] and the
// globals; ok is false if the name is not in scope.
func (r *resolver) lookup(name string, below int) (ref Ref, ok bool) {
	for i := below - 1; i >= 0; i-- {
		if r.locals[i].name == name {
			return r.locals[i].ref, true
		}
	}
	if s, ok := r.globals[name]; ok {
		return Ref{Slot: s, Global: true}, true
	}
	return Unbound, false
}

// bind declares name in the innermost scope: a new frame slot inside a
// function, the name's global slot at file scope.
func (r *resolver) bind(name string) Ref {
	if !r.inFunc {
		s, ok := r.globals[name]
		if !ok {
			s = int32(len(r.globals))
			r.globals[name] = s
		}
		return Ref{Slot: s, Global: true}
	}
	ref := Ref{Slot: r.frame}
	r.frame++
	r.locals = append(r.locals, binding{name, ref})
	return ref
}

// declared reports whether the innermost scope already declares name.
func (r *resolver) declared(name string) bool {
	if !r.inFunc {
		_, ok := r.globals[name]
		return ok
	}
	for _, b := range r.locals[r.scope:] {
		if b.name == name {
			return true
		}
	}
	return false
}

func (r *resolver) stmt(s Stmt) {
	switch v := s.(type) {
	case *Block:
		outer := r.scope
		r.scope = len(r.locals)
		for _, inner := range v.Stmts {
			r.stmt(inner)
		}
		r.locals, r.scope = r.locals[:r.scope], outer
	case *DeclStmt:
		for i := range v.Decls {
			d := &v.Decls[i]
			r.expr(d.ArraySize)
			r.expr(d.Init)
			if r.declared(d.Name) {
				r.errorf(v.Line, "%q redeclared in this scope", d.Name)
			}
			d.Ref = r.bind(d.Name)
		}
	case *ExprStmt:
		r.expr(v.X)
	case *IfStmt:
		r.expr(v.Cond)
		r.stmt(v.Then)
		r.stmt(v.Else)
	case *ForStmt:
		r.forStmt(v, nil)
	case *WhileStmt:
		r.expr(v.Cond)
		r.loopBody(v.Body)
	case *ReturnStmt:
		r.expr(v.X)
	case *BreakStmt:
		r.loopExit(v.Line, "break")
	case *ContinueStmt:
		r.loopExit(v.Line, "continue")
	case *OmpStmt:
		r.omp(v)
	}
}

func (r *resolver) loopBody(body Stmt) {
	r.loops++
	r.stmt(body)
	r.loops--
}

// loopExit reports a break or continue that no loop of its function
// encloses. A loop outside the enclosing construct does not count:
// OpenMP forbids leaving a construct's structured block.
func (r *resolver) loopExit(line int, what string) {
	if r.loops == 0 {
		r.errorf(line, "%s statement not within a loop", what)
	}
}

// forStmt resolves a for statement in its own scope. For the loop of a
// worksharing construct o it also binds o.LoopRef: the declared loop
// variable, or a new slot shadowing an assigned one, which the team's
// threads bind to private cells.
func (r *resolver) forStmt(f *ForStmt, o *OmpStmt) {
	outer := r.scope
	r.scope = len(r.locals)
	r.stmt(f.Init)
	if o != nil {
		switch init := f.Init.(type) {
		case *DeclStmt:
			if len(init.Decls) == 1 && init.Decls[0].Init != nil {
				o.LoopRef = init.Decls[0].Ref
			}
		case *ExprStmt:
			if as, ok := init.X.(*Assign); ok && as.Op == TAssign {
				if id, ok := as.LHS.(*Ident); ok {
					o.LoopOuter = id.Ref
					o.LoopRef = r.bind(id.Name)
				}
			}
		}
	}
	r.expr(f.Cond)
	r.expr(f.Post)
	r.loopBody(f.Body)
	r.locals, r.scope = r.locals[:r.scope], outer
}

func (r *resolver) omp(o *OmpStmt) {
	o.LoopRef, o.LoopOuter = Unbound, Unbound
	r.expr(o.NumThreads)
	mark, loops := len(r.locals), r.loops
	r.loops = 0
	// A parallel for's team evaluates the chunk after privatizing;
	// other constructs evaluate it in the enclosing scope.
	copies := o.Kind == PragmaParallel || o.Kind == PragmaParallelFor
	if !copies {
		r.expr(o.Chunk)
	}
	o.PrivRefs, o.PrivOuter = r.privatize(o.Private, mark, copies, o.Line, "private(%s): no such variable in scope")
	o.RedRefs, o.RedOuter = r.privatize(o.RedVars, mark, copies, o.Line, "reduction variable %q is not declared")
	if copies {
		r.expr(o.Chunk)
	}
	if f, ok := o.Body.(*ForStmt); ok && (o.Kind == PragmaFor || o.Kind == PragmaParallelFor) {
		r.forStmt(f, o)
	} else {
		r.stmt(o.Body)
	}
	for _, sec := range o.Sections {
		r.stmt(sec)
	}
	r.locals, r.loops = r.locals[:mark], loops
}

// privatize brings the names of a private or reduction clause into the
// construct scope that starts at mark, and reports each name that is
// not in scope outside the construct. With copies, every name gets a
// per-thread slot, returned with the binding outside the construct
// that it shadows; a name already copied in this construct keeps its
// slot. Without, the names keep their outer bindings, and one that has
// none is bound to nothing, so the body does not report it again.
func (r *resolver) privatize(names []string, mark int, copies bool, line int, msg string) (refs, outer []Ref) {
	if copies && len(names) > 0 {
		refs, outer = make([]Ref, len(names)), make([]Ref, len(names))
	}
	for i, name := range names {
		out, ok := r.lookup(name, mark)
		if !ok {
			r.errorf(line, msg, name)
		}
		if !copies {
			if !ok {
				r.locals = append(r.locals, binding{name, Unbound})
			}
			continue
		}
		ref, _ := r.lookup(name, len(r.locals))
		if ref == out {
			ref = r.bind(name)
		}
		refs[i], outer[i] = ref, out
	}
	return refs, outer
}

func (r *resolver) expr(e Expr) {
	switch v := e.(type) {
	case *Ident:
		var ok bool
		v.Ref, ok = r.lookup(v.Name, len(r.locals))
		// Function names may appear as pthread_create arguments.
		if !ok && !predeclared[v.Name] && r.prog.Func(v.Name) == nil {
			r.errorf(v.Line, "undeclared identifier %q", v.Name)
		}
	case *Index:
		r.expr(v.Arr)
		r.expr(v.Idx)
	case *Unary:
		r.expr(v.X)
	case *Binary:
		r.expr(v.X)
		r.expr(v.Y)
	case *Assign:
		r.expr(v.LHS)
		r.expr(v.RHS)
	case *IncDec:
		r.expr(v.LHS)
	case *Call:
		if !isBuiltin(v.Name) {
			if fn := r.prog.Func(v.Name); fn == nil {
				r.errorf(v.Line, "call of undefined function %q", v.Name)
			} else if len(v.Args) != len(fn.Params) {
				r.errorf(v.Line, "%s expects %d argument(s), got %d", v.Name, len(fn.Params), len(v.Args))
			}
		}
		for _, a := range v.Args {
			r.expr(a)
		}
	}
}
