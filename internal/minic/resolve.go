package minic

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
// in scope, innermost last; a scope is closed by truncating it to its
// length at the scope's start.
type resolver struct {
	globals map[string]int32
	locals  []binding
	frame   int32 // next free slot of the current function
	inFunc  bool
}

// resolve binds every name in prog.
func resolve(prog *Program) {
	r := &resolver{globals: map[string]int32{}}
	for _, g := range prog.Globals {
		r.stmt(g)
	}
	prog.NumGlobals = len(r.globals)
	r.inFunc = true
	for _, f := range prog.Funcs {
		r.locals, r.frame = r.locals[:0], 0
		for _, p := range f.Params {
			r.bind(p.Name)
		}
		r.stmt(f.Body)
		f.Frame = int(r.frame)
	}
}

// lookup finds the binding of name among locals[:below] and the
// globals.
func (r *resolver) lookup(name string, below int) Ref {
	for i := below - 1; i >= 0; i-- {
		if r.locals[i].name == name {
			return r.locals[i].ref
		}
	}
	if s, ok := r.globals[name]; ok {
		return Ref{Slot: s, Global: true}
	}
	return Unbound
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

func (r *resolver) stmt(s Stmt) {
	switch v := s.(type) {
	case *Block:
		mark := len(r.locals)
		for _, inner := range v.Stmts {
			r.stmt(inner)
		}
		r.locals = r.locals[:mark]
	case *DeclStmt:
		for i := range v.Decls {
			d := &v.Decls[i]
			r.expr(d.ArraySize)
			r.expr(d.Init)
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
		r.stmt(v.Body)
	case *ReturnStmt:
		r.expr(v.X)
	case *OmpStmt:
		r.omp(v)
	}
}

// forStmt resolves a for statement in its own scope. For the loop of a
// worksharing construct o it also binds o.LoopRef: the declared loop
// variable, or a new slot shadowing an assigned one, which the team's
// threads bind to private cells.
func (r *resolver) forStmt(f *ForStmt, o *OmpStmt) {
	mark := len(r.locals)
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
	r.stmt(f.Body)
	r.locals = r.locals[:mark]
}

func (r *resolver) omp(o *OmpStmt) {
	o.LoopRef, o.LoopOuter = Unbound, Unbound
	r.expr(o.NumThreads)
	mark := len(r.locals)
	if o.Kind == PragmaParallel || o.Kind == PragmaParallelFor {
		o.PrivRefs, o.PrivOuter = r.copies(o.Private, mark)
		o.RedRefs, o.RedOuter = r.copies(o.RedVars, mark)
	}
	// A parallel for's team evaluates the chunk after privatizing.
	r.expr(o.Chunk)
	if f, ok := o.Body.(*ForStmt); ok && (o.Kind == PragmaFor || o.Kind == PragmaParallelFor) {
		r.forStmt(f, o)
	} else {
		r.stmt(o.Body)
	}
	for _, sec := range o.Sections {
		r.stmt(sec)
	}
	r.locals = r.locals[:mark]
}

// copies binds the per-thread copies of names in the construct scope
// that starts at mark, and returns them with the bindings outside the
// construct that they shadow. A name already copied in this construct
// keeps its slot.
func (r *resolver) copies(names []string, mark int) (refs, outer []Ref) {
	if len(names) == 0 {
		return nil, nil
	}
	refs, outer = make([]Ref, len(names)), make([]Ref, len(names))
	for i, name := range names {
		outer[i] = r.lookup(name, mark)
		refs[i] = r.lookup(name, len(r.locals))
		if refs[i] == outer[i] {
			refs[i] = r.bind(name)
		}
	}
	return refs, outer
}

func (r *resolver) expr(e Expr) {
	switch v := e.(type) {
	case *Ident:
		v.Ref = r.lookup(v.Name, len(r.locals))
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
		for _, a := range v.Args {
			r.expr(a)
		}
	}
}
