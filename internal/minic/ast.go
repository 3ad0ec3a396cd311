package minic

import (
	"fmt"
	"sync"
)

// TypeKind enumerates MiniHPC's value types.
type TypeKind int

const (
	TypeInt TypeKind = iota
	TypeDouble
	TypeVoid
	TypeRequest // MPI_Request
	TypeComm    // MPI_Comm
	TypeStatus  // MPI_Status (opaque; declared for fidelity, rarely read)
)

func (t TypeKind) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeDouble:
		return "double"
	case TypeVoid:
		return "void"
	case TypeRequest:
		return "MPI_Request"
	case TypeComm:
		return "MPI_Comm"
	case TypeStatus:
		return "MPI_Status"
	}
	return fmt.Sprintf("TypeKind(%d)", int(t))
}

// Node is any AST node.
type Node interface{ Pos() int }

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// ---- Expressions ----

// NumberLit is an integer or floating literal.
type NumberLit struct {
	Line  int
	Value float64
	IsInt bool
}

// StringLit is a string literal (printf-style diagnostics only).
type StringLit struct {
	Line  int
	Value string
}

// Ident is a variable reference. Ref is the variable it names, bound
// by the resolve pass at the end of Parse.
type Ident struct {
	Line int
	Name string
	Ref  Ref
}

// Index is arr[idx].
type Index struct {
	Line int
	Arr  *Ident
	Idx  Expr
}

// Unary is -x or !x.
type Unary struct {
	Line int
	Op   Kind
	X    Expr
}

// Binary is a binary operation (arithmetic, comparison, logical).
type Binary struct {
	Line int
	Op   Kind
	X, Y Expr
}

// Assign is lhs = rhs (or +=, -=, *=, /=). LHS is an Ident or Index.
type Assign struct {
	Line int
	Op   Kind
	LHS  Expr
	RHS  Expr
}

// IncDec is the post-increment/decrement statement-expression i++ / i--.
type IncDec struct {
	Line int
	Op   Kind
	LHS  Expr
}

// Call is a function or builtin invocation. CallID is a stable
// identifier assigned by the parser (used by the static analysis to
// name instrumentation sites).
type Call struct {
	Line   int
	Name   string
	Args   []Expr
	CallID int
}

func (e *NumberLit) Pos() int { return e.Line }
func (e *StringLit) Pos() int { return e.Line }
func (e *Ident) Pos() int     { return e.Line }
func (e *Index) Pos() int     { return e.Line }
func (e *Unary) Pos() int     { return e.Line }
func (e *Binary) Pos() int    { return e.Line }
func (e *Assign) Pos() int    { return e.Line }
func (e *IncDec) Pos() int    { return e.Line }
func (e *Call) Pos() int      { return e.Line }

func (*NumberLit) exprNode() {}
func (*StringLit) exprNode() {}
func (*Ident) exprNode()     {}
func (*Index) exprNode()     {}
func (*Unary) exprNode()     {}
func (*Binary) exprNode()    {}
func (*Assign) exprNode()    {}
func (*IncDec) exprNode()    {}
func (*Call) exprNode()      {}

// ---- Statements ----

// Declarator is one name within a declaration statement. Ref is the
// slot the declaration binds.
type Declarator struct {
	Name      string
	ArraySize Expr // nil for scalars
	Init      Expr // nil if uninitialized
	Ref       Ref
}

// DeclStmt declares one or more variables of a type.
type DeclStmt struct {
	Line  int
	Type  TypeKind
	Decls []Declarator
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	Line int
	X    Expr
}

// IfStmt is if (cond) then [else].
type IfStmt struct {
	Line int
	Cond Expr
	Then Stmt
	Else Stmt // nil if absent
}

// ForStmt is for (init; cond; post) body. Init may be a DeclStmt or
// ExprStmt; Post an expression; any part may be nil.
type ForStmt struct {
	Line int
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// WhileStmt is while (cond) body.
type WhileStmt struct {
	Line int
	Cond Expr
	Body Stmt
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	Line int
	X    Expr // nil for bare return
}

// BreakStmt / ContinueStmt affect the innermost loop.
type BreakStmt struct{ Line int }
type ContinueStmt struct{ Line int }

// Block is { stmts... }.
type Block struct {
	Line  int
	Stmts []Stmt
}

// PragmaKind enumerates supported OpenMP directives.
type PragmaKind int

const (
	PragmaParallel PragmaKind = iota
	PragmaParallelFor
	PragmaFor
	PragmaSections
	PragmaSingle
	PragmaMaster
	PragmaCritical
	PragmaBarrier
)

func (k PragmaKind) String() string {
	switch k {
	case PragmaParallel:
		return "parallel"
	case PragmaParallelFor:
		return "parallel for"
	case PragmaFor:
		return "for"
	case PragmaSections:
		return "sections"
	case PragmaSingle:
		return "single"
	case PragmaMaster:
		return "master"
	case PragmaCritical:
		return "critical"
	case PragmaBarrier:
		return "barrier"
	}
	return fmt.Sprintf("PragmaKind(%d)", int(k))
}

// ScheduleKind mirrors the OpenMP schedule clause.
type ScheduleKind int

const (
	SchedDefault ScheduleKind = iota
	SchedStatic
	SchedDynamic
	SchedGuided
)

// OmpStmt is a `#pragma omp ...`-annotated statement.
type OmpStmt struct {
	Line int
	Kind PragmaKind

	NumThreads Expr         // parallel: num_threads(e)
	Schedule   ScheduleKind // for: schedule(...)
	Chunk      Expr         // for: schedule(kind, chunk)
	Private    []string     // private(a, b)
	Reduction  string       // reduction op: "+", "*", "max", "min" ("" if none)
	RedVars    []string     // reduction variables
	Name       string       // critical(name)

	Body     Stmt     // the governed statement (nil for barrier)
	Sections []*Block // for sections: the section bodies

	// Bindings set by the resolve pass. Only parallel and parallel for
	// privatize: PrivRefs[i] and RedRefs[i] are each thread's copy of
	// Private[i] and RedVars[i], and PrivOuter[i] and RedOuter[i] the
	// bindings outside the construct that they shadow. A name listed
	// twice in one construct has one copy.
	PrivRefs, PrivOuter []Ref
	RedRefs, RedOuter   []Ref
	// LoopRef is the private loop variable of a canonical worksharing
	// loop (Unbound if the initializer is not canonical). For a loop
	// variable that is assigned rather than declared, LoopOuter is the
	// variable the assignment names; it is Unbound otherwise.
	LoopRef, LoopOuter Ref
}

func (s *DeclStmt) Pos() int     { return s.Line }
func (s *ExprStmt) Pos() int     { return s.Line }
func (s *IfStmt) Pos() int       { return s.Line }
func (s *ForStmt) Pos() int      { return s.Line }
func (s *WhileStmt) Pos() int    { return s.Line }
func (s *ReturnStmt) Pos() int   { return s.Line }
func (s *BreakStmt) Pos() int    { return s.Line }
func (s *ContinueStmt) Pos() int { return s.Line }
func (s *Block) Pos() int        { return s.Line }
func (s *OmpStmt) Pos() int      { return s.Line }

func (*DeclStmt) stmtNode()     {}
func (*ExprStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*Block) stmtNode()        {}
func (*OmpStmt) stmtNode()      {}

// ---- Declarations ----

// Param is a function parameter. Arrays are passed by reference
// (double a[]).
type Param struct {
	Type    TypeKind
	Name    string
	IsArray bool
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Line    int
	RetType TypeKind
	Name    string
	Params  []Param
	Body    *Block

	// Frame is the number of local slots a call needs: parameter i
	// takes slot i, and every later declarator a new slot.
	Frame int
}

func (f *FuncDecl) Pos() int { return f.Line }

// Program is a parsed translation unit. It implements Node (position
// of the first function) so whole-program walks are possible.
type Program struct {
	Globals []*DeclStmt
	Funcs   []*FuncDecl

	// NumCalls is the number of Call nodes; CallIDs are < NumCalls.
	NumCalls int
	// NumGlobals is the number of global slots, one per global name.
	NumGlobals int

	diags []SemaError // the binder's diagnostics, for CheckSemantics

	// lowered is the interpreter's compiled form of the program, built
	// once by Lowered. minic holds it as an opaque value.
	lowerOnce sync.Once
	lowered   any
}

// Lowered returns the program's compiled form, calling build on first
// use only; concurrent callers wait for that one build. The compiled
// form lives and dies with the program.
func (p *Program) Lowered(build func(*Program) any) any {
	p.lowerOnce.Do(func() { p.lowered = build(p) })
	return p.lowered
}

// Pos returns the line of the first declaration (0 if empty).
func (p *Program) Pos() int {
	if len(p.Globals) > 0 {
		return p.Globals[0].Line
	}
	if len(p.Funcs) > 0 {
		return p.Funcs[0].Line
	}
	return 0
}

// Func returns the named function, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}
