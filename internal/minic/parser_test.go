package minic

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func TestParseMinimalMain(t *testing.T) {
	prog := mustParse(t, `int main() { return 0; }`)
	if len(prog.Funcs) != 1 || prog.Funcs[0].Name != "main" {
		t.Fatalf("funcs = %+v", prog.Funcs)
	}
}

func TestParseRejectsMissingMain(t *testing.T) {
	if _, err := Parse(`int helper() { return 0; }`); err == nil {
		t.Fatal("expected error for missing main")
	}
}

func TestParseDeclarations(t *testing.T) {
	prog := mustParse(t, `
int g = 5;
double arr[10];
int main() {
  int i, j = 2, k;
  double x = 1.5e3;
  MPI_Request req;
  MPI_Comm c;
  return 0;
}`)
	if len(prog.Globals) != 2 {
		t.Fatalf("globals = %d", len(prog.Globals))
	}
	if prog.Globals[1].Decls[0].ArraySize == nil {
		t.Fatal("array size missing")
	}
	body := prog.Func("main").Body
	decl := body.Stmts[0].(*DeclStmt)
	if len(decl.Decls) != 3 || decl.Decls[1].Name != "j" || decl.Decls[1].Init == nil {
		t.Fatalf("multi-declarator parse: %+v", decl.Decls)
	}
	if body.Stmts[2].(*DeclStmt).Type != TypeRequest {
		t.Fatal("MPI_Request type lost")
	}
}

func TestParseControlFlow(t *testing.T) {
	prog := mustParse(t, `
int main() {
  int s = 0;
  for (int i = 0; i < 10; i++) {
    if (i % 2 == 0) { s += i; } else { s -= 1; }
  }
  while (s > 100) { s = s / 2; }
  for (;;) { break; }
  return s;
}`)
	body := prog.Func("main").Body
	if _, ok := body.Stmts[1].(*ForStmt); !ok {
		t.Fatalf("stmt 1 = %T", body.Stmts[1])
	}
	if _, ok := body.Stmts[2].(*WhileStmt); !ok {
		t.Fatalf("stmt 2 = %T", body.Stmts[2])
	}
	inf := body.Stmts[3].(*ForStmt)
	if inf.Init != nil || inf.Cond != nil || inf.Post != nil {
		t.Fatal("for(;;) parts should be nil")
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	prog := mustParse(t, `int main() { int x = 1 + 2 * 3 - 4 % 3; return x; }`)
	init := prog.Func("main").Body.Stmts[0].(*DeclStmt).Decls[0].Init
	// ((1 + (2*3)) - (4%3))
	top, ok := init.(*Binary)
	if !ok || top.Op != TMinus {
		t.Fatalf("top = %#v", init)
	}
	left, ok := top.X.(*Binary)
	if !ok || left.Op != TPlus {
		t.Fatalf("left = %#v", top.X)
	}
	if mul, ok := left.Y.(*Binary); !ok || mul.Op != TStar {
		t.Fatalf("mul = %#v", left.Y)
	}
}

func TestParseLogicalAndComparison(t *testing.T) {
	prog := mustParse(t, `int main() { int b = 1 < 2 && 3 >= 2 || !(4 == 5); return b; }`)
	init := prog.Func("main").Body.Stmts[0].(*DeclStmt).Decls[0].Init
	top, ok := init.(*Binary)
	if !ok || top.Op != TOrOr {
		t.Fatalf("top = %#v", init)
	}
}

func TestParseAssignmentRightAssociative(t *testing.T) {
	prog := mustParse(t, `int main() { int a; int b; a = b = 3; return a; }`)
	st := prog.Func("main").Body.Stmts[2].(*ExprStmt)
	outer := st.X.(*Assign)
	if _, ok := outer.RHS.(*Assign); !ok {
		t.Fatalf("rhs = %#v", outer.RHS)
	}
}

func TestParseArraysAndAddressOf(t *testing.T) {
	prog := mustParse(t, `
int main() {
  double a[4];
  a[0] = 1.0;
  a[1] = a[0] * 2.0;
  MPI_Send(&a, 1, 1, 0, MPI_COMM_WORLD);
  return 0;
}`)
	st := prog.Func("main").Body.Stmts[3].(*ExprStmt)
	call := st.X.(*Call)
	if call.Name != "MPI_Send" || len(call.Args) != 5 {
		t.Fatalf("call = %+v", call)
	}
	// &a parses to the bare identifier.
	if id, ok := call.Args[0].(*Ident); !ok || id.Name != "a" {
		t.Fatalf("arg0 = %#v", call.Args[0])
	}
}

func TestParseFunctionsAndCalls(t *testing.T) {
	prog := mustParse(t, `
double work(int n, double buf[]) {
  buf[0] = n;
  return buf[0];
}
int main() {
  double b[2];
  double r = work(3, b);
  return 0;
}`)
	w := prog.Func("work")
	if len(w.Params) != 2 || !w.Params[1].IsArray || w.Params[0].Type != TypeInt {
		t.Fatalf("params = %+v", w.Params)
	}
	if prog.NumCalls == 0 {
		t.Fatal("call ids not assigned")
	}
}

func TestParsePragmaParallel(t *testing.T) {
	prog := mustParse(t, `
int main() {
  #pragma omp parallel num_threads(4) private(i, j)
  {
    int tid = omp_get_thread_num();
  }
  return 0;
}`)
	o := prog.Func("main").Body.Stmts[0].(*OmpStmt)
	if o.Kind != PragmaParallel {
		t.Fatalf("kind = %v", o.Kind)
	}
	if o.NumThreads == nil {
		t.Fatal("num_threads clause lost")
	}
	if len(o.Private) != 2 || o.Private[0] != "i" || o.Private[1] != "j" {
		t.Fatalf("private = %v", o.Private)
	}
	if _, ok := o.Body.(*Block); !ok {
		t.Fatalf("body = %T", o.Body)
	}
}

func TestParsePragmaParallelForSchedule(t *testing.T) {
	prog := mustParse(t, `
int main() {
  int n = 100;
  double a[100];
  #pragma omp parallel for schedule(dynamic, 4) private(i)
  for (int i = 0; i < n; i++) {
    a[i] = i;
  }
  return 0;
}`)
	o := prog.Func("main").Body.Stmts[2].(*OmpStmt)
	if o.Kind != PragmaParallelFor || o.Schedule != SchedDynamic || o.Chunk == nil {
		t.Fatalf("omp = %+v", o)
	}
	if _, ok := o.Body.(*ForStmt); !ok {
		t.Fatalf("body = %T", o.Body)
	}
}

func TestParsePragmaForRequiresLoop(t *testing.T) {
	_, err := Parse(`
int main() {
  #pragma omp parallel for
  { int x = 1; }
  return 0;
}`)
	if err == nil || !strings.Contains(err.Error(), "for loop") {
		t.Fatalf("err = %v", err)
	}
}

func TestParsePragmaSections(t *testing.T) {
	prog := mustParse(t, `
int main() {
  #pragma omp parallel
  {
    #pragma omp sections
    {
      #pragma omp section
      { int a = 1; }
      #pragma omp section
      { int b = 2; }
    }
  }
  return 0;
}`)
	par := prog.Func("main").Body.Stmts[0].(*OmpStmt)
	secs := par.Body.(*Block).Stmts[0].(*OmpStmt)
	if secs.Kind != PragmaSections || len(secs.Sections) != 2 {
		t.Fatalf("sections = %+v", secs)
	}
}

func TestParsePragmaSectionsRejectsStray(t *testing.T) {
	_, err := Parse(`
int main() {
  #pragma omp sections
  {
    int notASection = 1;
  }
  return 0;
}`)
	if err == nil {
		t.Fatal("expected error for non-section content")
	}
}

func TestParsePragmaCriticalNamedAndBarrier(t *testing.T) {
	prog := mustParse(t, `
int main() {
  #pragma omp parallel
  {
    #pragma omp critical(update)
    { int x = 1; }
    #pragma omp barrier
    #pragma omp single
    { int y = 2; }
    #pragma omp master
    { int z = 3; }
  }
  return 0;
}`)
	blk := prog.Func("main").Body.Stmts[0].(*OmpStmt).Body.(*Block)
	crit := blk.Stmts[0].(*OmpStmt)
	if crit.Kind != PragmaCritical || crit.Name != "update" {
		t.Fatalf("critical = %+v", crit)
	}
	if blk.Stmts[1].(*OmpStmt).Kind != PragmaBarrier {
		t.Fatal("barrier lost")
	}
	if blk.Stmts[2].(*OmpStmt).Kind != PragmaSingle {
		t.Fatal("single lost")
	}
	if blk.Stmts[3].(*OmpStmt).Kind != PragmaMaster {
		t.Fatal("master lost")
	}
}

func TestParseReductionClause(t *testing.T) {
	prog := mustParse(t, `
int main() {
  double s = 0.0;
  #pragma omp parallel for reduction(+: s)
  for (int i = 0; i < 10; i++) { s += i; }
  return 0;
}`)
	o := prog.Func("main").Body.Stmts[1].(*OmpStmt)
	if o.Reduction != "+" || len(o.RedVars) != 1 || o.RedVars[0] != "s" {
		t.Fatalf("reduction = %q vars %v", o.Reduction, o.RedVars)
	}
}

func TestParseCommentsAndIncludesSkipped(t *testing.T) {
	prog := mustParse(t, `
#include <mpi.h>
#include <omp.h>
// line comment
/* block
   comment */
int main() {
  return 0; // trailing
}`)
	if prog.Func("main") == nil {
		t.Fatal("main lost")
	}
}

func TestParseFigure1CaseStudy(t *testing.T) {
	// The paper's Figure 1 listing, translated to MiniHPC.
	prog := mustParse(t, `
int main() {
  MPI_Init();
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  omp_set_num_threads(2);
  double a[1];
  #pragma omp parallel
  {
    #pragma omp sections
    {
      #pragma omp section
      {
        if (rank == 0) { MPI_Send(&a, 1, 1, 0, MPI_COMM_WORLD); }
      }
      #pragma omp section
      {
        if (rank == 0) { MPI_Recv(&a, 1, 1, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE); }
      }
    }
  }
  MPI_Finalize();
  return 0;
}`)
	calls := Calls(prog)
	var names []string
	for _, c := range calls {
		names = append(names, c.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"MPI_Init", "MPI_Comm_rank", "MPI_Send", "MPI_Recv", "MPI_Finalize"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing call %s in %s", want, joined)
		}
	}
}

func TestParseFigure2CaseStudy(t *testing.T) {
	// The paper's Figure 2 listing (same-tag deadlock), translated.
	prog := mustParse(t, `
int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  int tag = 0;
  double a[1];
  omp_set_num_threads(2);
  #pragma omp parallel for private(i)
  for (int j = 0; j < 2; j++) {
    if (rank == 0) {
      MPI_Send(&a, 1, 1, tag, MPI_COMM_WORLD);
      MPI_Recv(&a, 1, 1, tag, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
    if (rank == 1) {
      MPI_Recv(&a, 1, 0, tag, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Send(&a, 1, 0, tag, MPI_COMM_WORLD);
    }
  }
  MPI_Finalize();
  return 0;
}`)
	if prog.NumCalls < 7 {
		t.Fatalf("NumCalls = %d", prog.NumCalls)
	}
}

func TestCallIDsAreUnique(t *testing.T) {
	prog := mustParse(t, `
int main() {
  compute(1);
  compute(2);
  compute(compute(3));
  return 0;
}`)
	seen := map[int]bool{}
	for _, c := range Calls(prog) {
		if seen[c.CallID] {
			t.Fatalf("duplicate call id %d", c.CallID)
		}
		seen[c.CallID] = true
	}
	if len(seen) != 4 {
		t.Fatalf("expected 4 calls, saw %d", len(seen))
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{
		`int main() { int x = '@'; }`,
		`int main() { /* unterminated`,
		`int main() { "unterminated }`,
		"#error nope\nint main() {}",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParserErrors(t *testing.T) {
	for _, src := range []string{
		`int main() { 3 = x; }`,             // bad lvalue
		`int main() { if (1 { } }`,          // missing paren
		`int main() { for (int i = 0) {} }`, // bad for
		`int main() { int a[]; }`,           // missing array size
		`int main() `,                       // missing body
		`int main() { #pragma omp tasks
 {} }`, // unsupported directive
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestWalkVisitsAllCalls(t *testing.T) {
	prog := mustParse(t, `
int main() {
  #pragma omp parallel
  {
    #pragma omp critical
    { compute(1); }
    #pragma omp sections
    {
      #pragma omp section
      { compute(2); }
    }
  }
  for (int i = 0; i < compute(3); i++) { compute(4); }
  while (compute(5) < 1) { }
  return compute(6);
}`)
	if n := len(Calls(prog)); n != 6 {
		t.Fatalf("walked %d calls, want 6", n)
	}
}

func TestParseRejectsDeclarationAsBody(t *testing.T) {
	for _, body := range []string{
		"if (1) int x = 1;",
		"if (1) { } else int x = 1;",
		"while (0) int x;",
		"for (;;) int x;",
		"#pragma omp parallel\n int x;",
		"#pragma omp single\n double x;",
		"#pragma omp parallel\n {\n #pragma omp sections\n {\n #pragma omp section\n int x;\n }\n }",
	} {
		src := "int main() {\n" + body + "\n return 0;\n}"
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "a declaration must be inside a block") {
			t.Errorf("%q: err = %v, want a declaration-placement error", body, err)
		}
	}
}

func TestParseAcceptsForInitializerDeclaration(t *testing.T) {
	prog := mustParse(t, `int main() { int s = 0; for (int i = 0; i < 3; i++) s += i; if (s) { int y = s; } return s; }`)
	f := prog.Func("main").Body.Stmts[1].(*ForStmt)
	if _, ok := f.Init.(*DeclStmt); !ok {
		t.Fatalf("for initializer = %T, want *DeclStmt", f.Init)
	}
}

func TestParseRejectsStraySection(t *testing.T) {
	for _, src := range []string{
		"int main() {\n #pragma omp section\n { }\n return 0;\n}",
		"int main() {\n #pragma omp parallel\n {\n #pragma omp section\n { }\n }\n return 0;\n}",
		"int main() {\n #pragma omp sections\n {\n #pragma omp section\n #pragma omp section\n { }\n }\n return 0;\n}",
	} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "#pragma omp section outside sections") {
			t.Errorf("%q: err = %v, want a stray-section error", src, err)
		}
	}
}
