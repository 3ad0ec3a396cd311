package minic

import (
	"strings"
	"testing"
)

func checkSrc(t *testing.T, src string) []SemaError {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return CheckSemantics(prog, DefaultSemaOptions())
}

func wantClean(t *testing.T, src string) {
	t.Helper()
	if errs := checkSrc(t, src); len(errs) != 0 {
		t.Fatalf("unexpected diagnostics: %v", errs)
	}
}

func wantError(t *testing.T, src, substr string) {
	t.Helper()
	errs := checkSrc(t, src)
	for _, e := range errs {
		if strings.Contains(e.Msg, substr) {
			return
		}
	}
	t.Fatalf("no diagnostic containing %q; got %v", substr, errs)
}

func TestSemaCleanProgram(t *testing.T) {
	wantClean(t, `
int g = 1;
double buf[4];
double work(int n, double a[]) {
  a[0] = n + g;
  return a[0];
}
int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  double local[2];
  double r = work(3, local);
  for (int i = 0; i < 2; i++) { local[i] = r; }
  #pragma omp parallel num_threads(2)
  {
    int tid = omp_get_thread_num();
    MPI_Send(local, 1, 0, tid, MPI_COMM_WORLD);
    MPI_Recv(local, 1, 0, tid, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  }
  MPI_Finalize();
  return 0;
}`)
}

func TestSemaUndeclaredIdentifier(t *testing.T) {
	wantError(t, `int main() { return mystery; }`, `undeclared identifier "mystery"`)
}

func TestSemaUndefinedFunction(t *testing.T) {
	wantError(t, `int main() { return helper(1); }`, `undefined function "helper"`)
}

func TestSemaArgumentCount(t *testing.T) {
	wantError(t, `
int add(int a, int b) { return a + b; }
int main() { return add(1); }`, "expects 2 argument(s), got 1")
}

func TestSemaRedeclarationInScope(t *testing.T) {
	wantError(t, `int main() { int x; int x; return 0; }`, `"x" redeclared`)
	// Shadowing in an inner scope is legal.
	wantClean(t, `int main() { int x = 1; { int x = 2; x = 3; } return x; }`)
}

func TestSemaDuplicateFunction(t *testing.T) {
	wantError(t, `
void f() { }
void f() { }
int main() { return 0; }`, `function "f" redefined`)
}

func TestSemaDuplicateParameter(t *testing.T) {
	wantError(t, `
int f(int a, int a) { return a; }
int main() { return f(1, 2); }`, `duplicate parameter "a"`)
}

func TestSemaLoopVariableScoped(t *testing.T) {
	wantError(t, `
int main() {
  for (int i = 0; i < 3; i++) { compute(i); }
  return i;
}`, `undeclared identifier "i"`)
}

func TestSemaPrivateClauseChecksScope(t *testing.T) {
	wantError(t, `
int main() {
  #pragma omp parallel private(ghost)
  { compute(1); }
  return 0;
}`, "private(ghost)")
	wantClean(t, `
int main() {
  int x = 0;
  #pragma omp parallel private(x)
  { x = 1; }
  return 0;
}`)
}

func TestSemaReductionVarChecked(t *testing.T) {
	wantError(t, `
int main() {
  #pragma omp parallel for reduction(+: nope)
  for (int i = 0; i < 3; i++) { compute(i); }
  return 0;
}`, `reduction variable "nope"`)
}

func TestSemaFunctionNameAsPthreadArgument(t *testing.T) {
	wantClean(t, `
void worker(double x) { compute(x); }
int main() {
  int t;
  pthread_create(&t, worker, 1);
  pthread_join(t);
  return 0;
}`)
}

func TestSemaPredeclaredConstants(t *testing.T) {
	wantClean(t, `int main() { int a = MPI_ANY_SOURCE + MPI_THREAD_MULTIPLE; return a; }`)
}

func TestSemaBuiltinsNotChecked(t *testing.T) {
	// Builtin arity is the interpreter's concern (variadic forms
	// exist); sema must not flag them.
	wantClean(t, `int main() { printf("x %d", 1); compute(5); MPI_Init(); return 0; }`)
}

func TestSemaErrorsSorted(t *testing.T) {
	errs := checkSrc(t, `
int main() {
  int a = zzz;
  int b = yyy;
  return 0;
}`)
	if len(errs) != 2 || errs[0].Line > errs[1].Line {
		t.Fatalf("errs = %v", errs)
	}
	if !strings.Contains(errs[0].Error(), "line 3") {
		t.Fatalf("Error() = %q", errs[0].Error())
	}
}

// wantDiags fails t unless src's diagnostics are exactly want.
func wantDiags(t *testing.T, src string, want ...string) {
	t.Helper()
	var got []string
	for _, e := range checkSrc(t, src) {
		got = append(got, e.Error())
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestSemaBreakContinueOutsideLoop(t *testing.T) {
	wantDiags(t, `int main() {
  int x = 1;
  if (x) { break; }
  printf("after %d\n", x);
  return 0;
}`, "line 3: break statement not within a loop")
	// A loop outside the construct does not count: a structured block
	// cannot be left.
	wantDiags(t, `int main() {
  while (1) {
    #pragma omp parallel
    { continue; }
    for (;;) { if (1) { break; } }
    break;
  }
  return 0;
}`, "line 4: continue statement not within a loop")
	wantClean(t, `int main() {
  #pragma omp parallel for
  for (int i = 0; i < 4; i++) { if (i) { continue; } while (1) { break; } }
  return 0;
}`)
}

func TestSemaBodyLocalRedeclaresParameter(t *testing.T) {
	wantDiags(t, `int f(int a) {
  int a = 2;
  { int a = 3; }
  return a;
}
int main() { return f(1); }`, `line 2: "a" redeclared in this scope`)
}

func TestSemaRepeatedGlobal(t *testing.T) {
	wantDiags(t, `int g;
double g[2];
int main() { return 0; }`, `line 2: "g" redeclared in this scope`)
}

func TestSemaClauseNamesOnEveryConstruct(t *testing.T) {
	// A clause name that is not in scope is reported once, at the
	// clause, whether or not the construct privatizes.
	for _, tc := range []struct{ pragma, want string }{
		{"single private(u)", "line 2: private(u): no such variable in scope"},
		{"parallel private(u)", "line 2: private(u): no such variable in scope"},
		{"critical reduction(+: u)", `line 2: reduction variable "u" is not declared`},
	} {
		wantDiags(t, `int main() {
  #pragma omp `+tc.pragma+`
  { u = 1; }
  return 0;
}`, tc.want)
	}
	// A non-privatizing construct's chunk reads the outer scope.
	wantError(t, `int main() {
  #pragma omp parallel
  {
    #pragma omp for private(c) schedule(dynamic, c)
    for (int i = 0; i < 4; i++) { }
  }
  return 0;
}`, `undeclared identifier "c"`)
}

// Diagnostics follow the interpreter's binding where an earlier
// checker's scopes did not.
func TestSemaFollowsInterpreterBinding(t *testing.T) {
	// A parallel for's team evaluates the chunk after privatizing, so
	// the chunk reads the private copy.
	wantDiags(t, `int main() {
  #pragma omp parallel for private(c) schedule(dynamic, c)
  for (int i = 0; i < 4; i++) { }
  return 0;
}`, "line 2: private(c): no such variable in scope")
	// An assigned worksharing loop variable gets the construct's
	// private slot: only the initializer reads the undeclared name.
	wantDiags(t, `int main() {
  #pragma omp parallel for
  for (i = 0; i < 4; i++) { compute(i); }
  return 0;
}`, `line 3: undeclared identifier "i"`)
}

// A pragma's clauses are tokenized from its own text, yet their
// expressions report the pragma's source line.
func TestSemaPragmaClauseLine(t *testing.T) {
	wantDiags(t, `int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  #pragma omp parallel num_threads(m)
  { }
  return 0;
}`, `line 4: undeclared identifier "m"`)
}
