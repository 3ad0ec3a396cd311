package minic

import (
	"fmt"
	"strings"
	"testing"
)

// Fuzz targets: the front-end must never panic, whatever the input;
// and formatted output of any valid parse must reparse to the same
// canonical form. Run at depth with `go test -fuzz=FuzzParse
// ./internal/minic/`; the seed corpus below runs on every plain
// `go test`.

var fuzzSeeds = []string{
	"",
	"int main() { return 0; }",
	"int main() { #pragma omp parallel\n { } return 0; }",
	`int main() { double a[3]; a[0] = 1.5; return a[0]; }`,
	`#include <mpi.h>
int main() { MPI_Init(); MPI_Finalize(); return 0; }`,
	"int main() { /* unterminated",
	`int main() { "unterminated }`,
	"int main() { int x = 1 ++++ 2; }",
	"#pragma omp nonsense\nint main() {}",
	"void f(int a, double b[]) { b[a] = a; } int main() { return 0; }",
	"int main() { for (int i = 0; i < 10; i++) { if (i) { break; } } return 0; }",
	"int main() { int x = -(-(-1)); return x; }",
	"int main() { #pragma omp parallel for reduction(+: s)\n for (int i=0;i<3;i++) { } }",
	"int g; int main() { int i = g; #pragma omp parallel for private(i, g) reduction(+: g)\n for (i = 0; i < 4; i++) { int x = i; g += x; } return i; }",
	"int main() { int x = 1; { x = 2; int x = 3; } #pragma omp for\n for (x = 0; x < 2; x++) { } return x; }",
	"int main() { int x = 1; if (x) { break; } while (x) { #pragma omp parallel\n { continue; } } return 0; }",
	"int main() { #pragma omp for private(u)\n for (int i = 0; i < 2; i++) { u = i; } return 0; }",
	"int f(int a, int a) { int a = 0; return a; } int main() { return f(1, 2); }",
	"void f() { } void f() { } int main() { f(1); return 0; }",
	"int main() { int c = 2; #pragma omp parallel for private(c) schedule(dynamic, c)\n for (int i = 0; i < 4; i++) { } return 0; }",
}

func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Any accepted program must also survive the rest of the
		// front-end and bind every name to a slot in range. With no
		// diagnostics every variable is bound, and a name reported as
		// undeclared binds nothing.
		checkRefs(t, prog)
		opts := DefaultSemaOptions()
		diags := CheckSemantics(prog, opts)
		if len(diags) == 0 {
			checkResolved(t, prog, opts)
		}
		checkReported(t, prog, diags)
		out := Format(prog)
		p2, err := Parse(out)
		if err != nil {
			t.Fatalf("formatted output does not reparse: %v\n--- source ---\n%s\n--- formatted ---\n%s", err, src, out)
		}
		if out2 := Format(p2); out != out2 {
			t.Fatalf("format not canonical:\n%s\nvs\n%s", out, out2)
		}
	})
}

// checkRefs fails t unless every Ref in prog is in range: a local slot
// below its function's Frame, a global slot below NumGlobals, and
// Unbound only where a name may bind nothing.
func checkRefs(t *testing.T, prog *Program) {
	t.Helper()
	check := func(r Ref, frame int, mayUnbind bool, what string) {
		ok := r.Slot >= 0 && r.Slot < int32(frame)
		switch {
		case r.Global:
			ok = r.Slot >= 0 && int(r.Slot) < prog.NumGlobals
		case r == Unbound:
			ok = mayUnbind
		}
		if !ok {
			t.Fatalf("%s: Ref %+v out of range (Frame %d, NumGlobals %d)", what, r, frame, prog.NumGlobals)
		}
	}
	walk := func(n Node, frame int) {
		Walk(n, func(x Node) bool {
			switch v := x.(type) {
			case *Ident:
				check(v.Ref, frame, true, "ident "+v.Name)
			case *DeclStmt:
				for _, d := range v.Decls {
					check(d.Ref, frame, false, "declarator "+d.Name)
				}
			case *OmpStmt:
				for i, r := range v.PrivRefs {
					check(r, frame, false, "private copy")
					check(v.PrivOuter[i], frame, true, "private outer")
				}
				for i, r := range v.RedRefs {
					check(r, frame, false, "reduction copy")
					check(v.RedOuter[i], frame, true, "reduction outer")
				}
				check(v.LoopRef, frame, true, "loop variable")
				check(v.LoopOuter, frame, true, "loop outer")
			}
			return true
		})
	}
	for _, g := range prog.Globals {
		walk(g, 0)
	}
	for _, f := range prog.Funcs {
		if f.Frame < len(f.Params) {
			t.Fatalf("%s: Frame %d < %d parameters", f.Name, f.Frame, len(f.Params))
		}
		walk(f, f.Frame)
	}
}

// checkResolved fails t unless every identifier of a sema-clean
// program that is neither predeclared nor a function name binds a
// variable.
func checkResolved(t *testing.T, prog *Program, opts SemaOptions) {
	t.Helper()
	Walk(prog, func(x Node) bool {
		if id, ok := x.(*Ident); ok && !id.Ref.Bound() && !opts.Predeclared[id.Name] && prog.Func(id.Name) == nil {
			t.Fatalf("line %d: %q is sema-clean but unbound", id.Line, id.Name)
		}
		return true
	})
}

// checkReported fails t unless each undeclared-identifier diagnostic
// names an unbound identifier on its line.
func checkReported(t *testing.T, prog *Program, diags []SemaError) {
	t.Helper()
	unbound := map[SemaError]bool{}
	Walk(prog, func(x Node) bool {
		if id, ok := x.(*Ident); ok && !id.Ref.Bound() {
			unbound[SemaError{Line: id.Line, Msg: fmt.Sprintf("undeclared identifier %q", id.Name)}] = true
		}
		return true
	})
	for _, d := range diags {
		if strings.HasPrefix(d.Msg, "undeclared identifier ") && !unbound[d] {
			t.Fatalf("%v names no unbound identifier on its line", d)
		}
	}
}

func FuzzTokenize(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Tokenize(src) // must not panic
	})
}
