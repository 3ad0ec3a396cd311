package minic

import (
	"reflect"
	"testing"
)

func loc(s int32) Ref  { return Ref{Slot: s} }
func glob(s int32) Ref { return Ref{Slot: s, Global: true} }

// identRefs lists, per name, the Refs of n's identifiers in source
// order.
func identRefs(n Node) map[string][]Ref {
	out := map[string][]Ref{}
	Walk(n, func(x Node) bool {
		if id, ok := x.(*Ident); ok {
			out[id.Name] = append(out[id.Name], id.Ref)
		}
		return true
	})
	return out
}

// declRefs lists, per name, the Refs that n's declarators bind.
func declRefs(n Node) map[string][]Ref {
	out := map[string][]Ref{}
	Walk(n, func(x Node) bool {
		if d, ok := x.(*DeclStmt); ok {
			for _, dec := range d.Decls {
				out[dec.Name] = append(out[dec.Name], dec.Ref)
			}
		}
		return true
	})
	return out
}

// firstOmp returns the first OmpStmt under n.
func firstOmp(n Node) *OmpStmt {
	var o *OmpStmt
	Walk(n, func(x Node) bool {
		if v, ok := x.(*OmpStmt); ok && o == nil {
			o = v
		}
		return o == nil
	})
	return o
}

func TestResolveBindings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		src     string
		fn      string // the function whose body is checked
		idents  map[string][]Ref
		decls   map[string][]Ref
		frame   int
		globals int
	}{
		{
			name: "shadowing",
			src: `int main() {
  int x = 1;
  int y = x;
  { int x = y; y = x; }
  return x;
}`,
			fn:     "main",
			idents: map[string][]Ref{"x": {loc(0), loc(2), loc(0)}, "y": {loc(1), loc(1)}},
			decls:  map[string][]Ref{"x": {loc(0), loc(2)}, "y": {loc(1)}},
			frame:  3,
		},
		{
			name: "use before declaration in one block",
			src: `int main() {
  int x = 1;
  int y = 0;
  { y = x; int x = 2; y = x; }
  return 0;
}`,
			fn:     "main",
			idents: map[string][]Ref{"x": {loc(0), loc(2)}, "y": {loc(1), loc(1)}},
			decls:  map[string][]Ref{"x": {loc(0), loc(2)}, "y": {loc(1)}},
			frame:  3,
		},
		{
			name:   "redeclaration takes a new slot",
			src:    `int main() { int x = 1; int x = x + 1; return x; }`,
			fn:     "main",
			idents: map[string][]Ref{"x": {loc(0), loc(1)}},
			decls:  map[string][]Ref{"x": {loc(0), loc(1)}},
			frame:  2,
		},
		{
			name:   "undeclared and predeclared names are unbound",
			src:    `int main() { int c = MPI_COMM_WORLD; return nosuch; }`,
			fn:     "main",
			idents: map[string][]Ref{"MPI_COMM_WORLD": {Unbound}, "nosuch": {Unbound}},
			decls:  map[string][]Ref{"c": {loc(0)}},
			frame:  1,
		},
		{
			name: "a function sees globals declared after it",
			src: `int f() { return g + h; }
int g = 1;
int main() { return f(); }
int h = 2;`,
			fn:      "f",
			idents:  map[string][]Ref{"g": {glob(0)}, "h": {glob(1)}},
			decls:   map[string][]Ref{},
			globals: 2,
		},
		{
			name: "global initializers bind in order, one slot per name",
			src: `int a = b;
int b = 1;
int b = b;
int main() { return a + b; }`,
			fn:      "main",
			idents:  map[string][]Ref{"a": {glob(0)}, "b": {glob(1)}},
			decls:   map[string][]Ref{},
			globals: 2,
		},
		{
			name:    "parameters take the first slots",
			src:     `int f(int a, double b[]) { int c = a; return b[c]; } int main() { return 0; }`,
			fn:      "f",
			idents:  map[string][]Ref{"a": {loc(0)}, "b": {loc(1)}, "c": {loc(2)}},
			decls:   map[string][]Ref{"c": {loc(2)}},
			frame:   3,
			globals: 0,
		},
		{
			name: "for initializer scope",
			src: `int main() {
  int s = 0;
  for (int i = 0; i < 3; i++) { s += i; }
  for (int i = 0; i < 3; i++) { s += i; }
  return s;
}`,
			fn:     "main",
			idents: map[string][]Ref{"i": {loc(1), loc(1), loc(1), loc(2), loc(2), loc(2)}, "s": {loc(0), loc(0), loc(0)}},
			decls:  map[string][]Ref{"s": {loc(0)}, "i": {loc(1), loc(2)}},
			frame:  3,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := mustParse(t, tc.src)
			fn := prog.Func(tc.fn)
			if got := identRefs(fn); !reflect.DeepEqual(got, tc.idents) {
				t.Errorf("idents = %v, want %v", got, tc.idents)
			}
			if got := declRefs(fn); !reflect.DeepEqual(got, tc.decls) {
				t.Errorf("decls = %v, want %v", got, tc.decls)
			}
			if fn.Frame != tc.frame {
				t.Errorf("Frame = %d, want %d", fn.Frame, tc.frame)
			}
			if prog.NumGlobals != tc.globals {
				t.Errorf("NumGlobals = %d, want %d", prog.NumGlobals, tc.globals)
			}
		})
	}
}

func TestResolveGlobalDeclarators(t *testing.T) {
	prog := mustParse(t, `int a = b; int b = 1; double a[4]; int main() { return 0; }`)
	want := map[string][]Ref{"a": {glob(0), glob(0)}, "b": {glob(1)}}
	if got := declRefs(prog); !reflect.DeepEqual(got, want) {
		t.Fatalf("global declarators = %v, want %v", got, want)
	}
	if got := identRefs(prog)["b"]; !reflect.DeepEqual(got, []Ref{Unbound}) {
		t.Fatalf("b read before its declaration = %v, want unbound", got)
	}
}

func TestResolveOmpBindings(t *testing.T) {
	for _, tc := range []struct {
		name                                   string
		src                                    string
		privRefs, privOuter, redRefs, redOuter []Ref
		loopRef, loopOuter                     Ref
		idents                                 map[string][]Ref
		frame                                  int
	}{
		{
			name: "private and reduction copies",
			src: `int main() {
  int x = 0;
  double s = 0;
  #pragma omp parallel private(x) reduction(+: s)
  { x = 1; s += x; }
  return x;
}`,
			privRefs: []Ref{loc(2)}, privOuter: []Ref{loc(0)},
			redRefs: []Ref{loc(3)}, redOuter: []Ref{loc(1)},
			loopRef: Unbound, loopOuter: Unbound,
			idents: map[string][]Ref{"x": {loc(2), loc(2), loc(0)}, "s": {loc(3)}},
			frame:  4,
		},
		{
			name: "a name listed twice has one copy",
			src: `int x = 0;
int main() {
  #pragma omp parallel private(x, x) reduction(+: x)
  { x = 1; }
  return x;
}`,
			privRefs: []Ref{loc(0), loc(0)}, privOuter: []Ref{glob(0), glob(0)},
			redRefs: []Ref{loc(0)}, redOuter: []Ref{glob(0)},
			loopRef: Unbound, loopOuter: Unbound,
			idents: map[string][]Ref{"x": {loc(0), glob(0)}},
			frame:  1,
		},
		{
			name: "only parallel privatizes",
			src: `int main() {
  int x = 0;
  #pragma omp parallel
  {
    #pragma omp single private(x)
    { x = 1; }
  }
  return x;
}`,
			loopRef: Unbound, loopOuter: Unbound,
			idents: map[string][]Ref{"x": {loc(0), loc(0)}},
			frame:  1,
		},
		{
			name: "a clause name with no outer binding binds nothing",
			src: `int main() {
  #pragma omp single private(u)
  { u = 1; }
  return 0;
}`,
			loopRef: Unbound, loopOuter: Unbound,
			idents: map[string][]Ref{"u": {Unbound}},
			frame:  0,
		},
		{
			name: "declared worksharing loop variable",
			src: `int main() {
  int n = 4;
  #pragma omp parallel for schedule(dynamic, n)
  for (int i = 0; i < n; i++) { n = i; }
  return 0;
}`,
			loopRef: loc(1), loopOuter: Unbound,
			idents: map[string][]Ref{"i": {loc(1), loc(1), loc(1)}, "n": {loc(0), loc(0), loc(0)}},
			frame:  2,
		},
		{
			name: "assigned worksharing loop variable shadows the outer one",
			src: `int main() {
  int i = 0;
  int s = 0;
  #pragma omp parallel for
  for (i = 0; i < 4; i++) { s = i; }
  return i;
}`,
			loopRef: loc(2), loopOuter: loc(0),
			idents: map[string][]Ref{"i": {loc(0), loc(2), loc(2), loc(2), loc(0)}, "s": {loc(1)}},
			frame:  3,
		},
		{
			name: "assigned loop variable of a private copy",
			src: `int main() {
  int i = 0;
  #pragma omp parallel for private(i) schedule(static, i)
  for (i = i; i < 4; i++) { }
  return i;
}`,
			privRefs: []Ref{loc(1)}, privOuter: []Ref{loc(0)},
			loopRef: loc(2), loopOuter: loc(1),
			idents: map[string][]Ref{"i": {loc(1), loc(1), loc(1), loc(2), loc(2), loc(0)}},
			frame:  3,
		},
		{
			name: "orphaned omp for",
			src: `int i;
int main() {
  #pragma omp for
  for (i = 0; i < 4; i++) { }
  return i;
}`,
			loopRef: loc(0), loopOuter: glob(0),
			idents: map[string][]Ref{"i": {glob(0), loc(0), loc(0), glob(0)}},
			frame:  1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := mustParse(t, tc.src)
			fn := prog.Func("main")
			o := firstOmp(fn)
			for _, c := range []struct {
				what      string
				got, want []Ref
			}{
				{"PrivRefs", o.PrivRefs, tc.privRefs},
				{"PrivOuter", o.PrivOuter, tc.privOuter},
				{"RedRefs", o.RedRefs, tc.redRefs},
				{"RedOuter", o.RedOuter, tc.redOuter},
				{"Loop", []Ref{o.LoopRef, o.LoopOuter}, []Ref{tc.loopRef, tc.loopOuter}},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Errorf("%s = %v, want %v", c.what, c.got, c.want)
				}
			}
			if got := identRefs(fn); !reflect.DeepEqual(got, tc.idents) {
				t.Errorf("idents = %v, want %v", got, tc.idents)
			}
			if fn.Frame != tc.frame {
				t.Errorf("Frame = %d, want %d", fn.Frame, tc.frame)
			}
		})
	}
}
