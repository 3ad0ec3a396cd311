package interp

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"home/internal/trace"
)

// TestStatementsPerKind pins interp.statements on one small program
// per statement kind. bumpStep runs at every statement's entry and at
// every loop back-edge, and these counts were recorded with the tree
// walker that preceded the lowered code.
func TestStatementsPerKind(t *testing.T) {
	cases := []struct {
		name string
		src  string
		conf Config
		want int64
	}{
		{"while", `int main() { int j = 0; while (j < 5) { j++; } return j; }`, Config{}, 19},
		{"if-else", `int main() { int s = 0; for (int i = 0; i < 6; i++) { if (i % 2 == 0) { s += 1; } else { s += 2; } } return s; }`, Config{}, 35},
		{"break", `int main() { int i = 0; while (1) { i++; if (i == 4) { break; } } for (int k = 0; k < 9; k++) { if (k == 2) break; } return i; }`, Config{}, 32},
		{"continue", `int main() { int s = 0; for (int i = 0; i < 5; i++) { if (i == 1) { continue; } s += i; } int j = 0; while (j < 3) { j++; continue; } return s; }`, Config{}, 40},
		{"return", `int f(int x) { if (x > 2) { return x; } return 0; } int main() { for (int i = 0; i < 4; i++) { if (i == 3) { return f(i); } } return 1; }`, Config{}, 20},
		{"declaration", `int g = 3; double h[2]; int main() { int a = 1, b = 2; double c[4]; double d; return a + b + g; }`, Config{}, 7},
		{"call", `int sq(int x) { int y = x * x; return y; } void nop() { } int main() { int s = 0; for (int i = 0; i < 3; i++) { s += sq(i); nop(); } return s; }`, Config{}, 29},
		{"sections", `int main() { int a = 0; int b = 0;
  #pragma omp parallel num_threads(2)
  {
    #pragma omp sections
    {
      #pragma omp section
      { a = 1; }
      #pragma omp section
      { b = 2; b++; }
    }
  }
  #pragma omp sections
  {
    #pragma omp section
    { a++; }
  }
  return a + b; }`, Config{}, 17},
		{"single", `int main() { int n = 0;
  #pragma omp parallel num_threads(3)
  {
    #pragma omp single
    { n++; n++; }
  }
  #pragma omp single
  { n++; }
  return n; }`, Config{}, 16},
		{"master", `int main() { int n = 0;
  #pragma omp parallel num_threads(3)
  {
    #pragma omp master
    { n = 5; }
    #pragma omp barrier
  }
  #pragma omp master
  { n++; }
  return n; }`, Config{}, 18},
		{"critical", `int main() { int n = 0;
  #pragma omp parallel num_threads(3)
  {
    for (int k = 0; k < 4; k++) {
      #pragma omp critical(c)
      { n++; }
    }
  }
  #pragma omp critical
  { n++; }
  return n; }`, Config{}, 76},
		{"parallel-for", `int main() { int s = 0; double a[10];
  #pragma omp parallel for reduction(+: s) schedule(dynamic, 2) num_threads(3)
  for (int i = 0; i < 10; i++) { a[i] = i * 0.5; s += i; }
  #pragma omp for
  for (int i = 0; i < 3; i++) { s++; }
  return s; }`, Config{}, 46},
		{"pthreads", `int out[4];
void worker(int k) { for (int i = 0; i < k; i++) { out[k] = out[k] + 1; } }
int main() { int t1; int t2;
  pthread_create(&t1, worker, 2);
  pthread_create(&t2, worker, 3);
  pthread_join(t1);
  pthread_join(t2);
  return out[2] + out[3]; }`, Config{}, 30},
		{"mpi", `int main() { int p; MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[2];
  if (rank == 0) { MPI_Send(a, 2, 1, 7, MPI_COMM_WORLD); } else { MPI_Recv(a, 2, 0, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE); }
  MPI_Barrier(MPI_COMM_WORLD);
  MPI_Finalize(); return 0; }`, Config{Procs: 2}, 22},
	}
	for _, c := range cases {
		res, got := statements(parse(t, c.src), c.conf)
		if err := res.FirstError(); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: interp.statements = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestRuntimeErrorTexts pins the text and line of each runtime error
// a program can raise, as the tree walker that preceded the lowered
// code reported them.
func TestRuntimeErrorTexts(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined variable", "int main() {\n  int x = 1;\n  return x + y;\n}", "runtime error at line 3: undefined variable \"y\""},
		{"undefined assign target", "int main() {\n  z = 4;\n  return 0;\n}", "runtime error at line 2: undefined variable \"z\""},
		{"undefined array", "int main() {\n  return q[0];\n}", "runtime error at line 2: undefined array \"q\""},
		{"not an array", "int main() {\n  int s = 2;\n  return s[0];\n}", "runtime error at line 3: \"s\" is not an array"},
		{"index out of range", "int main() {\n  double a[3];\n  int i = 3;\n  a[i] = 1.0;\n  return 0;\n}", "runtime error at line 4: index 3 out of range for a[3]"},
		{"negative index read", "int main() {\n  double a[3];\n  return a[0 - 1];\n}", "runtime error at line 3: index -1 out of range for a[3]"},
		{"division by zero", "int main() {\n  int z = 0;\n  return 4 / z;\n}", "runtime error at line 3: division by zero"},
		{"float division by zero", "int main() {\n  double z = 0.0;\n  double r = 1.5 / z;\n  return 0;\n}", "runtime error at line 3: division by zero"},
		{"modulo by zero", "int main() {\n  int z = 0;\n  int r = 0;\n  r = 7 % z;\n  return r;\n}", "runtime error at line 4: modulo by zero"},
		{"compound division by zero", "int main() {\n  double a[2];\n  a[1] /= 0;\n  return 0;\n}", "runtime error at line 3: division by zero"},
		{"undefined function", "int main() {\n  foo(1);\n  return 0;\n}", "runtime error at line 2: call of undefined function \"foo\""},
		{"arity", "int f(int a) { return a; }\nint main() {\n  return f(1, 2);\n}", "runtime error at line 3: f expects 1 arguments, got 2"},
		{"array parameter", "int f(double a[]) { return 0; }\nint main() {\n  return f(3);\n}", "runtime error at line 3: argument 1 of f must be an array"},
		{"bad array size", "int main() {\n  int n = 0 - 2;\n  double a[n];\n  return 0;\n}", "runtime error at line 3: bad array size -2 for a"},
		{"string literal", "int main() {\n  int x = \"s\";\n  return x;\n}", "runtime error at line 2: string literals are only allowed as printf formats"},
		{"omp for shape", "int main() {\n  int n = 0;\n  #pragma omp parallel for num_threads(2)\n  for (int i = 0; i != 4; i++) { n++; }\n  return 0;\n}", "runtime error at line 4: omp for condition must be a comparison"},
		{"omp for step", "int main() {\n  #pragma omp parallel for num_threads(2)\n  for (int i = 0; i < 4; i *= 2) { }\n  return 0;\n}", "runtime error at line 3: omp for needs i++/i--/i+=c/i-=c increment"},
		{"omp for zero step", "int main() {\n  int s = 0;\n  #pragma omp parallel for num_threads(2)\n  for (int i = 0; i < 4; i += s) { }\n  return 0;\n}", "runtime error at line 4: omp for step must be nonzero"},
		{"omp for break", "int main() {\n  #pragma omp parallel for num_threads(2)\n  for (int i = 0; i < 4; i++) {\n    return 1;\n  }\n  return 0;\n}", "runtime error at line 3: break/return out of an omp for loop"},
		{"return in parallel", "int main() {\n  #pragma omp parallel num_threads(2)\n  {\n    return 1;\n  }\n  return 0;\n}", "runtime error at line 2: return inside an omp parallel region"},
		{"MPI missing argument", "int main() {\n  MPI_Init();\n  MPI_Barrier();\n  return 0;\n}", "runtime error at line 3: MPI_Barrier: missing argument 1"},
		{"MPI unknown routine", "int main() {\n  MPI_Frobnicate(1);\n  return 0;\n}", "runtime error at line 2: unsupported MPI routine \"MPI_Frobnicate\""},
		{"omp unknown routine", "int main() {\n  omp_frobnicate();\n  return 0;\n}", "runtime error at line 2: unsupported omp runtime call \"omp_frobnicate\""},
		{"pthread unknown call", "int main() {\n  pthread_frobnicate();\n  return 0;\n}", "runtime error at line 2: unsupported pthread call \"pthread_frobnicate\""},
		{"pow arity", "int main() {\n  double x = pow(2.0);\n  return 0;\n}", "runtime error at line 2: pow needs two arguments"},
		{"wait on null request", "int main() {\n  MPI_Init();\n  MPI_Request r;\n  MPI_Wait(&r);\n  return 0;\n}", "runtime error at line 4: MPI_Wait on a null request"},
	}
	for _, c := range cases {
		res := run(t, c.src, Config{})
		err := res.FirstError()
		got := fmt.Sprint(err)
		if err == nil || got != c.want {
			t.Errorf("%s: error %q, want %q", c.name, got, c.want)
		}
	}

	// Ill-typed array uses that raise no error. A cell's array is fixed
	// when the cell is created: a scalar parameter bound to an array
	// argument indexes the caller's array, and assigning a number to
	// an array variable sets the number it reads as a scalar.
	fine := []struct {
		name, src string
		want      int
	}{
		{"array through a double parameter", "int set(double x) {\n  x[0] = 7;\n  return 0;\n}\nint main() {\n  double a[2];\n  set(a);\n  return a[0];\n}", 7},
		{"number assigned to an array", "int main() {\n  double a[2];\n  a = 3;\n  a[0] = 1;\n  return a[0] + a;\n}", 4},
	}
	for _, c := range fine {
		res := run(t, c.src, Config{})
		if err := res.FirstError(); err != nil || res.ExitCodes[0] != c.want {
			t.Errorf("%s: exit %d, error %v; want exit %d", c.name, res.ExitCodes[0], err, c.want)
		}
	}
}

// TestMonitoredAccessLog pins the whole-program access log (the ITC
// model): the order of its reads and writes across scalar, compound,
// array, buffer and out-parameter accesses.
func TestMonitoredAccessLog(t *testing.T) {
	log := &trace.Log{}
	res := run(t, `
int g = 1;
int twice(int v) { return v + v; }
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[4];
  double x = 0.5;
  int i = 1;
  a[i] = x * 2.0 + g;
  a[i + 1] += a[i];
  x -= a[2];
  i++;
  g = twice(i) + (i > 1 && x < 0.0);
  if (!g || rank) { x = -x; }
  MPI_Send(a[i], 1, rank, 3, MPI_COMM_WORLD);
  MPI_Recv(a, 1, rank, 3, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  MPI_Finalize();
  return g;
}`, Config{Sink: log, MonitorAllAccesses: true})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range log.Events() {
		switch e.Op {
		case trace.OpRead:
			fmt.Fprintf(&b, "R%s ", e.Name)
		case trace.OpWrite:
			fmt.Fprintf(&b, "W%s ", e.Name)
		}
	}
	if got, want := b.String(), "Wp Rx Rg Ri Wa Ri Ra Ri Ra Wa Ra Rx Wx Ri Wi Ri Rv Rv Ri Rx Wg Rg Rrank Ri Rrank Rrank Wfinalizetmp Rg "; got != want {
		t.Errorf("access log:\n got %s\nwant %s", got, want)
	}
}

// TestIrecvEvaluatesArgumentsOnce pins that MPI_Irecv evaluates each
// argument once, before the call: the all-access log reads the buffer
// index once, a side effect in the index runs once, and the payload
// still lands at the element that one evaluation named.
func TestIrecvEvaluatesArgumentsOnce(t *testing.T) {
	log := trace.NewLog()
	res := run(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[4];
  double b[1];
  b[0] = 6.0;
  int k = 2;
  MPI_Request r;
  MPI_Send(b, 1, rank, 5, MPI_COMM_WORLD);
  MPI_Irecv(a[k], 1, rank, 5, MPI_COMM_WORLD, &r);
  k = 0;
  MPI_Wait(&r);
  MPI_Finalize();
  return a[2];
}`, Config{Sink: log, MonitorAllAccesses: true})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if res.ExitCodes[0] != 6 {
		t.Errorf("a[2] = %d, want the payload 6", res.ExitCodes[0])
	}
	reads := 0
	for _, e := range log.Events() {
		if e.Op == trace.OpRead && e.Name == "k" {
			reads++
		}
	}
	if reads != 1 {
		t.Errorf("the log reads k %d times, want 1", reads)
	}

	res = run(t, `
int g = 0;
int bump() { g = g + 1; return 1; }
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[4];
  MPI_Request r;
  MPI_Send(a, 1, rank, 5, MPI_COMM_WORLD);
  MPI_Irecv(a[bump()], 1, rank, 5, MPI_COMM_WORLD, &r);
  MPI_Wait(&r);
  MPI_Finalize();
  return g;
}`, Config{})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if res.ExitCodes[0] != 1 {
		t.Errorf("g = %d after one MPI_Irecv, want 1", res.ExitCodes[0])
	}
}

// TestConcurrentRunsShareOneLowering runs one program from eight
// goroutines at once: every run gives the same Result, and the
// program is lowered exactly once.
func TestConcurrentRunsShareOneLowering(t *testing.T) {
	// No lock, wildcard or dynamic chunk: host order decides nothing.
	prog := parse(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[64];
  #pragma omp parallel for num_threads(2)
  for (int i = 0; i < 64; i++) { compute(3); a[i] = i * 0.5 + rank; }
  double t[1];
  double sum[1];
  t[0] = a[10] + a[63];
  MPI_Allreduce(t, sum, 1, MPI_SUM, MPI_COMM_WORLD);
  if (rank == 0) { printf("sum %f\n", sum[0]); }
  MPI_Finalize();
  return 0;
}`)
	before := lowerCount.Load()
	const runs = 8
	results := make([]*Result, runs)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = Run(prog, Config{Procs: 2, Threads: 2})
		}()
	}
	wg.Wait()
	if n := lowerCount.Load() - before; n != 1 {
		t.Fatalf("%d concurrent runs lowered the program %d times, want 1", runs, n)
	}
	for i, res := range results {
		if err := res.FirstError(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !reflect.DeepEqual(res, results[0]) {
			t.Errorf("run %d: %+v, want %+v", i, res, results[0])
		}
	}
}

// TestStaticKindsFollowDeclaredTypes pins the float-ness a variable's
// reads carry: globals, double parameters, private copies and
// reduction accumulators read with the declared type, and a team runs
// an omp for on an int copy of its loop variable while a thread alone
// runs it on the declared double.
func TestStaticKindsFollowDeclaredTypes(t *testing.T) {
	res := mustRun(t, `
double g = 1.5;
int h = 7;
double half(double x) { return x / 2; }
int main() {
  double d = 0.0;
  int n = 0;
  double s = 0.0;
  double t = 0.0;
  #pragma omp parallel private(d, n) num_threads(2)
  {
    d = 2.5; n = 5;
    d = d / 2; n = n / 2;
    #pragma omp critical
    { s += d + n; }
    #pragma omp for
    for (double x = 0; x < 2; x += 1) {
      #pragma omp critical
      { t += x / 2; }
    }
  }
  #pragma omp parallel for reduction(+:s) num_threads(2)
  for (int i = 0; i < 4; i++) { s += i / 4; }
  #pragma omp for
  for (double x = 1; x < 2; x += 1) { t += x / 2; }
  print(s, t, g / 2, h / 2, half(3));
  g += 1; h += 1.7;
  print(g, h);
  return 0;
}`, Config{Procs: 1})
	if want := "6.5 0.5 0.75 3 1.5\n2.5 8\n"; res.Output != want {
		t.Errorf("output %q, want %q", res.Output, want)
	}
}
