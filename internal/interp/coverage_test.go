package interp

import (
	"strings"
	"testing"
)

func TestMathBuiltins(t *testing.T) {
	res := mustRun(t, `
int main() {
  double a = sqrt(16.0);
  double b = fabs(0.0 - 3.0);
  double c = floor(2.9);
  double d = ceil(2.1);
  double e = fmin(1.0, 2.0);
  double f = fmax(1.0, 2.0);
  double g = pow(2.0, 3.0);
  double h = exp(0.0);
  double i = log(1.0);
  double j = sin(0.0);
  double k = cos(0.0);
  int m = abs(0 - 7);
  if (a == 4.0 && b == 3.0 && c == 2.0 && d == 3.0 && e == 1.0 && f == 2.0
      && g == 8.0 && h == 1.0 && i == 0.0 && j == 0.0 && k == 1.0 && m == 7) {
    return 1;
  }
  return 0;
}`, Config{})
	if res.ExitCodes[0] != 1 {
		t.Fatal("math builtins wrong")
	}
}

func TestGatherScatterAlltoallBuiltins(t *testing.T) {
	res := mustRun(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  int size = MPI_Comm_size(MPI_COMM_WORLD);
  double mine[1];
  double gathered[4];
  mine[0] = rank + 1.0;
  MPI_Gather(mine, 1, gathered, 0, MPI_COMM_WORLD);
  double gsum = 0.0;
  if (rank == 0) {
    for (int i = 0; i < size; i++) { gsum += gathered[i]; }
  }
  double tosplit[4];
  double part[1];
  if (rank == 0) {
    for (int i = 0; i < size; i++) { tosplit[i] = i * 100.0; }
  }
  MPI_Scatter(tosplit, part, 1, 0, MPI_COMM_WORLD);
  double all[4];
  double outp[4];
  for (int i = 0; i < size; i++) { all[i] = rank * 10.0 + i; }
  MPI_Alltoall(all, outp, 1, MPI_COMM_WORLD);
  MPI_Finalize();
  /* rank r receives element r of each source s: s*10 + r */
  double want = 0.0;
  for (int s = 0; s < size; s++) { want += s * 10.0 + rank; }
  double got = 0.0;
  for (int s = 0; s < size; s++) { got += outp[s]; }
  if (rank == 0 && (gsum != 10.0 || part[0] != 0.0)) { return 0; }
  if (rank == 2 && part[0] != 200.0) { return 0; }
  if (got == want) { return 1; }
  return 0;
}`, Config{Procs: 4})
	for r, code := range res.ExitCodes {
		if code != 1 {
			t.Fatalf("rank %d collective builtins wrong", r)
		}
	}
}

func TestCommDupBuiltinAndReduce(t *testing.T) {
	res := mustRun(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  MPI_Comm dup;
  MPI_Comm_dup(MPI_COMM_WORLD, &dup);
  double v[1];
  double mx[1];
  v[0] = rank * 1.0;
  MPI_Reduce(v, mx, 1, MPI_MAX, 0, dup);
  MPI_Finalize();
  if (rank == 0) { return mx[0]; }
  return 3;
}`, Config{Procs: 4})
	if res.ExitCodes[0] != 3 {
		t.Fatalf("reduce max over dup comm = %d", res.ExitCodes[0])
	}
}

func TestWtimeAndThreadMainBuiltins(t *testing.T) {
	res := mustRun(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  double t0 = MPI_Wtime();
  compute(100000);
  double t1 = MPI_Wtime();
  double o0 = omp_get_wtime();
  int isMain = MPI_Is_thread_main();
  MPI_Finalize();
  if (t1 > t0 && o0 >= 0.0 && isMain == 1) { return 1; }
  return 0;
}`, Config{Procs: 1})
	if res.ExitCodes[0] != 1 {
		t.Fatal("time/thread-main builtins wrong")
	}
}

func TestOmpLockBuiltins(t *testing.T) {
	res := mustRun(t, `
int main() {
  int n = 0;
  int lck;
  omp_init_lock(&lck);
  #pragma omp parallel num_threads(4)
  {
    for (int i = 0; i < 25; i++) {
      omp_set_lock(&lck);
      n = n + 1;
      omp_unset_lock(&lck);
    }
  }
  omp_destroy_lock(&lck);
  return n;
}`, Config{})
	if res.ExitCodes[0] != 100 {
		t.Fatalf("lock-protected counter = %d", res.ExitCodes[0])
	}
}

func TestOmpRuntimeQueries(t *testing.T) {
	res := mustRun(t, `
int main() {
  omp_set_num_threads(3);
  int maxT = omp_get_max_threads();
  int inPar0 = omp_in_parallel();
  double h[4];
  #pragma omp parallel
  {
    if (omp_in_parallel() == 1) { h[omp_get_thread_num()] = omp_get_num_threads(); }
  }
  if (maxT == 3 && inPar0 == 0 && h[0] == 3 && h[2] == 3) { return 1; }
  return 0;
}`, Config{})
	if res.ExitCodes[0] != 1 {
		t.Fatal("omp runtime queries wrong")
	}
}

func TestIprobeAndTestBuiltins(t *testing.T) {
	res := mustRun(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[1];
  if (rank == 0) {
    a[0] = 5.0;
    MPI_Send(a, 1, 1, 3, MPI_COMM_WORLD);
    MPI_Finalize();
    return 1;
  }
  int seen = 0;
  while (seen == 0) {
    seen = MPI_Iprobe(0, 3, MPI_COMM_WORLD);
    compute(10);
  }
  MPI_Request rq;
  MPI_Irecv(a, 1, 0, 3, MPI_COMM_WORLD, &rq);
  int done = 0;
  while (done == 0) {
    done = MPI_Test(&rq);
    compute(10);
  }
  int cnt = MPI_Get_count();
  MPI_Finalize();
  if (a[0] == 5.0 && cnt == 1) { return 1; }
  return 0;
}`, Config{Procs: 2})
	if res.ExitCodes[1] != 1 {
		t.Fatal("iprobe/test polling failed")
	}
}

func TestCompoundAssignOnArrayElements(t *testing.T) {
	res := mustRun(t, `
int main() {
  double a[3];
  a[0] = 10.0;
  a[0] += 5.0;
  a[0] -= 3.0;
  a[0] *= 2.0;
  a[0] /= 4.0;
  a[1] = a[0]++; /* not C-exact: postfix on array evaluates via += */
  return a[0];
}`, Config{})
	if res.ExitCodes[0] != 7 {
		t.Fatalf("a[0] = %d, want 7", res.ExitCodes[0])
	}
}

func TestContinueInLoops(t *testing.T) {
	res := mustRun(t, `
int main() {
  int s = 0;
  for (int i = 0; i < 10; i++) {
    if (i % 2 == 1) { continue; }
    s += i;
  }
  int j = 0;
  int w = 0;
  while (j < 5) {
    j++;
    if (j == 3) { continue; }
    w += j;
  }
  if (s == 20 && w == 12) { return 1; }
  return 0;
}`, Config{})
	if res.ExitCodes[0] != 1 {
		t.Fatal("continue semantics wrong")
	}
}

func TestRuntimeErrorPaths(t *testing.T) {
	cases := map[string]string{
		"undefined variable": `int main() { return nosuchvar; }`,
		"undefined function": `int main() { return nosuchfn(1); }`,
		"not an array":       `int main() { int x; x[0] = 1; return 0; }`,
		"bad array size":     `int main() { double a[0 - 5]; return 0; }`,
		"unsupported MPI":    `int main() { MPI_Cart_create(0); return 0; }`,
		"unsupported omp":    `int main() { omp_get_level(); return 0; }`,
		"string misuse":      `int main() { int x = "hello"; return x; }`,
		"wait null request":  `int main() { int p; MPI_Init_thread(MPI_THREAD_MULTIPLE, &p); MPI_Request rq; MPI_Wait(&rq); return 0; }`,
		"bad argument count": `double f(double a, double b) { return a; } int main() { return f(1); }`,
		"modulo by zero":     `int main() { int a = 5 % 0; return a; }`,
	}
	for name, src := range cases {
		res := run(t, src, Config{})
		if res.FirstError() == nil {
			t.Errorf("%s: no error reported", name)
		}
	}
}

func TestParallelForBadShapes(t *testing.T) {
	cases := []string{
		// non-canonical condition
		`int main() { int n = 5;
 #pragma omp parallel for
 for (int i = 0; n > 0; i++) { n--; }
 return 0; }`,
		// zero step via +=0 is impossible to parse as canonical; use bad post
		`int main() {
 int i;
 #pragma omp parallel for
 for (i = 0; i < 5; i *= 2) { compute(1); }
 return 0; }`,
	}
	for _, src := range cases {
		res := run(t, src, Config{})
		if res.FirstError() == nil {
			t.Errorf("no error for non-canonical omp for: %s", src)
		}
	}
}

func TestEmptyParallelForRange(t *testing.T) {
	res := mustRun(t, `
int main() {
  int n = 0;
  #pragma omp parallel for num_threads(4)
  for (int i = 0; i < 0; i++) { n++; }
  #pragma omp parallel for num_threads(4)
  for (int i = 10; i > 20; i--) { n++; }
  return n;
}`, Config{})
	if res.ExitCodes[0] != 0 {
		t.Fatalf("empty ranges executed %d iterations", res.ExitCodes[0])
	}
}

func TestDecreasingAndSteppedParallelFor(t *testing.T) {
	res := mustRun(t, `
int main() {
  double hits[32];
  #pragma omp parallel for num_threads(3)
  for (int i = 31; i >= 0; i--) { hits[i] = hits[i] + 1.0; }
  #pragma omp parallel for num_threads(3)
  for (int i = 0; i < 32; i += 2) { hits[i] = hits[i] + 1.0; }
  double total = 0.0;
  for (int i = 0; i < 32; i++) { total += hits[i]; }
  return total;
}`, Config{})
	if res.ExitCodes[0] != 48 { // 32 + 16
		t.Fatalf("total = %d, want 48", res.ExitCodes[0])
	}
}

func TestScalarBufferWindows(t *testing.T) {
	// Scalars passed as buffers get a one-element window with
	// write-back, matching C's &scalar idiom.
	res := mustRun(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double x = 0.0;
  if (rank == 0) {
    x = 9.5;
    MPI_Send(&x, 1, 1, 0, MPI_COMM_WORLD);
    MPI_Finalize();
    return 1;
  }
  MPI_Recv(&x, 1, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  MPI_Finalize();
  if (x == 9.5) { return 1; }
  return 0;
}`, Config{Procs: 2})
	if res.ExitCodes[1] != 1 {
		t.Fatal("scalar window write-back failed")
	}
}

func TestBufferOffsetWindows(t *testing.T) {
	res := mustRun(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[6];
  if (rank == 0) {
    a[2] = 7.0;
    a[3] = 8.0;
    MPI_Send(a[2], 2, 1, 0, MPI_COMM_WORLD);
    MPI_Finalize();
    return 1;
  }
  MPI_Recv(a[4], 2, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  MPI_Finalize();
  if (a[4] == 7.0 && a[5] == 8.0) { return 1; }
  return 0;
}`, Config{Procs: 2})
	if res.ExitCodes[1] != 1 {
		t.Fatal("offset buffer windows failed")
	}
}

func TestPrintfFormatting(t *testing.T) {
	res := mustRun(t, `
int main() {
  printf("int=%d float=%f\n", 42, 2.5);
  return 0;
}`, Config{})
	if !strings.Contains(res.Output, "int=42") || !strings.Contains(res.Output, "float=2.5") {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestGlobalArraysSharedWithinRank(t *testing.T) {
	res := mustRun(t, `
double acc[8];
void bump(int slot) {
  acc[slot] = acc[slot] + 1.0;
}
int main() {
  #pragma omp parallel num_threads(4)
  {
    bump(omp_get_thread_num());
  }
  double s = 0.0;
  for (int i = 0; i < 8; i++) { s += acc[i]; }
  return s;
}`, Config{})
	if res.ExitCodes[0] != 4 {
		t.Fatalf("global array updates = %d", res.ExitCodes[0])
	}
}

// A runtime error in a pragma clause reports the pragma's line.
func TestPragmaClauseRuntimeErrorLine(t *testing.T) {
	res := run(t, `int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  int n = 0;
  #pragma omp parallel for schedule(dynamic, 4/n)
  for (int i = 0; i < 4; i++) { }
  MPI_Finalize();
  return 0;
}`, Config{})
	err := res.FirstError()
	if err == nil || !strings.Contains(err.Error(), "line 5: division by zero") {
		t.Fatalf("error = %v, want it at line 5", err)
	}
}
