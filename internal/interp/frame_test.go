package interp

import (
	"strconv"
	"strings"
	"testing"
)

func TestStatusSurvivesForLoop(t *testing.T) {
	res := mustRun(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[3];
  if (rank == 0) {
    MPI_Send(a, 3, 1, 7, MPI_COMM_WORLD);
  }
  int r = 0;
  if (rank == 1) {
    for (int k = 0; k < 1; k++) {
      MPI_Recv(a, 3, 0, MPI_ANY_TAG, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
    r = MPI_Get_count() * 100 + MPI_Status_tag();
  }
  MPI_Finalize();
  return r;
}`, Config{Procs: 2})
	if res.ExitCodes[1] != 307 {
		t.Fatalf("status after the loop = %d, want 307 (count 3, tag 7)", res.ExitCodes[1])
	}
}

func TestSequentialOmpForUpdatesAssignedVariable(t *testing.T) {
	res := mustRun(t, `
int i = 9;
int main() {
  int s = 0;
  #pragma omp for
  for (i = 0; i < 5; i++) { s += i; }
  return i * 100 + s;
}`, Config{})
	if res.ExitCodes[0] != 510 {
		t.Fatalf("exit = %d, want 510 (i ends at 5, sum 10)", res.ExitCodes[0])
	}
}

func TestWorksharedLoopVariableIsPrivate(t *testing.T) {
	res := mustRun(t, `
int main() {
  int i = 42;
  int s = 0;
  #pragma omp parallel for reduction(+: s) num_threads(2)
  for (i = 0; i < 4; i++) { s += i; }
  return i * 100 + s;
}`, Config{})
	if res.ExitCodes[0] != 4206 {
		t.Fatalf("exit = %d, want 4206 (outer i untouched, sum 6)", res.ExitCodes[0])
	}
}

func TestOmpForBoundMustNotReadLoopVariable(t *testing.T) {
	for _, loop := range []string{
		"for (int i = 0; i < i + 4; i++) { }",
		"for (i = 0; i < 4; i += i + 1) { }",
	} {
		res := run(t, `
int main() {
  int i = 0;
  #pragma omp parallel for num_threads(2)
  `+loop+`
  return 0;
}`, Config{})
		if err := res.FirstError(); err == nil || !strings.Contains(err.Error(), "must not read the loop variable") {
			t.Errorf("%s: err = %v", loop, err)
		}
	}
}

func TestLoopBodyAllocatesNothing(t *testing.T) {
	const n = 1000
	for _, body := range []string{
		"s += i;",
		"a[i] = a[i]*0.99 + 0.01;",
	} {
		allocs := func(iters int) float64 {
			prog := parse(t, `int main() { int s = 0; double a[`+strconv.Itoa(iters)+`]; for (int i = 0; i < `+strconv.Itoa(iters)+`; i++) { `+body+` } return 0; }`)
			return testing.AllocsPerRun(5, func() { Run(prog, Config{Procs: 1}) })
		}
		at1, at2 := allocs(n), allocs(2*n)
		if at2-at1 > n/10 {
			t.Fatalf("%s: allocations: %.0f at %d iterations, %.0f at %d; a loop iteration allocates", body, at1, n, at2, 2*n)
		}
	}
}
