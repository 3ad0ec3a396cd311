package interp

import (
	"errors"
	"testing"

	"home/internal/minic"
	"home/internal/npb"
	"home/internal/obs"
	"home/internal/obs/live"
)

// statements runs prog and returns its interp.statements count.
func statements(prog *minic.Program, conf Config) (*Result, int64) {
	conf.Stats = obs.NewRegistry()
	res := Run(prog, conf)
	return res, conf.Stats.Snapshot().Counters["interp.statements"]
}

// TestStatementsExactNPB pins interp.statements on the injected
// class-B NPB-MZ programs: lanes count statements on their own and
// add them in batches, and the total must stay exact.
func TestStatementsExactNPB(t *testing.T) {
	want := map[npb.Benchmark][2]int64{
		npb.LU: {15010, 60034},
		npb.BT: {20962, 83842},
		npb.SP: {15378, 64386},
	}
	for _, b := range npb.All() {
		o := npb.PaperInjections(b)
		o.Class = 'B'
		prog, err := minic.Parse(npb.Generate(b, o).Text)
		if err != nil {
			t.Fatal(err)
		}
		for i, procs := range []int{4, 16} {
			res, got := statements(prog, Config{Procs: procs})
			if err := res.FirstError(); err != nil {
				t.Fatalf("%v/%d: %v", b, procs, err)
			}
			if got != want[b][i] {
				t.Errorf("%v/%d: interp.statements = %d, want %d", b, procs, got, want[b][i])
			}
		}
	}
}

// hybridLoops is a 2-rank × 2-thread program whose statement count
// does not depend on the schedule.
const hybridLoops = `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  double s = 0.0;
  #pragma omp parallel num_threads(2)
  {
    double mine = 0.0;
    for (int i = 0; i < 3000; i++) { mine += i; }
    #pragma omp critical
    { s += mine; }
  }
  MPI_Barrier(MPI_COMM_WORLD);
  MPI_Finalize();
  return 0;
}`

func TestStepBudgetFitsExactRun(t *testing.T) {
	prog := parse(t, hybridLoops)
	_, n := statements(prog, Config{Procs: 2, Threads: 2})
	if n < 4*stepBatch {
		t.Fatalf("only %d statements; the program should span several batches per lane", n)
	}
	res, again := statements(prog, Config{Procs: 2, Threads: 2, MaxSteps: n})
	if err := res.FirstError(); err != nil {
		t.Fatalf("MaxSteps = %d statements executed: %v", n, err)
	}
	if again != n {
		t.Fatalf("interp.statements = %d, then %d", n, again)
	}
}

func TestStepBudgetStopsRunawayTeam(t *testing.T) {
	const maxSteps = 10_000
	// Two ranks, each a main lane and a team of two member lanes.
	const lanes = 2 * (1 + 2)
	prog := parse(t, `
int main() {
  #pragma omp parallel num_threads(2)
  {
    while (1) { }
  }
  return 0;
}`)
	res, n := statements(prog, Config{Procs: 2, MaxSteps: maxSteps})
	for r, err := range res.Errs {
		if !errors.Is(err, ErrStepBudget) {
			t.Errorf("rank %d: err = %v, want ErrStepBudget", r, err)
		}
	}
	if n <= maxSteps || n > maxSteps+lanes*stepBatch {
		t.Fatalf("interp.statements = %d, want in (%d, %d]", n, maxSteps, maxSteps+lanes*stepBatch)
	}
}

func TestStepBatchDividesStepInterval(t *testing.T) {
	if stepBatch&(stepBatch-1) != 0 || live.StepInterval%stepBatch != 0 {
		t.Fatalf("stepBatch %d must be a power of two dividing live.StepInterval %d", stepBatch, live.StepInterval)
	}
}

// TestLiveCadence pins the publication contract: a run publishes one
// periodic delta per live.StepInterval statements, whichever lanes
// execute them.
func TestLiveCadence(t *testing.T) {
	prog := parse(t, hybridLoops)
	h := live.NewPlane().Register(live.RunInfo{Program: "hybridLoops", Procs: 2, Threads: 2})
	_, n := statements(prog, Config{Procs: 2, Threads: 2, Live: h})
	if n < 2*live.StepInterval {
		t.Fatalf("only %d statements; the run should cross several publication points", n)
	}
	if got, want := h.Status().Deltas, n/live.StepInterval; got != want {
		t.Fatalf("%d periodic deltas for %d statements, want %d", got, n, want)
	}
}

// TestRacyProgramReadsWrittenValues races two threads on a shared
// int, double, array element and request variable. MiniHPC gives
// such a program no order, but the host must stay safe: each read
// returns a value some thread wrote, never a torn one, and -race sees
// no host-level race.
func TestRacyProgramReadsWrittenValues(t *testing.T) {
	res := mustRun(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  int x = 0;
  double d = 0.25;
  double a[1];
  a[0] = 0.5;
  double buf[1];
  MPI_Request req;
  MPI_Isend(buf, 1, rank, 9, MPI_COMM_WORLD, &req);
  int bad = 0;
  #pragma omp parallel num_threads(2)
  {
    int me = omp_get_thread_num();
    int mybad = 0;
    for (int k = 1; k <= 300; k++) {
      x = me * 1000 + k;
      d = me + 0.25;
      a[0] = me + 0.5;
      MPI_Isend(buf, 1, rank, 9, MPI_COMM_WORLD, &req);
      int rx = x;
      if (rx % 1000 < 1 || rx % 1000 > 300 || rx / 1000 > 1) { mybad++; }
      double rd = d;
      if (rd != 0.25 && rd != 1.25) { mybad++; }
      double ra = a[0];
      if (ra != 0.5 && ra != 1.5) { mybad++; }
      MPI_Test(&req);
    }
    #pragma omp critical
    { bad += mybad; }
  }
  for (int k = 0; k < 601; k++) {
    MPI_Recv(buf, 1, rank, 9, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  }
  MPI_Finalize();
  return bad;
}`, Config{Procs: 1, Threads: 2})
	if code := res.ExitCodes[0]; code != 0 {
		t.Fatalf("%d reads returned a value no thread wrote", code)
	}
}
