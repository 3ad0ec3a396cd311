package interp

import (
	"testing"

	"home/internal/static"
	"home/internal/trace"
)

func TestRMABuiltinsPutGetFence(t *testing.T) {
	res := mustRun(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  int size = MPI_Comm_size(MPI_COMM_WORLD);
  double region[4];
  int win;
  MPI_Win_create(region, 4, MPI_COMM_WORLD, &win);
  MPI_Win_fence(win);
  int peer = 1 - rank;
  double val[1];
  val[0] = rank + 10.0;
  MPI_Put(win, peer, 0, val, 1);
  MPI_Win_fence(win);
  double back[1];
  MPI_Get(win, peer, 0, back, 1);
  MPI_Win_fence(win);
  MPI_Accumulate(win, peer, 1, val, 1);
  MPI_Accumulate(win, peer, 1, val, 1);
  MPI_Win_fence(win);
  MPI_Win_free(win);
  MPI_Finalize();
  /* region[0] holds peer's put; back holds my own value read from peer;
     region[1] holds 2x peer's accumulate */
  if (region[0] == peer + 10.0 && back[0] == rank + 10.0 && region[1] == 2.0 * (peer + 10.0)) {
    return 1;
  }
  return 0;
}`, Config{Procs: 2})
	for r, code := range res.ExitCodes {
		if code != 1 {
			t.Fatalf("rank %d RMA semantics wrong", r)
		}
	}
}

func TestRMAWindowViolationEventsEmitted(t *testing.T) {
	// Two threads put to the same window concurrently inside a
	// parallel region: the wrapper must emit wintmp writes carrying
	// the window id for the spec extension.
	prog := parse(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double region[4];
  int win;
  MPI_Win_create(region, 4, MPI_COMM_WORLD, &win);
  double val[1];
  #pragma omp parallel num_threads(2)
  {
    MPI_Put(win, 1 - rank, omp_get_thread_num(), val, 1);
  }
  MPI_Win_fence(win);
  MPI_Finalize();
  return 0;
}`)
	plan := static.Analyze(prog, static.Options{})
	log := trace.NewLog()
	res := Run(prog, Config{Procs: 2, Seed: 1, Instrument: plan.Instrument, Sink: log})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	var winWrites int
	for _, e := range log.Events() {
		if e.Op == trace.OpWrite && e.Name == trace.VarWindow {
			winWrites++
			if e.Call == nil || e.Call.Win <= 0 {
				t.Fatalf("window write without a window id: %+v", e)
			}
		}
	}
	// 2 ranks x 2 threads x 1 put = 4 (the fence and create are
	// outside the region and unselected).
	if winWrites != 4 {
		t.Fatalf("wintmp writes = %d, want 4", winWrites)
	}
}

func TestRMAUnknownWindowErrors(t *testing.T) {
	res := run(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  double val[1];
  MPI_Put(99, 0, 0, val, 1);
  return 0;
}`, Config{Procs: 1})
	if res.FirstError() == nil {
		t.Fatal("unknown window accepted")
	}
}

// TestRMAPutRacesOwnerRead pins host safety of a window region, which
// is the owner's array: rank 1 puts into rank 0's region in a loop
// while rank 0 sums the same element in the same epoch. MPI calls the
// program erroneous, but the host must not race: the put and the
// owner's read both go through the atomic element helpers, so under
// -race this run is clean and every read sees 0 or the put value.
func TestRMAPutRacesOwnerRead(t *testing.T) {
	res := mustRun(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double region[1];
  int win;
  MPI_Win_create(region, 1, MPI_COMM_WORLD, &win);
  double val[1];
  val[0] = 1.0;
  double sum = 0.0;
  int bad = 0;
  for (int k = 0; k < 2000; k++) {
    if (rank == 1) {
      MPI_Put(win, 0, 0, val, 1);
    } else {
      double x = region[0];
      if (x != 0.0 && x != 1.0) { bad++; }
      sum += x;
    }
  }
  MPI_Win_fence(win);
  if (rank == 0 && region[0] != 1.0) { bad++; }
  MPI_Win_free(win);
  MPI_Finalize();
  return bad;
}`, Config{Procs: 2})
	for r, code := range res.ExitCodes {
		if code != 0 {
			t.Fatalf("rank %d saw %d values nobody wrote", r, code)
		}
	}
}
