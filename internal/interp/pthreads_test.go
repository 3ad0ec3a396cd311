package interp

import (
	"testing"

	"home/internal/static"
	"home/internal/trace"
)

func TestPthreadCreateJoinBasic(t *testing.T) {
	res := mustRun(t, `
double cell[4];
void worker(double k) {
  cell[k] = k * 10.0;
}
int main() {
  int t1;
  int t2;
  pthread_create(&t1, worker, 1);
  pthread_create(&t2, worker, 2);
  pthread_join(t1);
  pthread_join(t2);
  return cell[1] + cell[2];
}`, Config{})
	if res.ExitCodes[0] != 30 {
		t.Fatalf("exit = %d", res.ExitCodes[0])
	}
}

func TestPthreadSelfDistinctIDs(t *testing.T) {
	res := mustRun(t, `
double ids[2];
void worker(double slot) {
  ids[slot] = pthread_self();
}
int main() {
  int t1;
  int t2;
  pthread_create(&t1, worker, 0);
  pthread_create(&t2, worker, 1);
  pthread_join(t1);
  pthread_join(t2);
  if (ids[0] != ids[1] && ids[0] >= 100 && ids[1] >= 100) { return 1; }
  return 0;
}`, Config{})
	if res.ExitCodes[0] != 1 {
		t.Fatal("thread ids not distinct or out of the pthread range")
	}
}

func TestPthreadMPIFromThreads(t *testing.T) {
	res := mustRun(t, `
double buf[1];
void sender(double dest) {
  MPI_Send(buf, 1, dest, 77, MPI_COMM_WORLD);
}
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  if (rank == 0) {
    int t;
    pthread_create(&t, sender, 1);
    pthread_join(t);
  }
  if (rank == 1) {
    MPI_Recv(buf, 1, 0, 77, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  }
  MPI_Finalize();
  return 0;
}`, Config{Procs: 2})
	_ = res
}

func TestPthreadJoinOrdersAccesses(t *testing.T) {
	// Writes before the join in the thread and reads after the join in
	// main are ordered; with MonitorAll the analysis must NOT report a
	// race on the shared cell.
	prog := parse(t, `
double shared[1];
void worker(double v) {
  shared[0] = v;
}
int main() {
  int t;
  pthread_create(&t, worker, 5);
  pthread_join(t);
  double x = shared[0];
  return x;
}`)
	log := trace.NewLog()
	res := Run(prog, Config{Sink: log, MonitorAllAccesses: true})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if res.ExitCodes[0] != 5 {
		t.Fatalf("exit = %d", res.ExitCodes[0])
	}
	// Verify fork/join events were emitted for the HB analysis.
	var fork, join, begin, end bool
	for _, e := range log.Events() {
		switch e.Op {
		case trace.OpFork:
			fork = true
		case trace.OpJoin:
			join = true
		case trace.OpBegin:
			begin = true
		case trace.OpEnd:
			end = true
		}
	}
	if !fork || !join || !begin || !end {
		t.Fatalf("missing HB events: fork=%v begin=%v end=%v join=%v", fork, begin, end, join)
	}
}

func TestPthreadErrorsPropagateThroughJoin(t *testing.T) {
	res := run(t, `
void worker(double v) {
  double a[1];
  a[5] = v; /* out of range */
}
int main() {
  int t;
  pthread_create(&t, worker, 1);
  pthread_join(t);
  return 0;
}`, Config{})
	if res.FirstError() == nil {
		t.Fatal("worker error lost")
	}
}

func TestPthreadCreateBadArgs(t *testing.T) {
	for _, src := range []string{
		`int main() { int t; pthread_create(&t, nosuchfn, 1); return 0; }`,
		`void w(double a) { } int main() { int t; pthread_create(&t, w); return 0; }`,
		`int main() { int t; pthread_create(&t, 3, 1); return 0; }`,
		`int main() { pthread_join(42); return 0; }`,
	} {
		if res := run(t, src, Config{}); res.FirstError() == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestPthreadStaticInterproceduralRoot(t *testing.T) {
	prog := parse(t, `
double buf[1];
void sender(double dest) {
  MPI_Send(buf, 1, dest, 1, MPI_COMM_WORLD);
}
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int t;
  pthread_create(&t, sender, 0);
  pthread_join(t);
  MPI_Recv(buf, 1, 0, 1, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  MPI_Finalize();
  return 0;
}`)
	plain := static.Analyze(prog, static.Options{})
	if plain.Instrumented != 0 {
		t.Fatalf("omp-based filter should not see pthread calls: %v", plain.SiteList())
	}
	inter := static.Analyze(prog, static.Options{Interprocedural: true})
	sites := inter.SiteList()
	if len(sites) != 1 || sites[0].Name != "MPI_Send" || !sites[0].ViaCall {
		t.Fatalf("interprocedural sites = %v", sites)
	}
}

func TestPthreadConcurrentRecvViolationDetectedWithInterprocedural(t *testing.T) {
	// Two explicit threads receive with the same (source, tag, comm):
	// the same hazard as the omp version of the bug, found through the
	// interprocedural extension.
	prog := parse(t, `
double buf[1];
void receiver(double unused) {
  MPI_Recv(buf, 1, 0, 9, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
}
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  if (rank == 0) {
    MPI_Send(buf, 1, 1, 9, MPI_COMM_WORLD);
    MPI_Send(buf, 1, 1, 9, MPI_COMM_WORLD);
  }
  if (rank == 1) {
    int t1;
    int t2;
    pthread_create(&t1, receiver, 0);
    pthread_create(&t2, receiver, 0);
    pthread_join(t1);
    pthread_join(t2);
  }
  MPI_Finalize();
  return 0;
}`)
	plan := static.Analyze(prog, static.Options{Interprocedural: true})
	log := trace.NewLog()
	res := Run(prog, Config{Procs: 2, Seed: 4, Instrument: plan.Instrument, Sink: log})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	// The two receiver threads' monitored writes must be present and
	// carry distinct TIDs.
	tids := map[int]bool{}
	for _, e := range log.Events() {
		if e.Op == trace.OpMPICall && e.Call.Kind == trace.CallRecv {
			tids[e.TID] = true
		}
	}
	if len(tids) != 2 {
		t.Fatalf("recv records from %d threads, want 2", len(tids))
	}
}

// Run returns only once every lane has finished, an unjoined pthread
// included: the log it leaves holds the thread's whole run, end event
// and all, and no lane emits after Run returns.
func TestRunWaitsForUnjoinedPthread(t *testing.T) {
	log := trace.NewLog()
	res := Run(parse(t, `
void worker(int n) {
  double x[1];
  for (int i = 0; i < n; i++) { x[0] = x[0] + 1; }
}
int main() {
  int t;
  pthread_create(&t, worker, 2000);
  return 0;
}`), Config{Sink: log, MonitorAllAccesses: true})
	if err := res.FirstError(); err != nil || res.Deadlocked {
		t.Fatalf("err = %v, deadlocked = %v", err, res.Deadlocked)
	}
	evs := log.Events()
	writes, ends := 0, 0
	for _, e := range evs {
		if e.TID < pthreadBase {
			continue
		}
		switch e.Op {
		case trace.OpWrite:
			writes++
		case trace.OpEnd:
			ends++
		}
	}
	if writes < 2000 || ends != 1 {
		t.Fatalf("log at Run's return holds %d pthread writes and %d end events, want at least 2000 and 1", writes, ends)
	}
	if log.Len() != len(evs) {
		t.Fatalf("log grew from %d to %d events after Run returned", len(evs), log.Len())
	}
}
