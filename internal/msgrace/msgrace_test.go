package msgrace

import (
	"strings"
	"testing"

	"home/internal/interp"
	"home/internal/minic"
	"home/internal/trace"
)

// record runs a program with instrument-everything and returns its
// event stream.
func record(t *testing.T, src string, procs int) []trace.Event {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	log := trace.NewLog()
	res := interp.Run(prog, interp.Config{
		Procs: procs, Seed: 1,
		Instrument: func(int) bool { return true },
		Sink:       log,
	})
	if err := res.FirstError(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return log.Events()
}

func TestWildcardReceiveWithTwoSendersFlagged(t *testing.T) {
	events := record(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[1];
  if (rank == 1 || rank == 2) {
    MPI_Send(a, 1, 0, 7, MPI_COMM_WORLD);
  }
  if (rank == 0) {
    MPI_Recv(a, 1, MPI_ANY_SOURCE, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    MPI_Recv(a, 1, MPI_ANY_SOURCE, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  }
  MPI_Finalize();
  return 0;
}`, 3)
	reports := Analyze(events)
	if len(reports) != 1 {
		t.Fatalf("reports = %v", reports)
	}
	r := reports[0]
	if !r.Wildcard || r.Rank != 0 || len(r.Senders) != 2 || r.Messages != 2 {
		t.Fatalf("report = %+v", r)
	}
	if !strings.Contains(r.String(), "wildcard receive") {
		t.Fatalf("string = %q", r.String())
	}
}

func TestSingleSenderNotFlagged(t *testing.T) {
	events := record(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[1];
  if (rank == 1) {
    MPI_Send(a, 1, 0, 7, MPI_COMM_WORLD);
    MPI_Send(a, 1, 0, 7, MPI_COMM_WORLD);
  }
  if (rank == 0) {
    MPI_Recv(a, 1, MPI_ANY_SOURCE, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    MPI_Recv(a, 1, MPI_ANY_SOURCE, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  }
  MPI_Finalize();
  return 0;
}`, 2)
	if reports := Analyze(events); len(reports) != 0 {
		t.Fatalf("single-sender wildcard flagged: %v", reports)
	}
}

func TestDistinctTagsNotFlagged(t *testing.T) {
	events := record(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[1];
  if (rank == 1) { MPI_Send(a, 1, 0, 1, MPI_COMM_WORLD); }
  if (rank == 2) { MPI_Send(a, 1, 0, 2, MPI_COMM_WORLD); }
  if (rank == 0) {
    MPI_Recv(a, 1, 1, 1, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    MPI_Recv(a, 1, 2, 2, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  }
  MPI_Finalize();
  return 0;
}`, 3)
	if reports := Analyze(events); len(reports) != 0 {
		t.Fatalf("deterministic exchange flagged: %v", reports)
	}
}

func TestAnyTagReceiveMatchesAcrossTags(t *testing.T) {
	events := record(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[1];
  if (rank == 1) { MPI_Send(a, 1, 0, 1, MPI_COMM_WORLD); }
  if (rank == 2) { MPI_Send(a, 1, 0, 2, MPI_COMM_WORLD); }
  if (rank == 0) {
    MPI_Recv(a, 1, MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    MPI_Recv(a, 1, MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  }
  MPI_Finalize();
  return 0;
}`, 3)
	reports := Analyze(events)
	if len(reports) != 1 || reports[0].Tag != -1 || len(reports[0].Senders) != 2 {
		t.Fatalf("reports = %v", reports)
	}
}

func TestNamedSourceWithCompetingSameSignatureSenders(t *testing.T) {
	// Receives naming their source are safe even when another rank
	// sends with the same tag: the selector disambiguates.
	events := record(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[1];
  if (rank == 1) { MPI_Send(a, 1, 0, 7, MPI_COMM_WORLD); }
  if (rank == 2) { MPI_Send(a, 1, 0, 7, MPI_COMM_WORLD); }
  if (rank == 0) {
    MPI_Recv(a, 1, 1, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    MPI_Recv(a, 1, 2, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  }
  MPI_Finalize();
  return 0;
}`, 3)
	if reports := Analyze(events); len(reports) != 0 {
		t.Fatalf("source-named receives flagged: %v", reports)
	}
}

func TestEmptyAndIrrelevantEvents(t *testing.T) {
	if got := Analyze(nil); len(got) != 0 {
		t.Fatal("empty analysis should be empty")
	}
	events := []trace.Event{
		{Op: trace.OpWrite, Name: "x"},
		{Op: trace.OpBarrier},
	}
	if got := Analyze(events); len(got) != 0 {
		t.Fatal("non-call events should be ignored")
	}
}
