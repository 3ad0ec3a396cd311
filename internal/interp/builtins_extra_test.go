package interp

import (
	"strings"
	"testing"
)

func TestMPISendrecvBuiltinRingShift(t *testing.T) {
	res := mustRun(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  int size = MPI_Comm_size(MPI_COMM_WORLD);
  int right = (rank + 1) % size;
  int left = (rank + size - 1) % size;
  double sendv[1];
  double recvv[1];
  sendv[0] = rank;
  MPI_Sendrecv(sendv, 1, right, 5, recvv, 1, left, 5, MPI_COMM_WORLD);
  MPI_Finalize();
  if (recvv[0] == left) { return 1; }
  return 0;
}`, Config{Procs: 4})
	for r, code := range res.ExitCodes {
		if code != 1 {
			t.Fatalf("rank %d ring shift failed", r)
		}
	}
}

func TestMPIAllgatherBuiltin(t *testing.T) {
	res := mustRun(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  int size = MPI_Comm_size(MPI_COMM_WORLD);
  double mine[1];
  double all[8];
  mine[0] = rank * 2.0;
  MPI_Allgather(mine, 1, all, MPI_COMM_WORLD);
  double s = 0.0;
  for (int i = 0; i < size; i++) { s += all[i]; }
  MPI_Finalize();
  return s;
}`, Config{Procs: 4})
	for r, code := range res.ExitCodes {
		if code != 12 { // 0+2+4+6
			t.Fatalf("rank %d allgather sum = %d", r, code)
		}
	}
}

func TestDeadlockedRunReportsBlockedOps(t *testing.T) {
	res := run(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  double a[1];
  MPI_Recv(a, 1, MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  MPI_Finalize();
  return 0;
}`, Config{Procs: 1})
	if !res.Deadlocked {
		t.Fatal("expected deadlock")
	}
	if len(res.BlockedTable) == 0 {
		t.Fatal("no wait-for snapshot")
	}
	if !strings.Contains(res.BlockedTable[0].String(), "rank 0") {
		t.Fatalf("blocked ops = %v", res.BlockedTable)
	}
}
