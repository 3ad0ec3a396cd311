// Deadlock case study: the paper's Figure 1.
//
// The program initializes MPI with the legacy MPI_Init — that is
// MPI_THREAD_SINGLE — and then issues MPI_Send and MPI_Recv from two
// OpenMP sections. Under SINGLE, MPI calls from worker threads are
// undefined behaviour; the paper observes that "only MPI_Send or
// MPI_Recv is executed, but not both", and the program hangs with no
// compile-time diagnostics.
//
// This example shows all three views of the bug:
//
//  1. executing it faithfully — the simulated runtime drops the
//     worker-thread call and the deadlock watchdog reports the hang;
//  2. HOME's static phase — the unsafe style warning;
//  3. HOME's full check — the initialization violation;
//
// and then verifies the MPI_THREAD_MULTIPLE fix runs clean.
//
// Run with: go run ./examples/deadlock
package main

import (
	"fmt"
	"log"

	"home"
	"home/internal/interp"
)

const figure1 = `
int main() {
  MPI_Init();
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  omp_set_num_threads(2);
  double a[1];
  #pragma omp parallel
  {
    #pragma omp sections
    {
      #pragma omp section
      { if (rank == 0) { MPI_Send(a, 1, 0, 5, MPI_COMM_WORLD); } }
      #pragma omp section
      { if (rank == 0) { MPI_Recv(a, 1, 0, 5, MPI_COMM_WORLD, MPI_STATUS_IGNORE); } }
    }
  }
  MPI_Finalize();
  return 0;
}`

func main() {
	prog, err := home.Parse(figure1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("--- 1. running Figure 1 faithfully (thread level enforced) ---")
	res := interp.Run(prog, interp.Config{Procs: 1, Threads: 2, Seed: 1, EnforceThreadLevel: true})
	if res.Deadlocked {
		fmt.Println("the run deadlocked, as the paper describes; wait-for snapshot:")
		for _, op := range res.BlockedTable {
			fmt.Println("  ", op.String())
		}
	} else {
		fmt.Println("unexpected: the run completed")
	}

	fmt.Println("\n--- 2 & 3. what HOME says about it ---")
	rep, err := home.Check(figure1, home.Options{Procs: 1, Threads: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Summary())

	fmt.Println("--- the fix: MPI_Init_thread(MPI_THREAD_MULTIPLE) ---")
	fixed := `
int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  omp_set_num_threads(2);
  double a[1];
  #pragma omp parallel
  {
    #pragma omp sections
    {
      #pragma omp section
      { if (rank == 0) { MPI_Send(a, 1, 0, 5, MPI_COMM_WORLD); } }
      #pragma omp section
      { if (rank == 0) { MPI_Recv(a, 1, 0, 5, MPI_COMM_WORLD, MPI_STATUS_IGNORE); } }
    }
  }
  MPI_Finalize();
  return 0;
}`
	fprog, err := home.Parse(fixed)
	if err != nil {
		log.Fatal(err)
	}
	fres := interp.Run(fprog, interp.Config{Procs: 1, Threads: 2, Seed: 1, EnforceThreadLevel: true})
	if fres.Deadlocked || fres.FirstError() != nil {
		fmt.Println("unexpected failure:", fres.FirstError())
		return
	}
	fmt.Printf("fixed program completes in %.6f virtual seconds\n", float64(fres.Makespan)/1e9)
}
