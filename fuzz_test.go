package home

import (
	"bytes"
	"errors"
	"testing"

	"home/internal/faults"
	"home/internal/interp"
	"home/internal/mpi"
	"home/internal/omp"
	"home/internal/sched"
	"home/internal/spec"
)

// FuzzCheck drives the whole pipeline — parser, static analysis,
// instrumented execution on the simulated cluster, dynamic analyses,
// spec matching — on arbitrary source text with a chaos plan derived
// from the fuzzed seed. The contract under test is the robustness
// contract of docs/ROBUSTNESS.md: Check never panics, and every error
// it surfaces (returned or per-rank) is one of the documented typed
// errors.
func FuzzCheck(f *testing.F) {
	for _, kind := range AllViolationKinds() {
		f.Add(faults.Program(kind), int64(1))
	}
	f.Add(cleanHybrid, int64(3))
	f.Add(`int main() { MPI_Init(); MPI_Finalize(); return 0; }`, int64(0))
	f.Add(`int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double b[1];
  if (rank == 0) { MPI_Recv(b, 1, 1, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE); }
  MPI_Barrier(MPI_COMM_WORLD);
  MPI_Finalize();
  return 0;
}`, int64(7)) // deadlocks: rank 0 receives a message nobody sends
	f.Add(`int x = ; #pragma omp`, int64(2)) // parse garbage
	f.Add(`int main() { while (1) { } return 0; }`, int64(5))
	f.Add(`int main() { double x = sqrt(); return 0; }`, int64(0)) // builtin without its argument
	f.Add(`int main() {
  #pragma omp parallel num_threads(2)
  { omp_set_lock(); }
  return 0;
}`, int64(4))
	// A request copied, passed through a parameter and waited twice.
	requests := `int finish(int req) { MPI_Wait(&req); return 0; }
int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[2];
  double b[2];
  MPI_Request s;
  MPI_Request r;
  MPI_Isend(b, 2, 1 - rank, 3, MPI_COMM_WORLD, &s);
  MPI_Irecv(a, 2, 1 - rank, 3, MPI_COMM_WORLD, &r);
  MPI_Request q = r;
  finish(q);
  MPI_Wait(&r);
  MPI_Wait(&s);
  MPI_Finalize();
  return 0;
}`
	f.Add(requests, int64(0))
	f.Add(requests, int64(6))

	f.Fuzz(func(t *testing.T, src string, seed int64) {
		opts := Options{
			Procs:         2,
			Threads:       2,
			Seed:          1,
			MaxSteps:      20_000,
			MaxArrayElems: 1 << 12,
		}
		if seed != 0 {
			if seed%3 == 0 {
				opts.Chaos = ChaosCrash(seed, int(seed)%opts.Procs, 2)
			} else {
				opts.Chaos = ChaosPerturb(seed)
			}
		}
		rep, err := Check(src, opts)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Check returned an undocumented error type %T: %v", err, err)
			}
			return
		}
		if rep == nil {
			t.Fatal("Check returned neither report nor error")
		}
		for rank, rerr := range rep.RunErrors {
			if rerr != nil && !documentedRunError(rerr) {
				t.Fatalf("rank %d surfaced an undocumented error type %T: %v", rank, rerr, rerr)
			}
		}
	})
}

// TestBuiltinWithoutArgumentIsRuntimeError: a builtin called without
// the argument it reads fails with a runtime error at the call's line,
// on every rank, and the check carries on.
func TestBuiltinWithoutArgumentIsRuntimeError(t *testing.T) {
	for _, name := range []string{
		"sqrt", "fabs", "floor", "ceil", "exp", "log", "sin", "cos", "abs",
		"omp_set_lock", "omp_unset_lock", "pthread_join",
	} {
		src := "int main() {\n  int provided;\n  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);\n  " +
			name + "();\n  MPI_Finalize();\n  return 0;\n}"
		rep, err := Check(src, Options{Procs: 2, Threads: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := "runtime error at line 4: " + name + " needs one argument"
		for rank, rerr := range rep.RunErrors {
			var re *interp.RuntimeError
			if !errors.As(rerr, &re) || rerr.Error() != want {
				t.Errorf("%s: rank %d error %v, want %q", name, rank, rerr, want)
			}
		}
	}
}

// FuzzSchedBinary drives the schedule-stream reader — the v3 binary
// frame decoder and the JSONL fallback it sniffs against — on
// arbitrary bytes. The contract: Read never panics, every failure is
// a documented typed error (*sched.TruncatedError or a hard decode
// error), and a successfully decoded binary stream transcodes
// losslessly.
func FuzzSchedBinary(f *testing.F) {
	// Seed with a real recorded schedule in both containers, plus
	// truncated and corrupted variants of the binary form.
	rec := sched.NewRecorder()
	_, err := Check(faults.Program(spec.CollectiveCallViolation), Options{
		Procs: 2, Threads: 2, Seed: 1,
		Chaos:          ChaosPerturb(3),
		RecordSchedule: rec,
	})
	if err != nil {
		f.Fatalf("seed schedule: %v", err)
	}
	bin := rec.BytesBinary()
	jsonl := rec.Bytes()
	f.Add(bin)
	f.Add(jsonl)
	f.Add(bin[:len(bin)/2])
	f.Add(bin[:len(bin)-1])
	corrupt := append([]byte(nil), bin...)
	corrupt[len(corrupt)/2] ^= 0x80
	f.Add(corrupt)
	f.Add([]byte(sched.BinaryMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := sched.Read(bytes.NewReader(data))
		if err != nil {
			var te *sched.TruncatedError
			if errors.As(err, &te) {
				// The salvage contract: a TruncatedError always carries
				// a replayable prefix (the CLIs call methods on it).
				if s == nil {
					t.Fatalf("TruncatedError without a salvaged schedule: %v", err)
				}
				if te.Records < 0 {
					t.Fatalf("negative salvage count %d", te.Records)
				}
				return
			}
			if s != nil {
				t.Fatalf("schedule returned alongside hard error %v", err)
			}
			return
		}
		if s == nil {
			t.Fatal("Read returned neither schedule nor error")
		}
		if !sched.Binary(data) {
			// JSONL streams can carry fields outside their kind's
			// payload contract, which the binary container does not
			// preserve; the round-trip guarantee applies to canonical
			// streams (internal/difftest pins those), not fuzzed ones.
			return
		}
		// A decoded binary stream is canonical by construction: both
		// re-encodes must reproduce it exactly.
		rebin, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("binary-decoded schedule failed to re-encode: %v", err)
		}
		s2, rerr := sched.Read(bytes.NewReader(rebin))
		if rerr != nil {
			t.Fatalf("re-encoded stream failed to decode: %v", rerr)
		}
		j1, err1 := s.MarshalJSONL()
		j2, err2 := s2.MarshalJSONL()
		if err1 != nil || err2 != nil {
			t.Fatalf("jsonl re-encode: %v / %v", err1, err2)
		}
		if !bytes.Equal(j1, j2) {
			t.Fatalf("binary round trip diverged:\n got %q\nwant %q", j2, j1)
		}
	})
}

// documentedRunError reports whether a per-rank error from a Check run
// belongs to the documented inventory (docs/ROBUSTNESS.md).
func documentedRunError(err error) bool {
	var runtimeErr *interp.RuntimeError
	var rankErr *mpi.RankFailureError
	switch {
	case errors.As(err, &runtimeErr),
		errors.As(err, &rankErr),
		errors.Is(err, interp.ErrStepBudget),
		errors.Is(err, mpi.ErrDeadlock),
		errors.Is(err, mpi.ErrRankFailed),
		errors.Is(err, mpi.ErrNotInitialized),
		errors.Is(err, mpi.ErrFinalized),
		errors.Is(err, mpi.ErrInvalidRank),
		errors.Is(err, mpi.ErrInvalidComm),
		errors.Is(err, mpi.ErrRequestReused),
		errors.Is(err, mpi.ErrDoubleInit),
		errors.Is(err, mpi.ErrWindowBounds),
		errors.Is(err, omp.ErrDeadlock),
		errors.Is(err, omp.ErrRankAborted):
		return true
	}
	return false
}
