package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"home/internal/trace"
)

// writeTemp drops source text into a temp file and returns its path.
func writeTemp(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cleanSrc = `int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[1];
  #pragma omp parallel num_threads(2)
  {
    int tid = omp_get_thread_num();
    MPI_Send(a, 1, 1 - rank, tid, MPI_COMM_WORLD);
    MPI_Recv(a, 1, 1 - rank, tid, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  }
  MPI_Finalize();
  return 0;
}`

const buggySrc = `int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[1];
  #pragma omp parallel num_threads(2)
  {
    MPI_Send(a, 1, 1 - rank, 5, MPI_COMM_WORLD);
    MPI_Recv(a, 1, 1 - rank, 5, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  }
  MPI_Finalize();
  return 0;
}`

func TestHomeCheckCleanExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := HomeCheck([]string{writeTemp(t, "clean.c", cleanSrc)}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "0 violation(s)") {
		t.Fatalf("out = %s", out.String())
	}
}

func TestHomeCheckViolationExitsOne(t *testing.T) {
	var out, errb bytes.Buffer
	code := HomeCheck([]string{writeTemp(t, "buggy.c", buggySrc)}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out.String(), "ConcurrentRecvViolation") {
		t.Fatalf("out = %s", out.String())
	}
}

func TestHomeCheckStaticOnly(t *testing.T) {
	var out, errb bytes.Buffer
	code := HomeCheck([]string{"-static", writeTemp(t, "c.c", cleanSrc)}, &out, &errb)
	if code != 0 || !strings.Contains(out.String(), "selected for instrumentation") {
		t.Fatalf("exit=%d out=%s", code, out.String())
	}
	if !strings.Contains(out.String(), "srctmp") {
		t.Fatal("checklist missing")
	}
}

func TestHomeCheckCFGDump(t *testing.T) {
	var out, errb bytes.Buffer
	code := HomeCheck([]string{"-cfg", writeTemp(t, "c.c", cleanSrc)}, &out, &errb)
	if code != 0 || !strings.Contains(out.String(), "digraph") {
		t.Fatalf("exit=%d out=%s", code, out.String())
	}
}

func TestHomeCheckUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := HomeCheck(nil, &out, &errb); code != 2 {
		t.Fatalf("no-args exit = %d", code)
	}
	if code := HomeCheck([]string{"/nonexistent/x.c"}, &out, &errb); code != 2 {
		t.Fatalf("missing-file exit = %d", code)
	}
	if code := HomeCheck([]string{"-mode", "bogus", writeTemp(t, "c.c", cleanSrc)}, &out, &errb); code != 2 {
		t.Fatalf("bad-mode exit = %d", code)
	}
	bad := writeTemp(t, "bad.c", "int main( {")
	if code := HomeCheck([]string{bad}, &out, &errb); code != 2 {
		t.Fatalf("parse-error exit = %d", code)
	}
}

func TestHomeRunOutputsAndStatus(t *testing.T) {
	var out, errb bytes.Buffer
	src := writeTemp(t, "hello.c", `int main() { printf("hi %d\n", 7); return 0; }`)
	if code := HomeRun([]string{"-procs", "1", src}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "hi 7") {
		t.Fatalf("out = %q", out.String())
	}
	if !strings.Contains(errb.String(), "virtual time") {
		t.Fatalf("stderr = %q", errb.String())
	}
}

func TestHomeRunReportsDeadlockWaitFor(t *testing.T) {
	var out, errb bytes.Buffer
	src := writeTemp(t, "dl.c", `int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  double a[1];
  MPI_Recv(a, 1, MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  MPI_Finalize();
  return 0;
}`)
	code := HomeRun([]string{"-procs", "1", src}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(errb.String(), "DEADLOCK") || !strings.Contains(errb.String(), "blocked in") {
		t.Fatalf("stderr = %q", errb.String())
	}
}

// The wait-for snapshot lists blocked threads in numeric rank order:
// a 12-rank receive ring prints rank 2 before rank 10, not after it.
func TestHomeRunWaitForInRankOrder(t *testing.T) {
	var out, errb bytes.Buffer
	src := writeTemp(t, "ring.c", `int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  int size = MPI_Comm_size(MPI_COMM_WORLD);
  double a[1];
  MPI_Recv(a, 1, (rank + 1) % size, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  MPI_Finalize();
  return 0;
}`)
	if code := HomeRun([]string{"-procs", "12", src}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	var ranks []string
	for _, line := range strings.Split(errb.String(), "\n") {
		if f := strings.Fields(line); len(f) > 4 && f[0] == "rank" && f[4] == "blocked" {
			ranks = append(ranks, f[1])
		}
	}
	want := "0 1 2 3 4 5 6 7 8 9 10 11"
	if got := strings.Join(ranks, " "); got != want {
		t.Fatalf("wait-for ranks = %s, want %s\nstderr:\n%s", got, want, errb.String())
	}
}

func TestHomeFmtModes(t *testing.T) {
	messy := "int main( ) {   return   0 ; }"
	path := writeTemp(t, "messy.c", messy)

	var out, errb bytes.Buffer
	if code := HomeFmt([]string{path}, &out, &errb); code != 0 {
		t.Fatalf("print exit = %d", code)
	}
	if !strings.Contains(out.String(), "return 0;") {
		t.Fatalf("out = %q", out.String())
	}

	out.Reset()
	if code := HomeFmt([]string{"-l", path}, &out, &errb); code != 0 {
		t.Fatal("list failed")
	}
	if !strings.Contains(out.String(), "messy.c") {
		t.Fatalf("-l did not report the file: %q", out.String())
	}

	if code := HomeFmt([]string{"-w", path}, &out, &errb); code != 0 {
		t.Fatal("write failed")
	}
	out.Reset()
	if code := HomeFmt([]string{"-l", path}, &out, &errb); code != 0 || out.String() != "" {
		t.Fatalf("file still differs after -w: %q", out.String())
	}

	if code := HomeFmt(nil, &out, &errb); code != 2 {
		t.Fatal("usage error expected")
	}
}

// TestHomeTraceRecordPrintsDiagnostics checks that record reports the
// front end's diagnostics on stderr and keeps them out of the trace.
func TestHomeTraceRecordPrintsDiagnostics(t *testing.T) {
	src := strings.Replace(cleanSrc, "return 0;", "if (0) { return ghost; } return 0;", 1)
	var out, errb bytes.Buffer
	if code := HomeTrace([]string{"record", writeTemp(t, "ghost.c", src)}, &out, &errb); code != 0 {
		t.Fatalf("record exit = %d, stderr = %s", code, errb.String())
	}
	want := "hometrace: diagnostic: line 13: undeclared identifier \"ghost\"\n"
	if !strings.HasPrefix(errb.String(), want) || strings.Count(errb.String(), "diagnostic") != 1 {
		t.Fatalf("stderr = %q, want it to start with %q", errb.String(), want)
	}
	if evs, err := trace.ReadJSON(&out); err != nil || len(evs) == 0 {
		t.Fatalf("stdout is not the trace: %d events, %v", len(evs), err)
	}
}

func TestHomeTraceRecordAnalyzeRoundTrip(t *testing.T) {
	src := writeTemp(t, "buggy.c", buggySrc)
	var traceOut, errb bytes.Buffer
	if code := HomeTrace([]string{"record", "-procs", "2", src}, &traceOut, &errb); code != 0 {
		t.Fatalf("record exit = %d, stderr = %s", code, errb.String())
	}
	tracePath := writeTemp(t, "trace.jsonl", traceOut.String())

	var out bytes.Buffer
	code := HomeTrace([]string{"analyze", tracePath}, &out, &errb)
	if code != 1 {
		t.Fatalf("analyze exit = %d (violations expected)", code)
	}
	if !strings.Contains(out.String(), "ConcurrentRecvViolation") {
		t.Fatalf("out = %q", out.String())
	}

	// Lockset-only over the same recorded trace.
	out.Reset()
	if code := HomeTrace([]string{"analyze", "-mode", "lockset", tracePath}, &out, &errb); code != 1 {
		t.Fatalf("lockset analyze exit = %d", code)
	}

	// Usage errors.
	if code := HomeTrace(nil, &out, &errb); code != 2 {
		t.Fatal("usage error expected")
	}
	if code := HomeTrace([]string{"bogus"}, &out, &errb); code != 2 {
		t.Fatal("unknown subcommand should fail")
	}
	garbage := writeTemp(t, "bad.jsonl", "not json")
	if code := HomeTrace([]string{"analyze", garbage}, &out, &errb); code != 2 {
		t.Fatal("garbage trace should fail")
	}
}

func TestHomeCheckMsgraceExtension(t *testing.T) {
	src := writeTemp(t, "wild.c", `int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[1];
  if (rank == 1 || rank == 2) { MPI_Send(a, 1, 0, 7, MPI_COMM_WORLD); }
  if (rank == 0) {
    MPI_Recv(a, 1, MPI_ANY_SOURCE, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    MPI_Recv(a, 1, MPI_ANY_SOURCE, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  }
  MPI_Finalize();
  return 0;
}`)
	var out, errb bytes.Buffer
	code := HomeCheck([]string{"-procs", "3", "-msgrace", src}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, stderr=%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "message race") {
		t.Fatalf("out = %s", out.String())
	}
	// Without the flag the single-threaded wildcard program is clean.
	out.Reset()
	if code := HomeCheck([]string{"-procs", "3", src}, &out, &errb); code != 0 {
		t.Fatalf("plain check exit = %d:\n%s", code, out.String())
	}
}

func TestHomeCheckRecordReplaySchedule(t *testing.T) {
	src := writeTemp(t, "buggy.c", buggySrc)
	schedPath := filepath.Join(t.TempDir(), "sched.jsonl")

	var recOut, errb bytes.Buffer
	code := HomeCheck([]string{"-chaos", "seed=3", "-record-sched", schedPath, src}, &recOut, &errb)
	if code != 1 {
		t.Fatalf("record exit = %d, stderr = %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "recorded schedule:") {
		t.Fatalf("stderr = %q", errb.String())
	}
	if _, err := os.Stat(schedPath); err != nil {
		t.Fatalf("schedule file: %v", err)
	}

	// Replay must force the recorded interleaving and reproduce the
	// recorded verdict summary byte for byte.
	var repOut bytes.Buffer
	errb.Reset()
	code = HomeCheck([]string{"-replay-sched", schedPath, src}, &repOut, &errb)
	if code != 1 {
		t.Fatalf("replay exit = %d, stderr = %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "replay: forcing recorded schedule") {
		t.Fatalf("stderr = %q", errb.String())
	}
	if recOut.String() != repOut.String() {
		t.Fatalf("replay summary diverged\nrecorded: %s\nreplayed: %s", recOut.String(), repOut.String())
	}
}

func TestHomeCheckScheduleFlagConflicts(t *testing.T) {
	src := writeTemp(t, "clean.c", cleanSrc)
	sched := filepath.Join(t.TempDir(), "s.jsonl")
	var out, errb bytes.Buffer
	if code := HomeCheck([]string{"-record-sched", sched, "-replay-sched", sched, src}, &out, &errb); code != 2 {
		t.Fatalf("record+replay exit = %d", code)
	}
	if !strings.Contains(errb.String(), "mutually exclusive") {
		t.Fatalf("stderr = %q", errb.String())
	}
	errb.Reset()
	if code := HomeCheck([]string{"-chaos", "seed=1", "-replay-sched", sched, src}, &out, &errb); code != 2 {
		t.Fatalf("chaos+replay exit = %d", code)
	}
	if !strings.Contains(errb.String(), "drop -chaos") {
		t.Fatalf("stderr = %q", errb.String())
	}
}

func TestHomeTraceReplaySchedule(t *testing.T) {
	src := writeTemp(t, "buggy.c", buggySrc)
	schedPath := filepath.Join(t.TempDir(), "sched.jsonl")

	var recOut, errb bytes.Buffer
	if code := HomeCheck([]string{"-chaos", "seed=5", "-record-sched", schedPath, src}, &recOut, &errb); code != 1 {
		t.Fatalf("record exit = %d, stderr = %s", code, errb.String())
	}

	var repOut bytes.Buffer
	errb.Reset()
	code := HomeTrace([]string{"replay", schedPath, src}, &repOut, &errb)
	if code != 1 {
		t.Fatalf("replay exit = %d, stderr = %s", code, errb.String())
	}
	if recOut.String() != repOut.String() {
		t.Fatalf("replay summary diverged\nrecorded: %s\nreplayed: %s", recOut.String(), repOut.String())
	}

	// Usage and error paths.
	if code := HomeTrace([]string{"replay", schedPath}, &repOut, &errb); code != 2 {
		t.Fatal("missing program arg should fail")
	}
	garbage := writeTemp(t, "bad.jsonl", "not a schedule")
	if code := HomeTrace([]string{"replay", garbage, src}, &repOut, &errb); code != 2 {
		t.Fatal("garbage schedule should fail")
	}
}

func TestHomeTraceReplayTruncatedScheduleSalvages(t *testing.T) {
	src := writeTemp(t, "buggy.c", buggySrc)
	schedPath := filepath.Join(t.TempDir(), "sched.jsonl")
	var out, errb bytes.Buffer
	if code := HomeCheck([]string{"-chaos", "seed=3", "-record-sched", schedPath, src}, &out, &errb); code != 1 {
		t.Fatalf("record exit = %d, stderr = %s", code, errb.String())
	}
	full, err := os.ReadFile(schedPath)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the stream mid-record: drop the trailing newline plus a few
	// bytes of the final record.
	cut := writeTemp(t, "cut.jsonl", string(full[:len(full)-5]))
	out.Reset()
	errb.Reset()
	code := HomeTrace([]string{"replay", cut, src}, &out, &errb)
	if code == 2 {
		t.Fatalf("salvaged replay should run, stderr = %s", errb.String())
	}
	if !strings.Contains(errb.String(), "salvaged prefix") {
		t.Fatalf("stderr = %q", errb.String())
	}
}
