package interp

import (
	"fmt"
	"testing"

	"home/internal/trace"
)

// requestProgram wraps body in a one-rank program with a double
// receive buffer a, a send buffer b holding 4, and helper functions
// ahead of main.
func requestProgram(funcs, body string) string {
	return funcs + `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  double a[1];
  double b[1];
  b[0] = 4.0;
` + body + `
  MPI_Finalize();
  return 0;
}`
}

// TestRequestSemantics pins what a program can do with a request: it
// is a number, so copies, parameters and doubles carry it; a completed
// request can be waited on again without a second delivery; an Irecv
// tested while pending delivers at its Wait; a request never started
// is null; and printing one prints its id.
func TestRequestSemantics(t *testing.T) {
	cases := []struct {
		name, funcs, body string
		want              string // the output, or the first error's text
	}{
		{"copy waited twice", "", `
  MPI_Request r;
  MPI_Request q;
  MPI_Send(b, 1, 0, 5, MPI_COMM_WORLD);
  MPI_Irecv(a, 1, 0, 5, MPI_COMM_WORLD, &r);
  q = r;
  MPI_Wait(&q);
  MPI_Wait(&r);
  printf("%f\n", a[0]);`, "4\n"},
		{"int parameter", "int finish(int req) { MPI_Wait(&req); return 0; }", `
  MPI_Request r;
  MPI_Send(b, 1, 0, 5, MPI_COMM_WORLD);
  MPI_Irecv(a, 1, 0, 5, MPI_COMM_WORLD, &r);
  finish(r);
  printf("%f\n", a[0]);`, "4\n"},
		{"stored in a double", "", `
  double d;
  MPI_Send(b, 1, 0, 5, MPI_COMM_WORLD);
  MPI_Irecv(a, 1, 0, 5, MPI_COMM_WORLD, &d);
  MPI_Wait(&d);
  printf("%f\n", a[0]);`, "4\n"},
		{"second wait delivers nothing", "", `
  MPI_Request r;
  MPI_Send(b, 1, 0, 5, MPI_COMM_WORLD);
  MPI_Irecv(a, 1, 0, 5, MPI_COMM_WORLD, &r);
  MPI_Wait(&r);
  a[0] = 9.0;
  MPI_Wait(&r);
  printf("%f\n", a[0]);`, "9\n"},
		{"test pending then wait", "", `
  MPI_Request r;
  MPI_Irecv(a, 1, 0, 5, MPI_COMM_WORLD, &r);
  int done = MPI_Test(&r);
  MPI_Send(b, 1, 0, 5, MPI_COMM_WORLD);
  MPI_Wait(&r);
  printf("%d %f\n", done, a[0]);`, "0 4\n"},
		{"null request", "", `
  MPI_Request r;
  MPI_Wait(&r);`, "runtime error at line 10: MPI_Wait on a null request"},
		{"printed as its id", "", `
  MPI_Request s;
  MPI_Request r;
  MPI_Isend(b, 1, 0, 5, MPI_COMM_WORLD, &s);
  MPI_Irecv(a, 1, 0, 5, MPI_COMM_WORLD, &r);
  MPI_Wait(&s);
  MPI_Wait(&r);
  printf("%d %d\n", s, r);`, "1 2\n"},
	}
	for _, c := range cases {
		res := run(t, requestProgram(c.funcs, c.body), Config{})
		got := res.Output
		if err := res.FirstError(); err != nil {
			got = fmt.Sprint(err)
		}
		if got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

// TestSecondWaitRecordsTheSameCall pins that a second MPI_Wait on a
// completed Irecv goes through the wrapper as the first did: the same
// request id and the same matched message in its call record.
func TestSecondWaitRecordsTheSameCall(t *testing.T) {
	log := trace.NewLog()
	res := run(t, requestProgram("", `
  MPI_Request r;
  MPI_Send(b, 1, 0, 5, MPI_COMM_WORLD);
  MPI_Irecv(a, 1, 0, 5, MPI_COMM_WORLD, &r);
  MPI_Wait(&r);
  MPI_Wait(&r);`), Config{Sink: log, Instrument: func(int) bool { return true }})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	var waits []trace.MPICall
	for _, e := range log.Events() {
		if e.Op == trace.OpMPICall && e.Call.Kind == trace.CallWait {
			waits = append(waits, *e.Call)
		}
	}
	if len(waits) != 2 {
		t.Fatalf("%d MPI_Wait records, want 2", len(waits))
	}
	first, second := waits[0], waits[1]
	if second.Line != first.Line+1 {
		t.Errorf("the waits sit at lines %d and %d", first.Line, second.Line)
	}
	second.Line = first.Line
	if first != second || first.Request != 1 || first.MatchIx == 0 {
		t.Errorf("second wait %+v, first %+v", second, first)
	}
}
