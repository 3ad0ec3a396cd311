package home

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"home/internal/detect"
	"home/internal/faults"
	"home/internal/npb"
	"home/internal/spec"
)

// A hybrid program with real OpenMP and pthread concurrency, so the
// concurrent-reuse test exercises the interpreter's full event surface
// from many checker goroutines at once.
const reusePthreadSrc = `
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
}`

// TestConcurrentReuseProgram pins the artifact cache's hard
// prerequisite: one parsed *minic.Program checked from many goroutines
// at once (each CheckProgram call re-running sema + static analysis
// over the shared AST) must be race-free under -race and produce
// byte-identical reports. The option split exercises both plan
// variants concurrently.
func TestConcurrentReuseProgram(t *testing.T) {
	srcs := []string{reusePthreadSrc}
	for _, kind := range faults.AllKinds() {
		srcs = append(srcs, faults.Program(kind))
	}
	for si, src := range srcs {
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		sums := make([]string, 8)
		for i := 0; i < 8; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				opts := Options{Procs: 2, Threads: 2, Seed: 1, Explain: true, Stats: NewStatsRegistry()}
				if i%2 == 1 {
					opts.Interprocedural = true
					opts.InstrumentAll = true
				}
				rep, err := CheckProgram(prog, opts)
				if err != nil {
					t.Error(err)
					return
				}
				sums[i] = rep.Summary()
			}()
		}
		wg.Wait()
		// Same options (i and i-2 share parity) must mean the same
		// report, no matter how the goroutines interleaved.
		for i := 2; i < 8; i++ {
			if sums[i] != sums[i-2] {
				t.Errorf("src %d: report %d differs from report %d:\n%s\nvs\n%s", si, i, i-2, sums[i], sums[i-2])
			}
		}
	}
}

// TestConcurrentReuseCompiled is the same pin over a single shared
// *Compiled handle: the first callers race to build the cached
// front-end artifacts while later callers reuse them, and every report
// must still be byte-identical to a fresh un-cached check.
func TestConcurrentReuseCompiled(t *testing.T) {
	srcs := []string{reusePthreadSrc}
	for _, kind := range faults.AllKinds() {
		srcs = append(srcs, faults.Program(kind))
	}
	for si, src := range srcs {
		comp, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Procs: 2, Threads: 2, Seed: 1, Explain: true}
		want, err := Check(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		sums := make([]string, 8)
		for i := 0; i < 8; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := CheckCompiled(comp, opts)
				if err != nil {
					t.Error(err)
					return
				}
				sums[i] = rep.Summary()
			}()
		}
		wg.Wait()
		for i, s := range sums {
			if s != want.Summary() {
				t.Errorf("src %d: shared-handle report %d differs from fresh check:\n%s\nvs\n%s", si, i, s, want.Summary())
			}
		}
	}
}

// TestCompiledSkipsFrontEnd pins the cache-hit observable: the first
// check over a handle carries static and instrument phase spans, every
// later check does not — the front-end genuinely did not run again —
// while the report stays byte-identical.
func TestCompiledSkipsFrontEnd(t *testing.T) {
	comp, err := Compile(faults.Program(ConcurrentRecvViolation))
	if err != nil {
		t.Fatal(err)
	}
	spanNames := func(rep *Report) map[string]bool {
		out := map[string]bool{}
		for _, sp := range rep.Spans {
			out[sp.Name] = true
		}
		return out
	}
	opts := Options{Procs: 2, Threads: 2, Seed: 1}
	opts.Profile = NewProfile()
	cold, err := CheckCompiled(comp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if names := spanNames(cold); !names["static"] || !names["instrument"] {
		t.Fatalf("cold check missing front-end spans: %v", names)
	}
	opts.Profile = NewProfile()
	warm, err := CheckCompiled(comp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if names := spanNames(warm); names["static"] || names["instrument"] || names["parse"] {
		t.Fatalf("warm check re-ran the front-end: %v", names)
	}
	// The deterministic report surfaces must not move (Output
	// interleaving and span timings are host-dependent and excluded).
	if warm.Summary() != cold.Summary() {
		t.Errorf("warm summary differs from cold:\n%s\nvs\n%s", warm.Summary(), cold.Summary())
	}
	if warm.Makespan != cold.Makespan {
		t.Errorf("warm makespan %d != cold %d", warm.Makespan, cold.Makespan)
	}
}

// TestCompileHashAndErrors pins handle identity and the typed parse
// error Compile shares with Check.
func TestCompileHashAndErrors(t *testing.T) {
	src := faults.Program(ConcurrentRecvViolation)
	a, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() == "" || a.Hash() != b.Hash() {
		t.Fatalf("same source must hash identically: %q vs %q", a.Hash(), b.Hash())
	}
	if a.Source() != src {
		t.Fatal("Source must round-trip the compiled text")
	}
	other, err := Compile(reusePthreadSrc)
	if err != nil {
		t.Fatal(err)
	}
	if other.Hash() == a.Hash() {
		t.Fatal("different sources must hash differently")
	}
	_, err = Compile("int main( {")
	var pe *ParseError
	if err == nil || !errors.As(err, &pe) || !strings.HasPrefix(err.Error(), "parse: ") {
		t.Fatalf("Compile of garbage must return *ParseError, got %v", err)
	}
}

// TestCheckInPlaceMatchesCopy pins that HOME, which analyzes its log in
// the chunks it was emitted into, reports what detect.Analyze and
// spec.Match report over a copy of the same log, on NPB LU/BT/SP class
// S at 4 procs. The copy is the report's own Trace, kept under Explain.
func TestCheckInPlaceMatchesCopy(t *testing.T) {
	for _, b := range npb.All() {
		o := npb.PaperInjections(b)
		o.Class = 'S'
		c, err := Compile(npb.Generate(b, o).Text)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := CheckCompiled(c, Options{Procs: 4, Threads: 2, Seed: 1, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Trace) <= 64 {
			t.Fatalf("%v: %d events fill one chunk; the check must cross a chunk boundary", b, len(rep.Trace))
		}
		want := detect.Analyze(rep.Trace, detect.Options{Explain: true})
		if !reflect.DeepEqual(rep.Races, want.Races) || rep.EventsAnalyzed != want.EventsAnalyzed {
			t.Errorf("%v: in-place races differ from the copy's:\n got %v\nwant %v", b, rep.Races, want.Races)
		}
		wantVs := spec.Match(rep.Trace, want)
		if !reflect.DeepEqual(rep.Violations, wantVs) {
			t.Errorf("%v: in-place violations differ from the copy's:\n got %v\nwant %v", b, rep.Violations, wantVs)
		}
		if len(wantVs) == 0 {
			t.Errorf("%v: no violation found; the comparison is vacuous", b)
		}
	}
}
