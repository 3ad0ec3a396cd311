package difftest

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"home"
	"home/internal/detect"
	"home/internal/faults"
	"home/internal/interp"
	"home/internal/minic"
	"home/internal/spec"
	"home/internal/trace"
)

// randomProgram draws a hybrid program: a thread level, then a random
// sequence of injected violations (each in its own block, with random
// skew) and shared-memory regions that mix critical sections,
// barriers, unprotected updates and MPI calls inside the region.
func randomProgram(r *rand.Rand) string {
	levels := []string{"MPI_THREAD_MULTIPLE", "MPI_THREAD_MULTIPLE", "MPI_THREAD_SERIALIZED", "MPI_THREAD_FUNNELED", "MPI_THREAD_SINGLE"}
	kinds := []spec.Kind{spec.ConcurrentRecvViolation, spec.ConcurrentRequestViolation, spec.ProbeViolation, spec.CollectiveCallViolation}
	var b strings.Builder
	fmt.Fprintf(&b, `int main() {
  int provided;
  MPI_Init_thread(%s, &provided);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  int size = MPI_Comm_size(MPI_COMM_WORLD);
  double u[4];
`, levels[r.Intn(len(levels))])
	for n := 1 + r.Intn(4); n > 0; n-- {
		if r.Intn(2) == 0 {
			v := faults.Variant{ProbeWithRecv: r.Intn(2) == 0}
			if r.Intn(3) == 0 {
				v.SkewUnits = 2000
			}
			fmt.Fprintf(&b, "  {%s  }\n", faults.SnippetVariant(kinds[r.Intn(len(kinds))], v))
			continue
		}
		fmt.Fprintf(&b, "  #pragma omp parallel num_threads(%d)\n  {\n", 2+r.Intn(2))
		for m := 1 + r.Intn(5); m > 0; m-- {
			switch r.Intn(5) {
			case 0:
				b.WriteString("    #pragma omp critical\n    { u[0] = u[0] + 1.0; }\n")
			case 1:
				b.WriteString("    #pragma omp barrier\n")
			case 2:
				fmt.Fprintf(&b, "    u[%d] = u[%d] + omp_get_thread_num();\n", 1+r.Intn(3), 1+r.Intn(3))
			case 3:
				fmt.Fprintf(&b, "    compute(%d);\n", 1+r.Intn(50))
			default:
				b.WriteString("    MPI_Barrier(MPI_COMM_WORLD);\n")
			}
		}
		b.WriteString("  }\n")
	}
	b.WriteString("  MPI_Finalize();\n  return 0;\n}\n")
	return b.String()
}

// TestInPlaceAnalysisMatchesCopyOnRandomPrograms is the chunked
// analysis's property: on random hybrid programs, HOME's check and an
// all-access (ITC-shaped) run, each analyzed in place over the log's
// chunks, report the same races and violations as detect.Analyze and
// spec.Match over a copy of the same log.
func TestInPlaceAnalysisMatchesCopyOnRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	multi := 0
	for i := 0; i < 40; i++ {
		src := randomProgram(r)
		prog, err := minic.Parse(src)
		if err != nil {
			t.Fatalf("program %d: %v\n%s", i, err, src)
		}
		procs, seed := 2+r.Intn(3), r.Int63n(100)

		rep, err := home.CheckProgram(prog, home.Options{Procs: procs, Threads: 2, Seed: seed, Explain: true})
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		want := detect.Analyze(rep.Trace, detect.Options{Explain: true})
		if !reflect.DeepEqual(rep.Races, want.Races) || rep.EventsAnalyzed != want.EventsAnalyzed {
			t.Fatalf("program %d: HOME's in-place races differ from the copy's:\n got %v\nwant %v\n%s", i, rep.Races, want.Races, src)
		}
		if vs := spec.Match(rep.Trace, want); !reflect.DeepEqual(rep.Violations, vs) {
			t.Fatalf("program %d: HOME's in-place violations differ from the copy's:\n got %v\nwant %v\n%s", i, rep.Violations, vs, src)
		}

		log := trace.NewLog()
		interp.Run(prog, interp.Config{
			Procs: procs, Threads: 2, Seed: seed,
			Instrument: func(int) bool { return true }, MonitorAllAccesses: true, Sink: log,
		})
		opts := detect.Options{IgnoreLocks: true, Explain: true}
		chunks := log.Chunks()
		if len(chunks) > 1 {
			multi++
		}
		got := detect.AnalyzeChunks(chunks, opts)
		events := log.Events()
		wantAll := detect.Analyze(events, opts)
		if !reflect.DeepEqual(got, wantAll) {
			t.Fatalf("program %d: the all-access in-place report differs from the copy's:\n got %v\nwant %v\n%s", i, got.Races, wantAll.Races, src)
		}
		if vs, wantVs := spec.MatchChunks(chunks, got), spec.Match(events, wantAll); !reflect.DeepEqual(vs, wantVs) {
			t.Fatalf("program %d: the all-access in-place violations differ from the copy's:\n got %v\nwant %v\n%s", i, vs, wantVs, src)
		}
	}
	if multi < 20 {
		t.Fatalf("only %d of 40 all-access logs crossed a chunk boundary", multi)
	}
}
