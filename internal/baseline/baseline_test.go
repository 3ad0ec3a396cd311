package baseline

import (
	"testing"

	"home/internal/detect"
	"home/internal/faults"
	"home/internal/interp"
	"home/internal/minic"
	"home/internal/npb"
	"home/internal/spec"
	"home/internal/trace"
)

func parse(t *testing.T, src string) *minic.Program {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func hasKind(vs []spec.Violation, k spec.Kind) bool {
	for _, v := range vs {
		if v.Kind == k {
			return true
		}
	}
	return false
}

func TestMarmotDetectsManifestedViolation(t *testing.T) {
	prog := parse(t, faults.Program(spec.ConcurrentRecvViolation))
	res := RunMarmot(prog, Options{Procs: 2, Seed: 1})
	if !hasKind(res.Violations, spec.ConcurrentRecvViolation) {
		t.Fatalf("violations = %v", res.Violations)
	}
}

func TestMarmotMissesScheduleSkewedViolation(t *testing.T) {
	// The same concurrent-recv violation, but thread 1 is delayed far
	// beyond the manifest window: logically racy, temporally separate.
	skewed := `int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  int size = MPI_Comm_size(MPI_COMM_WORLD);
` + faults.SnippetVariant(spec.ConcurrentRecvViolation, faults.Variant{SkewUnits: 8000}) + `
  MPI_Finalize();
  return 0;
}`
	prog := parse(t, skewed)
	res := RunMarmot(prog, Options{Procs: 2, Seed: 1})
	if hasKind(res.Violations, spec.ConcurrentRecvViolation) {
		t.Fatalf("Marmot should miss the skewed violation; got %v", res.Violations)
	}
	// Sanity: Marmot's underlying analysis (unfiltered) would have
	// seen it — i.e. the filter, not the instrumentation, drops it.
	log := trace.NewLog()
	interp.Run(prog, marmotConfig(Options{Procs: 2, Seed: 1}, log))
	rep := detect.AnalyzeChunks(log.Chunks(), detect.Options{Mode: detect.ModeCombined})
	if !hasKind(spec.MatchChunks(log.Chunks(), filterManifest(rep, 1<<60)), spec.ConcurrentRecvViolation) {
		t.Fatal("with an infinite window the violation should be visible")
	}
}

func TestITCBlindToProbeOnlyViolation(t *testing.T) {
	prog := parse(t, faults.Program(spec.ProbeViolation)) // probe/probe variant
	res := RunITC(prog, Options{Procs: 2, Seed: 1})
	if hasKind(res.Violations, spec.ProbeViolation) {
		t.Fatalf("ITC should not see probe-only violations; got %v", res.Violations)
	}
}

func TestITCSeesProbeSiteViaRecvRace(t *testing.T) {
	src := `int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  int size = MPI_Comm_size(MPI_COMM_WORLD);
` + faults.SnippetVariant(spec.ProbeViolation, faults.Variant{ProbeWithRecv: true}) + `
  MPI_Finalize();
  return 0;
}`
	prog := parse(t, src)
	res := RunITC(prog, Options{Procs: 2, Seed: 1})
	if !hasKind(res.Violations, spec.ConcurrentRecvViolation) {
		t.Fatalf("ITC should flag the receive race at the probe site; got %v", res.Violations)
	}
}

func TestITCFalsePositiveOnCriticalGuardedCollective(t *testing.T) {
	src := `int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  #pragma omp parallel num_threads(2)
  {
    #pragma omp critical(coll)
    {
      MPI_Barrier(MPI_COMM_WORLD);
    }
  }
  MPI_Finalize();
  return 0;
}`
	prog := parse(t, src)
	itc := RunITC(prog, Options{Procs: 2, Seed: 1})
	if !hasKind(itc.Violations, spec.CollectiveCallViolation) {
		t.Fatalf("lock-ignorant ITC should misreport the benign pattern; got %v", itc.Violations)
	}
	// Marmot, which respects the serialization, stays quiet.
	marmot := RunMarmot(prog, Options{Procs: 2, Seed: 1})
	if hasKind(marmot.Violations, spec.CollectiveCallViolation) {
		t.Fatalf("Marmot should not misreport the benign pattern; got %v", marmot.Violations)
	}
}

func TestToolOverheadOrdering(t *testing.T) {
	// On a realistic workload (plenty of memory traffic) ITC's
	// per-access monitoring dominates Marmot's per-call manager cost.
	prog := parse(t, npb.Generate(npb.LU, npb.Options{Class: 'S'}).Text)
	opts := Options{Procs: 4, Seed: 1}
	base := RunBase(prog, opts)
	marmot := RunMarmot(prog, opts)
	itc := RunITC(prog, opts)
	if base.Makespan >= marmot.Makespan {
		t.Errorf("base %d !< marmot %d", base.Makespan, marmot.Makespan)
	}
	if marmot.Makespan >= itc.Makespan {
		t.Errorf("marmot %d !< itc %d", marmot.Makespan, itc.Makespan)
	}
}

func TestToolStrings(t *testing.T) {
	names := map[Tool]string{ToolBase: "Base", ToolHOME: "HOME", ToolMarmot: "MARMOT", ToolITC: "ITC"}
	for tool, want := range names {
		if tool.String() != want {
			t.Errorf("%d.String() = %q", int(tool), tool.String())
		}
	}
}

func TestMarmotInitAndFinalizeRulesUnaffectedByWindow(t *testing.T) {
	// Rank-level rules (init level, finalize thread) are not
	// race-based, so the manifest filter must not suppress them.
	for _, kind := range []spec.Kind{spec.InitializationViolation, spec.FinalizationViolation} {
		prog := parse(t, faults.Program(kind))
		res := RunMarmot(prog, Options{Procs: 2, Seed: 1})
		if !hasKind(res.Violations, kind) {
			t.Errorf("Marmot missed %v", kind)
		}
	}
}
