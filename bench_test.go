package home_test

// Benchmarks regenerating the paper's evaluation, one per table and
// figure. Each reports, besides the usual time/op, the experiment's
// own metrics as custom units (virtual-time overhead percentages,
// detection counts), so `go test -bench` output doubles as the
// numbers recorded in EXPERIMENTS.md.
//
// The workload class and proc range default to the paper's setup
// scaled for a laptop; cmd/homebench exposes the same experiments
// with full knobs.

import (
	"runtime"
	"testing"

	"home"
	"home/internal/baseline"
	"home/internal/detect"
	"home/internal/harness"
	"home/internal/npb"
	"home/internal/spec"
)

// benchCfg is the shared experiment configuration for the benches.
func benchCfg() harness.Config {
	return harness.Config{Class: 'A', Seed: 3, Procs: []int{2, 4, 8, 16, 32, 64}, TableProcs: 4}
}

// BenchmarkTable1 reproduces the detection-accuracy table (paper
// Table I: HOME 6/6/6, ITC 5/7/6, Marmot 5/6/5).
func BenchmarkTable1(b *testing.B) {
	var rows []harness.TableRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.Table1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		name := r.Benchmark.String()
		b.ReportMetric(float64(r.Outcomes[baseline.ToolHOME].Reported), name+"-HOME")
		b.ReportMetric(float64(r.Outcomes[baseline.ToolITC].Reported), name+"-ITC")
		b.ReportMetric(float64(r.Outcomes[baseline.ToolMarmot].Reported), name+"-Marmot")
	}
}

// figureBench runs one execution-time figure and reports the 64-proc
// overheads as metrics.
func figureBench(b *testing.B, bench npb.Benchmark) {
	var fs *harness.FigureSeries
	for i := 0; i < b.N; i++ {
		var err error
		fs, err = harness.Figure(bench, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	maxProcs := 0
	for _, p := range fs.Points {
		if p.Procs > maxProcs {
			maxProcs = p.Procs
		}
	}
	for _, p := range fs.Points {
		if p.Procs == maxProcs && p.Tool != baseline.ToolBase {
			b.ReportMetric(p.OverheadPct, p.Tool.String()+"-ovh64-%")
		}
	}
}

// BenchmarkFig4LU reproduces Figure 4 (LU-MZ execution time,
// Base/HOME/Marmot/ITC over 2..64 procs).
func BenchmarkFig4LU(b *testing.B) { figureBench(b, npb.LU) }

// BenchmarkFig5BT reproduces Figure 5 (BT-MZ execution time).
func BenchmarkFig5BT(b *testing.B) { figureBench(b, npb.BT) }

// BenchmarkFig6SP reproduces Figure 6 (SP-MZ execution time).
func BenchmarkFig6SP(b *testing.B) { figureBench(b, npb.SP) }

// BenchmarkFig7Overhead reproduces Figure 7 (average overhead;
// paper: HOME 16-45%, Marmot 15-56%, ITC up to ~200%). The reported
// metrics are the curve endpoints.
func BenchmarkFig7Overhead(b *testing.B) {
	var pts []harness.OverheadPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = harness.Figure7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	byTool := map[baseline.Tool][]float64{}
	for _, p := range pts {
		byTool[p.Tool] = append(byTool[p.Tool], p.OverheadPct)
	}
	for tool, curve := range byTool {
		b.ReportMetric(curve[0], tool.String()+"-ovh-min-%")
		b.ReportMetric(curve[len(curve)-1], tool.String()+"-ovh-max-%")
	}
}

// BenchmarkAblationStaticFiltering measures the design choice
// DESIGN.md calls out: HOME's selective monitoring vs instrumenting
// every MPI call.
func BenchmarkAblationStaticFiltering(b *testing.B) {
	var pts []harness.AblationPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = harness.Ablation(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.FilteredOverheadPct, "filtered-ovh64-%")
	b.ReportMetric(last.InstrumentAllOverheadPct, "all-ovh64-%")
}

// BenchmarkCheckFigure2 measures the end-to-end checking cost on the
// paper's Figure 2 case study (host time of the whole pipeline).
func BenchmarkCheckFigure2(b *testing.B) {
	src := `
int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  int tag = 0;
  double a[1];
  omp_set_num_threads(2);
  #pragma omp parallel for
  for (int j = 0; j < 2; j++) {
    if (rank == 0) {
      MPI_Send(a, 1, 1, tag, MPI_COMM_WORLD);
      MPI_Recv(a, 1, 1, tag, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
    if (rank == 1) {
      MPI_Recv(a, 1, 0, tag, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Send(a, 1, 0, tag, MPI_COMM_WORLD);
    }
  }
  MPI_Finalize();
  return 0;
}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := home.Check(src, home.Options{Procs: 2, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.HasViolation(home.ConcurrentRecvViolation) {
			b.Fatal("violation missed")
		}
	}
}

// npbRaceLog records the event log of injected BT-MZ at class B on
// 64 procs, the largest npb-check shape: about 21k events, 6k races
// and 1.2k violations.
func npbRaceLog(b *testing.B) []home.TraceEvent {
	b.Helper()
	o := npb.PaperInjections(npb.BT)
	o.Class = 'B'
	// Explain keeps the run's event log in rep.Trace.
	rep, err := home.Check(npb.Generate(npb.BT, o).Text, home.Options{Procs: 64, Seed: 1, Explain: true})
	if err != nil {
		b.Fatal(err)
	}
	return rep.Trace
}

// BenchmarkAnalyzeNPB measures the race detector alone on the
// npb-check log, per event too. Its 64 ranks replay on up to -cpu
// workers.
func BenchmarkAnalyzeNPB(b *testing.B) {
	events := npbRaceLog(b)
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	var rep *detect.Report
	for i := 0; i < b.N; i++ {
		rep = detect.Analyze(events, detect.Options{})
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * len(events))
	b.ReportMetric(float64(len(events)), "events")
	b.ReportMetric(float64(len(rep.Races)), "races")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/event")
}

// BenchmarkMatchNPB measures the specification matcher alone on the
// npb-check log and its race report.
func BenchmarkMatchNPB(b *testing.B) {
	events := npbRaceLog(b)
	rep := detect.Analyze(events, detect.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	var vs []spec.Violation
	for i := 0; i < b.N; i++ {
		vs = spec.Match(events, rep)
	}
	b.ReportMetric(float64(len(vs)), "violations")
}
