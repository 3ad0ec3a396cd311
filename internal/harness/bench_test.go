package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchDeterministic pins the property the committed baseline
// depends on: every gated metric (makespan, events, vc comparisons,
// vc joins) is a deterministic function of the simulation, stable
// across repeated runs on the same host. Wall-clock fields are
// exempt — they are advisory by design.
func TestBenchDeterministic(t *testing.T) {
	cfg := DefaultBenchConfig()
	cfg.Procs = []int{2, 4} // trimmed matrix keeps the test fast
	a, err := RunBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Workloads) != len(b.Workloads) {
		t.Fatalf("workload counts differ: %d vs %d", len(a.Workloads), len(b.Workloads))
	}
	for i := range a.Workloads {
		x, y := a.Workloads[i], b.Workloads[i]
		if x.MakespanNs != y.MakespanNs || x.Events != y.Events ||
			x.VCComparisons != y.VCComparisons || x.VCJoins != y.VCJoins ||
			x.Statements != y.Statements || x.ParallelRegions != y.ParallelRegions ||
			x.Sends != y.Sends || x.CollectiveRounds != y.CollectiveRounds {
			t.Errorf("%s/%d gated metrics differ between runs:\n run1 %+v\n run2 %+v",
				x.Benchmark, x.Procs, x, y)
		}
		if x.VCComparisons == 0 || x.VCJoins == 0 {
			t.Errorf("%s/%d: detector counters empty (%d comparisons, %d joins)",
				x.Benchmark, x.Procs, x.VCComparisons, x.VCJoins)
		}
	}
	if fails := CompareBench(a, b, 0); len(fails) != 0 {
		t.Errorf("identical runs compare unequal at zero tolerance: %v", fails)
	}
}

func TestCompareBenchDetectsRegression(t *testing.T) {
	base := &BenchBaseline{
		Format: BenchFormat, Schema: BenchSchema,
		Workloads: []BenchWorkload{
			{Benchmark: "LU", Procs: 4, MakespanNs: 1000, Events: 500, VCComparisons: 200, VCJoins: 80},
		},
	}
	fresh := &BenchBaseline{
		Format: BenchFormat, Schema: BenchSchema,
		Workloads: []BenchWorkload{
			{Benchmark: "LU", Procs: 4, MakespanNs: 1100, Events: 500, VCComparisons: 200, VCJoins: 80},
		},
	}
	// 10% drift fails a 2% gate and passes a 20% gate.
	if fails := CompareBench(base, fresh, 0.02); len(fails) != 1 || !strings.Contains(fails[0], "makespanNs") {
		t.Errorf("2%% gate: %v", fails)
	}
	if fails := CompareBench(base, fresh, 0.2); len(fails) != 0 {
		t.Errorf("20%% gate: %v", fails)
	}
	// Missing workloads are regressions, not silent passes.
	if fails := CompareBench(base, &BenchBaseline{Format: BenchFormat, Schema: BenchSchema}, 0.2); len(fails) == 0 {
		t.Error("empty fresh measurement compared clean")
	}
	// Wall-clock drift alone never fails.
	fresh.Workloads[0].MakespanNs = 1000
	fresh.Workloads[0].WallNs = 999999999
	if fails := CompareBench(base, fresh, 0); len(fails) != 0 {
		t.Errorf("wall-clock drift gated: %v", fails)
	}
}

// TestCompareBenchGatesRuntimeCountersExactly: one extra statement in
// one row fails the gate at any tolerance, while a schema-2 baseline,
// which records no runtime counters, gates none.
func TestCompareBenchGatesRuntimeCountersExactly(t *testing.T) {
	row := BenchWorkload{Benchmark: "LU-MZ", Procs: 4, MakespanNs: 1000, Events: 500,
		VCComparisons: 200, VCJoins: 80, Statements: 4618, ParallelRegions: 56, Sends: 40, CollectiveRounds: 6}
	base := &BenchBaseline{Format: BenchFormat, Schema: BenchSchema, Workloads: []BenchWorkload{row, row}}
	base.Workloads[1].Procs = 8
	fresh := &BenchBaseline{Format: BenchFormat, Schema: BenchSchema, Workloads: append([]BenchWorkload(nil), base.Workloads...)}
	fresh.Workloads[1].Statements++
	for _, tol := range []float64{0, 0.02, 0.5} {
		fails := CompareBench(base, fresh, tol)
		if len(fails) != 1 || !strings.Contains(fails[0], "LU-MZ/8: interp.statements changed: baseline 4618, fresh 4619") {
			t.Errorf("tolerance %g: %v", tol, fails)
		}
	}
	base.Schema = 2
	if fails := CompareBench(base, fresh, 0); len(fails) != 0 {
		t.Errorf("schema-2 baseline gated a runtime counter: %v", fails)
	}
}

func TestBenchFileRoundTrip(t *testing.T) {
	cfg := DefaultBenchConfig()
	cfg.Procs = []int{2}
	b, err := RunBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteBenchFile(path, b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fails := CompareBench(b, back, 0); len(fails) != 0 {
		t.Errorf("round trip drifted: %v", fails)
	}
	// The header reconstructs the measurement config.
	cfg2 := back.BenchConfig()
	if cfg2.Class != cfg.Class || cfg2.Seed != cfg.Seed || cfg2.Threads != cfg.Threads ||
		len(cfg2.Procs) != 1 || cfg2.Procs[0] != 2 {
		t.Errorf("BenchConfig = %+v, want %+v", cfg2, cfg)
	}
	if _, err := ReadBenchFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("reading a missing baseline succeeded")
	}
	// An older schema spells the counters differently; decoding it
	// would silently zero them, so it must be refused.
	old := filepath.Join(t.TempDir(), "schema1.json")
	if err := os.WriteFile(old, []byte(`{"format":"home-bench","schema":1,"workloads":[{"benchmark":"LU-MZ","procs":2,"vcJoins":84}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchFile(old); err == nil {
		t.Error("reading a schema-1 baseline succeeded")
	}
}

// TestCommittedBaselineWithinTolerance reproduces the repo's
// committed BENCH_NPB.json under its own header config — the same
// check CI's bench-baseline job runs.
func TestCommittedBaselineWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("full baseline matrix in -short mode")
	}
	base, err := ReadBenchFile(filepath.Join("..", "..", "BENCH_NPB.json"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RunBench(base.BenchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fails := CompareBench(base, fresh, 0.02); len(fails) != 0 {
		t.Errorf("committed baseline drifted:\n%s", strings.Join(fails, "\n"))
	}
}
