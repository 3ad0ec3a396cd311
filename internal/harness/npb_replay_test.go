package harness

// NPB recording conformance: every schedule recorded from the
// evaluation workloads must decode with its own reader. The NPB-MZ
// programs open several parallel regions per rank, and each region
// forks its workers with fresh contexts; if a worker's schedule-point
// and message counters restarted at every fork, its records from two
// regions would collide on (kind, rank, tid, seq) and sched.Read would
// reject the recording as a duplicate. Skipped under -short, like the
// NPB chaos soak.

import (
	"bytes"
	"testing"
	"time"

	"home"
	"home/internal/chaos"
	"home/internal/explore"
	"home/internal/npb"
	"home/internal/sched"
)

// npbRunTimeout bounds each run. A replay that diverges from its
// recording can wedge, and so, rarely, can a crash-stop recording
// whose deadlock the host-timed watchdog misses; the test must still
// finish.
const npbRunTimeout = 10 * time.Second

// TestNPBRecordingsDecode records LU/BT/SP-MZ at class S on 4 ranks
// under a perturbation and a crash plan for seeds 100–107 (48
// recordings) and fails on any recording its own reader rejects. It
// replays each decoded recording and logs how many replays reproduce
// a different report identity, and how many recording runs wedged;
// those counts are reported, not gated.
func TestNPBRecordingsDecode(t *testing.T) {
	if testing.Short() {
		t.Skip("NPB recording conformance skipped in -short runs")
	}
	n, decoded, wedged, mismatches := 0, 0, 0, 0
	for _, bench := range npb.All() {
		o := npb.PaperInjections(bench)
		o.Class = 'S'
		comp, err := home.Compile(npb.Generate(bench, o).Text)
		if err != nil {
			t.Fatalf("%v: %v", bench, err)
		}
		for seed := int64(100); seed < 108; seed++ {
			for _, plan := range []*chaos.Plan{chaos.Perturb(seed), chaos.Crash(seed, 1, 3)} {
				n++
				rec := home.NewScheduleRecorder()
				opts := home.Options{Procs: 4, Threads: 2, Seed: seed, Chaos: plan, RecordSchedule: rec}
				rep, err, timedOut := explore.CheckCompiledBounded(comp, opts, npbRunTimeout)
				if timedOut {
					t.Logf("%v plan %v: recording run wedged past %v", bench, plan, npbRunTimeout)
					wedged++
					continue
				}
				if err != nil {
					t.Fatalf("%v plan %v: record: %v", bench, plan, err)
				}
				sc, err := sched.Read(bytes.NewReader(rec.Bytes()))
				if err != nil {
					t.Errorf("%v plan %v: recording does not decode: %v", bench, plan, err)
					continue
				}
				decoded++
				opts.Chaos, opts.RecordSchedule, opts.ReplaySchedule = nil, nil, sc
				again, err, timedOut := explore.CheckCompiledBounded(comp, opts, npbRunTimeout)
				if timedOut || err != nil || IdentityOf(again).String() != IdentityOf(rep).String() {
					mismatches++
				}
			}
		}
	}
	t.Logf("NPB class S: %d runs, %d wedged before finishing a recording, %d of the other %d recordings decode; %d replays reproduce a different report identity (reported, not gated)",
		n, wedged, decoded, n-wedged, mismatches)
}
