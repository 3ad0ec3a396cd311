package harness

// Pinned collective replay goldens: a checked-in realized schedule of
// the collective-call corpus program (order families included)
// replayed against checked-in artifacts — the exact identity
// (Makespan included) and the rendered timeline bytes. Regenerate
// deliberately with
// `go test ./internal/harness -run 'PinnedV2|PinnedTimelineV2' -args -update`.

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"home"
	"home/internal/chaos"
	"home/internal/faults"
	"home/internal/minic"
	"home/internal/spec"
)

const (
	pinnedProgV2     = "testdata/pinned-prog-v2.c"
	pinnedSchedV2    = "testdata/pinned-sched-v2.jsonl"
	pinnedVerdictV2  = "testdata/pinned-verdict-v2.json"
	pinnedTimelineV2 = "testdata/pinned-timeline-v2.json"
)

// pinnedProgramV2 parses the checked-in v2 pinned program: the
// collective-call corpus cell, whose concurrent per-thread MPI_Barrier
// calls give the schedule genuinely host-racy collective membership to
// pin.
func pinnedProgramV2(t *testing.T) *minic.Program {
	t.Helper()
	srcBytes, err := os.ReadFile(pinnedProgV2)
	if err != nil {
		t.Fatalf("golden program (regenerate with `-run PinnedV2 -update`): %v", err)
	}
	prog, err := minic.Parse(string(srcBytes))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// regeneratePinnedV2 records the pinned run with the current (v2)
// recorder and rewrites the v2 program, schedule and exact-verdict
// artifacts. The ConcurrentRecv goldens of golden_test.go are left
// untouched.
func regeneratePinnedV2(t *testing.T) {
	t.Helper()
	src := faults.Program(spec.CollectiveCallViolation)
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rec := home.NewScheduleRecorder()
	opts := pinnedOptions()
	opts.Chaos = chaos.Crash(3, 1, 3) // crash rank 1 after its third call: completed and abandoned instances both appear
	opts.RecordSchedule = rec
	rep, err := home.CheckProgram(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pinnedProgV2, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteFile(pinnedSchedV2); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pinnedVerdictV2, []byte(ExactIdentityOf(rep).String()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPinnedV2ScheduleReplay replays the checked-in v2 schedule and
// asserts the checked-in exact identity — Makespan included — byte for
// byte.
func TestPinnedV2ScheduleReplay(t *testing.T) {
	if *update {
		regeneratePinnedV2(t)
	}
	prog := pinnedProgramV2(t)
	schedule, err := home.ReadScheduleFile(pinnedSchedV2)
	if err != nil {
		t.Fatalf("golden schedule (regenerate with `-run PinnedV2 -update`): %v", err)
	}
	want, err := os.ReadFile(pinnedVerdictV2)
	if err != nil {
		t.Fatalf("golden verdict: %v", err)
	}

	opts := pinnedOptions()
	opts.ReplaySchedule = schedule
	rep, err := home.CheckProgram(prog, opts)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	got := ExactIdentityOf(rep).String()
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("exact replay of the pinned v2 schedule drifted:\ngot:  %s\nwant: %s",
			got, strings.TrimSpace(string(want)))
	}
	if !rep.Partial || len(rep.DeadRanks) != 1 || rep.DeadRanks[0] != 1 {
		t.Errorf("pinned v2 run lost its crash-stop: partial=%v deadRanks=%v", rep.Partial, rep.DeadRanks)
	}
}

// TestPinnedTimelineV2 replays the checked-in v2 schedule with
// explanation enabled and diffs the rendered timeline against the
// checked-in bytes: the v2 guarantee extended to every exported event
// timestamp. (Runs under the same CI pattern as TestPinnedTimeline.)
func TestPinnedTimelineV2(t *testing.T) {
	prog := pinnedProgramV2(t)
	schedule, err := home.ReadScheduleFile(pinnedSchedV2)
	if err != nil {
		t.Fatalf("golden schedule (regenerate with `-run 'PinnedV2|PinnedTimelineV2' -update`): %v", err)
	}
	opts := pinnedOptions()
	opts.ReplaySchedule = schedule
	opts.Explain = true
	rep, err := home.CheckProgram(prog, opts)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(rep.Trace) == 0 {
		t.Fatal("explain replay produced no trace")
	}
	tl := home.BuildTimeline(rep.Trace)
	home.OverlayWitnesses(tl, rep.Witnesses)
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if *update {
		if err := os.WriteFile(pinnedTimelineV2, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(pinnedTimelineV2)
	if err != nil {
		t.Fatalf("golden timeline (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("timeline render of the pinned v2 schedule drifted from %s (%d bytes got, %d want)",
			pinnedTimelineV2, len(got), len(want))
	}
}
