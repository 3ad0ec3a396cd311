package harness

// Pinned replay golden: a checked-in realized schedule (recorded from
// a crash-stop run of the ConcurrentRecv corpus program) replayed
// against a checked-in verdict. This is the long-term compatibility
// contract of the schedule format — a format or replay-semantics
// change that breaks old recordings fails here, not in a user's bug
// report. testdata/pinned-timeline.json renders the same replay
// (timeline_golden_test.go).
//
// Regenerate deliberately, schedule first, then its timeline:
//
//	go test ./internal/harness -run '^TestPinnedScheduleReplay$' -args -update
//	go test ./internal/harness -run '^TestPinnedTimeline$' -args -update
//
// A bare `-run Pinned -update` also re-records the v2 collective
// goldens (golden_v2_test.go).

import (
	"flag"
	"os"
	"strings"
	"testing"

	"home"
	"home/internal/chaos"
	"home/internal/faults"
	"home/internal/minic"
	"home/internal/spec"
)

var update = flag.Bool("update", false, "rewrite golden files")

const (
	pinnedProg    = "testdata/pinned-prog.c"
	pinnedSched   = "testdata/pinned-sched.jsonl"
	pinnedVerdict = "testdata/pinned-verdict.json"
)

// pinnedOptions are the run parameters the schedule was recorded
// under; replay must use the same ones.
func pinnedOptions() home.Options {
	return home.Options{Procs: 4, Threads: 2, Seed: 3}
}

func regeneratePinned(t *testing.T) {
	t.Helper()
	src := faults.Program(spec.ConcurrentRecvViolation)
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rec := home.NewScheduleRecorder()
	opts := pinnedOptions()
	opts.Chaos = chaos.Crash(3, 1, 1) // perturb + crash-stop rank 1 at its first call
	opts.RecordSchedule = rec
	rep, err := home.CheckProgram(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pinnedProg, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteFile(pinnedSched); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pinnedVerdict, []byte(IdentityOf(rep).String()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPinnedScheduleReplay replays the checked-in schedule against the
// checked-in program and asserts the checked-in verdict, exactly.
func TestPinnedScheduleReplay(t *testing.T) {
	if *update {
		regeneratePinned(t)
	}
	srcBytes, err := os.ReadFile(pinnedProg)
	if err != nil {
		t.Fatalf("golden program (regenerate with -update): %v", err)
	}
	prog, err := minic.Parse(string(srcBytes))
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := home.ReadScheduleFile(pinnedSched)
	if err != nil {
		t.Fatalf("golden schedule: %v", err)
	}
	want, err := os.ReadFile(pinnedVerdict)
	if err != nil {
		t.Fatalf("golden verdict: %v", err)
	}

	opts := pinnedOptions()
	opts.ReplaySchedule = schedule
	rep, err := home.CheckProgram(prog, opts)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	got := IdentityOf(rep).String()
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("replay of the pinned schedule drifted:\ngot:  %s\nwant: %s", got, strings.TrimSpace(string(want)))
	}

	// The verdict must actually carry the crash-stop contract — a
	// drifting regeneration that lost the crash would silently weaken
	// this golden.
	if !rep.Partial || len(rep.DeadRanks) != 1 || rep.DeadRanks[0] != 1 {
		t.Errorf("pinned run lost its crash-stop: partial=%v deadRanks=%v", rep.Partial, rep.DeadRanks)
	}
}
