package harness

// Pinned timeline golden: the checked-in ConcurrentRecv crash-stop
// schedule (testdata/pinned-sched.jsonl) replayed and rendered as
// Chrome trace_event timeline JSON must reproduce the checked-in
// artifact byte for byte. This pins the whole explanation pipeline —
// replay determinism, lane assembly, flow-event derivation and witness
// overlay — as one compatibility contract (the `timeline-golden` CI
// step). Regenerate deliberately with
// `go test ./internal/harness -run '^TestPinnedTimeline$' -args -update`
// after the schedule (see golden_test.go).

import (
	"bytes"
	"os"
	"testing"

	"home"
	"home/internal/minic"
)

const pinnedTimeline = "testdata/pinned-timeline.json"

// renderPinnedTimeline replays the pinned schedule with explanation
// enabled and renders the timeline with witness markers overlaid.
func renderPinnedTimeline(t *testing.T) []byte {
	t.Helper()
	srcBytes, err := os.ReadFile(pinnedProg)
	if err != nil {
		t.Fatalf("golden program (regenerate with `-run Pinned -update`): %v", err)
	}
	prog, err := minic.Parse(string(srcBytes))
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := home.ReadScheduleFile(pinnedSched)
	if err != nil {
		t.Fatalf("golden schedule: %v", err)
	}
	opts := pinnedOptions()
	opts.ReplaySchedule = schedule
	opts.Explain = true
	rep, err := home.CheckProgram(prog, opts)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(rep.Trace) == 0 || len(rep.Witnesses) == 0 {
		t.Fatalf("explain replay produced no material: %d events, %d witnesses",
			len(rep.Trace), len(rep.Witnesses))
	}
	tl := home.BuildTimeline(rep.Trace)
	home.OverlayWitnesses(tl, rep.Witnesses)
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPinnedTimeline diffs the rendered timeline against the
// checked-in golden file, byte for byte.
func TestPinnedTimeline(t *testing.T) {
	got := renderPinnedTimeline(t)
	if *update {
		if err := os.WriteFile(pinnedTimeline, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(pinnedTimeline)
	if err != nil {
		t.Fatalf("golden timeline (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("timeline render of the pinned schedule drifted from %s (%d bytes got, %d want)",
			pinnedTimeline, len(got), len(want))
	}
}
