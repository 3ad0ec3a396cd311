package home

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"home/internal/detect"
	"home/internal/npb"
	"home/internal/obs"
	"home/internal/spec"
	"home/internal/trace"
)

// TestRacePathGolden pins, byte for byte, what detect.Analyze and
// spec.Match make of three fixed event logs: injected LU, BT and SP-MZ
// at class S on 4 procs. Every race shows its lane coordinates, call
// records, times and locksets (as JSON, so an empty one reads []);
// every violation its kind, rank, lines, threads, message and
// evidence. The logs are committed rather than re-run, so the pin
// does not move with the host schedule. `go test -run RacePathGolden -update .` rewrites the
// golden from the logs, and records a log afresh only if its file is
// missing.
//
// Each log is analyzed a second time with Explain on, which snapshots
// the live thread clocks at every kept access. That must not change
// the analysis: the same races, violations and detect.* stats, with
// both clocks captured on every race.
func TestRacePathGolden(t *testing.T) {
	var got strings.Builder
	for _, bench := range npb.All() {
		events := racePathLog(t, bench)
		text, stats, _ := racePathAnalyze(t, bench, events, false)
		got.WriteString(text)
		etext, estats, erep := racePathAnalyze(t, bench, events, true)
		if etext != text {
			t.Errorf("%v: Explain changed the races or violations:\n%s\nwithout Explain:\n%s", bench, etext, text)
		}
		if estats != stats {
			t.Errorf("%v: Explain changed the stats:\n%s\nwithout Explain:\n%s", bench, estats, stats)
		}
		for _, r := range erep.Races {
			if r.First.Clock == nil || r.Second.Clock == nil {
				t.Errorf("%v: Explain left a clock uncaptured on %v", bench, r)
			}
		}
	}
	path := filepath.Join("testdata", "racepath.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("race path output drifted from %s:\ngot:\n%s", path, got.String())
	}

	// An empty report keeps a nil race list: JSON consumers tell null
	// from [].
	if empty := detect.Analyze(nil, detect.Options{}); empty.Races != nil {
		t.Errorf("empty report races = %#v, want nil", empty.Races)
	}
}

// racePathAnalyze renders one analysis of a benchmark's race-path
// log as the golden's text, alongside its stats snapshot and report.
func racePathAnalyze(t *testing.T, bench npb.Benchmark, events []trace.Event, explain bool) (text, stats string, rep *detect.Report) {
	t.Helper()
	reg := obs.NewRegistry()
	rep = detect.Analyze(events, detect.Options{Explain: explain, Stats: reg})
	vs := spec.Match(events, rep)
	var b strings.Builder
	fmt.Fprintf(&b, "== %v: %d events, %d races, %d violations\n", bench, len(events), len(rep.Races), len(vs))
	for _, r := range rep.Races {
		locks, err := json.Marshal([2][]string{r.First.Lockset, r.Second.Lockset})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%v\n  times %d,%d locks %s lockset=%t hb=%t\n",
			r, r.First.Time, r.Second.Time, locks, r.LocksetRace, r.HBRace)
	}
	for _, v := range vs {
		fmt.Fprintf(&b, "violation %v rank %d lines %v threads %v: %s\n  evidence %s\n",
			v.Kind, v.Rank, v.Lines, v.Threads, v.Message, evidenceCoords(v.Evidence))
	}
	snap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b.String(), string(snap), rep
}

// racePathLog reads a benchmark's committed event log, recording it
// first under -update when the file is missing.
func racePathLog(t *testing.T, bench npb.Benchmark) []trace.Event {
	t.Helper()
	path := filepath.Join("testdata", "racepath-"+bench.String()+".jsonl")
	if _, err := os.Stat(path); os.IsNotExist(err) && *update {
		o := npb.PaperInjections(bench)
		o.Class = 'S'
		// Explain keeps the run's event log in rep.Trace.
		rep, err := Check(npb.Generate(bench, o).Text, Options{Procs: 4, Seed: 1, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteJSON(&buf, rep.Trace); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// evidenceCoords renders a violation's evidence by coordinates: the
// race's accesses by lane, or the call sites by rank, thread and log
// sequence.
func evidenceCoords(ev *spec.Evidence) string {
	switch {
	case ev == nil:
		return "none"
	case ev.Race != nil:
		return ev.Race.String()
	}
	var sites []string
	for _, e := range ev.Sites {
		sites = append(sites, fmt.Sprintf("p%d.t%d#%d %s", e.Rank, e.TID, e.Seq, e.Call))
	}
	return "sites " + strings.Join(sites, " ; ")
}
