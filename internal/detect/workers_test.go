package detect_test

import (
	"reflect"
	"testing"

	"home"
	"home/internal/detect"
	"home/internal/interp"
	"home/internal/minic"
	"home/internal/npb"
	"home/internal/obs"
	"home/internal/sim"
	"home/internal/trace"
)

// homeLog is the event log of a HOME check of injected BT-MZ at class
// B on 64 procs, the largest npb-check shape.
func homeLog(t *testing.T) [][]trace.Event {
	t.Helper()
	o := npb.PaperInjections(npb.BT)
	o.Class = 'B'
	// Explain keeps the run's event log in rep.Trace.
	rep, err := home.Check(npb.Generate(npb.BT, o).Text, home.Options{Procs: 64, Seed: 1, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	return [][]trace.Event{rep.Trace}
}

// allAccessLog is the log of injected SP-MZ at class A on 32 procs
// with every call site and every user-variable access instrumented,
// the shape of the ITC model's log, in the chunks it was emitted into.
func allAccessLog(t *testing.T) [][]trace.Event {
	t.Helper()
	o := npb.PaperInjections(npb.SP)
	o.Class = 'A'
	prog, err := minic.Parse(npb.Generate(npb.SP, o).Text)
	if err != nil {
		t.Fatal(err)
	}
	log := trace.NewLog()
	res := interp.Run(prog, interp.Config{
		Procs: 32, Threads: 2, Seed: 1, Costs: sim.DefaultCostModel(),
		Instrument: func(int) bool { return true }, Sink: log, MonitorAllAccesses: true,
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	return log.Chunks()
}

// TestReportIndependentOfWorkers pins that the ranks' replays are
// independent: on 1, 2, 3 and 8 workers the report, its captured
// clocks included, and the stats snapshot are the same.
func TestReportIndependentOfWorkers(t *testing.T) {
	logs := []struct {
		name   string
		chunks [][]trace.Event
		opts   detect.Options
	}{
		{"BT-MZ class B, 64 procs, HOME", homeLog(t), detect.Options{Explain: true}},
		{"SP-MZ class A, 32 procs, all accesses", allAccessLog(t), detect.Options{IgnoreLocks: true}},
	}
	for _, l := range logs {
		var want *detect.Report
		var wantStats obs.Snapshot
		for _, w := range []int{1, 2, 3, 8} {
			reg := obs.NewRegistry()
			opts := l.opts
			opts.Stats = reg
			got := detect.AnalyzeChunksOn(l.chunks, opts, w)
			stats := reg.Snapshot()
			if w == 1 {
				if len(got.Races) == 0 {
					t.Fatalf("%s: no race; the comparison is vacuous", l.name)
				}
				want, wantStats = got, stats
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: the report on %d workers differs from the one on 1", l.name, w)
			}
			if !stats.Equal(wantStats) {
				t.Errorf("%s: the stats on %d workers differ from the ones on 1:\n got %v\nwant %v", l.name, w, stats, wantStats)
			}
		}
	}
}
