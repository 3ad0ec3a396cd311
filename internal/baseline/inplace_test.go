package baseline

import (
	"reflect"
	"runtime"
	"testing"

	"home/internal/detect"
	"home/internal/interp"
	"home/internal/minic"
	"home/internal/npb"
	"home/internal/spec"
	"home/internal/trace"
)

func npbProgram(tb testing.TB, b npb.Benchmark, class npb.Class) *minic.Program {
	tb.Helper()
	o := npb.PaperInjections(b)
	o.Class = class
	prog, err := minic.Parse(npb.Generate(b, o).Text)
	if err != nil {
		tb.Fatalf("%v: %v", b, err)
	}
	return prog
}

// TestInPlaceCheckMatchesCopy pins that the Marmot and ITC models,
// which analyze their log in the chunks it was emitted into, report
// what detect.Analyze and spec.Match report over a copy of the same
// log, on NPB LU/BT/SP class S at 4 procs.
func TestInPlaceCheckMatchesCopy(t *testing.T) {
	opts := Options{Procs: 4, Threads: 2, Seed: 1}
	tools := []struct {
		name   string
		config func(Options, trace.Sink) interp.Config
		check  func([][]trace.Event) (*detect.Report, []spec.Violation)
		copied func([]trace.Event) *detect.Report
	}{
		{"Marmot", marmotConfig, checkMarmot,
			func(events []trace.Event) *detect.Report {
				return filterManifest(detect.Analyze(events, detect.Options{Mode: detect.ModeCombined}), DefaultMarmotOverlapNs)
			}},
		{"ITC", itcConfig, checkITC,
			func(events []trace.Event) *detect.Report {
				return detect.Analyze(events, detect.Options{Mode: detect.ModeCombined, IgnoreLocks: true})
			}},
	}
	for _, b := range npb.All() {
		prog := npbProgram(t, b, 'S')
		for _, tool := range tools {
			log := trace.NewLog()
			if res := interp.Run(prog, tool.config(opts, log)); res.FirstError() != nil {
				t.Fatalf("%v %s: %v", b, tool.name, res.FirstError())
			}
			chunks := log.Chunks()
			if len(chunks) < 2 {
				t.Fatalf("%v %s: %d events fill %d chunk(s); the check must cross a chunk boundary", b, tool.name, log.Len(), len(chunks))
			}
			rep, vs := tool.check(chunks)
			events := log.Events()
			want := tool.copied(events)
			if !reflect.DeepEqual(rep, want) {
				t.Errorf("%v %s: in-place report differs from the copy's:\n got %+v\nwant %+v", b, tool.name, rep, want)
			}
			if wantVs := spec.Match(events, want); !reflect.DeepEqual(vs, wantVs) {
				t.Errorf("%v %s: in-place violations differ from the copy's:\n got %v\nwant %v", b, tool.name, vs, wantVs)
			}
			if len(vs) == 0 {
				t.Errorf("%v %s: no violation found; the comparison is vacuous", b, tool.name)
			}
		}
	}
}

// BenchmarkRunITC is one ITC point of the paper's figures: NPB SP-MZ
// class A at 32 procs, every access logged and analyzed in place. It
// reports the log's events and the bytes and allocations per event.
func BenchmarkRunITC(b *testing.B) {
	prog := npbProgram(b, npb.SP, 'A')
	opts := Options{Procs: 32, Threads: 2, Seed: 1}
	events := 0
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := RunITC(prog, opts)
		for _, err := range res.Errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		events += res.Events
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(events), "B/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(events), "allocs/event")
}
