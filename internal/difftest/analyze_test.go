package difftest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"home/internal/detect"
	"home/internal/explain"
	"home/internal/obs"
	"home/internal/spec"
	"home/internal/trace"
)

// artifacts is everything observable downstream of one offline
// analysis of one event log: the detector report, the matched
// violations, the extracted witnesses, the overlaid timeline export,
// and the stats snapshot.
type artifacts struct {
	report     []byte
	violations []byte
	witnesses  []byte
	timeline   []byte
	stats      []byte
}

type analyzeFunc func([]trace.Event, detect.Options) *detect.Report

// analyzeArtifacts runs the full offline explanation pipeline (the
// hometrace timeline flow) over one analysis of events.
func analyzeArtifacts(t testing.TB, events []trace.Event, analyze analyzeFunc, opts detect.Options) artifacts {
	t.Helper()
	reg := obs.NewRegistry()
	opts.Explain, opts.Stats = true, reg
	rep := analyze(events, opts)
	vs := spec.Match(events, rep)
	ws := explain.Extract(events, rep, vs)
	tl := trace.BuildTimeline(events)
	explain.Overlay(tl, ws)
	var tb bytes.Buffer
	if err := tl.WriteJSON(&tb); err != nil {
		t.Fatalf("timeline: %v", err)
	}
	return artifacts{
		report:     mustJSON(t, rep),
		violations: mustJSON(t, vs),
		witnesses:  mustJSON(t, ws),
		timeline:   tb.Bytes(),
		stats:      mustJSON(t, reg.Snapshot()),
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// referenceConfigs is the option matrix the epoch-class scan must be
// invisible under: every mode, with and without locks, at the default
// bounds and at bounds small enough that corpus locations saturate
// the history window and hit the race cap.
func referenceConfigs() []detect.Options {
	var out []detect.Options
	for _, mode := range []detect.Mode{detect.ModeCombined, detect.ModeLocksetOnly, detect.ModeHappensBeforeOnly} {
		for _, ignore := range []bool{false, true} {
			for _, hist := range []int{0, 3} {
				for _, races := range []int{0, 2} {
					out = append(out, detect.Options{Mode: mode, IgnoreLocks: ignore,
						MaxHistoryPerLoc: hist, MaxRacesPerLoc: races})
				}
			}
		}
	}
	return out
}

func configName(o detect.Options) string {
	return fmt.Sprintf("mode=%v ignoreLocks=%v history=%d races=%d",
		o.Mode, o.IgnoreLocks, o.MaxHistoryPerLoc, o.MaxRacesPerLoc)
}

// matchReference fails t unless detect.Analyze and the exhaustive
// reference scan agree byte for byte on every artifact of events.
func matchReference(t testing.TB, name string, events []trace.Event, opts detect.Options) {
	t.Helper()
	got := analyzeArtifacts(t, events, detect.Analyze, opts)
	want := analyzeArtifacts(t, events, refAnalyze, opts)
	diff := func(what string, g, w []byte) {
		if !bytes.Equal(g, w) {
			t.Fatalf("%s %s: %s diverged from the reference scan:\n got %s\nwant %s",
				name, configName(opts), what, g, w)
		}
	}
	diff("report", got.report, want.report)
	diff("violations", got.violations, want.violations)
	diff("witnesses", got.witnesses, want.witnesses)
	diff("timeline", got.timeline, want.timeline)
	diff("stats", got.stats, want.stats)
}

// TestAnalyzeMatchesReference proves the epoch-class pair scan and the
// rank-parallel replay invisible: for every corpus cell and randomized
// trace, under every option of referenceConfigs, the report,
// violations, witnesses, timeline export and stats equal the
// exhaustive per-pair scan's, which replays every rank on one
// goroutine in one clock space.
func TestAnalyzeMatchesReference(t *testing.T) {
	configs := referenceConfigs()
	for _, c := range corpus(t) {
		for _, opts := range configs {
			matchReference(t, c.name, c.events, opts)
		}
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		data := make([]byte, 2*(50+rng.Intn(400)))
		rng.Read(data)
		events := randomTrace(data, 2)
		for _, opts := range configs {
			matchReference(t, fmt.Sprintf("random-%d", i), events, opts)
		}
	}
	// AnalyzeChunks starts a worker per 4,096 events, up to GOMAXPROCS
	// and the rank count: a trace of 8 ranks and 8,193 to 10,192
	// events at GOMAXPROCS 4 runs on 3 workers, whatever the host has.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	data := make([]byte, 2*(8193+rng.Intn(2000)))
	rng.Read(data)
	events := randomTrace(data, 8)
	for _, opts := range configs {
		matchReference(t, "random-parallel", events, opts)
	}
}

// FuzzAnalyzeMatchesReference checks the epoch-class scan against the
// reference on fuzzed traces; the first byte picks the options. Inputs
// are cut at 1024 events, which keeps each run short and is still far
// past the tiny history bound.
func FuzzAnalyzeMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x01, 0x0b, 0x02, 0x01, 0x00})
	f.Add([]byte{0x1f, 0x28, 0x00, 0x30, 0x01, 0x01, 0x02, 0x09, 0x03, 0x3a, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 1+2*1024 {
			data = data[:1+2*1024]
		}
		configs := referenceConfigs()
		matchReference(t, "fuzz", randomTrace(data[1:], 2), configs[int(data[0])%len(configs)])
	})
}

// randomTrace decodes bytes into an event log, two bytes an event,
// over the given number of ranks (up to 8; bits 2, 6 and 7 of an
// event's first byte pick its rank) of three threads each: accesses
// to three locations (some inside an MPI call), acquires and releases
// of two locks, and fork/begin/end/join and barrier events over four
// sync episodes per rank. Nothing keeps the synchronization well
// nested — the analyzer takes any log.
func randomTrace(data []byte, ranks int) []trace.Event {
	var events []trace.Event
	for i := 0; i+1 < len(data); i += 2 {
		x, y := data[i], data[i+1]
		e := trace.Event{
			Seq:  uint64(len(events)),
			Rank: (int(x>>2)&1 | int(x>>5)&6) % ranks,
			TID:  int(x&3) % 3,
			Time: int64(10 * len(events)),
		}
		switch kind := (x >> 3) % 8; {
		case kind < 5:
			e.Op = trace.OpWrite
			if kind >= 3 {
				e.Op = trace.OpRead
			}
			e.Name = string(rune('a' + y%3))
			if y&0x80 != 0 {
				e.Call = &trace.MPICall{Kind: trace.CallRecv, Peer: 1 - e.Rank, Tag: int(y>>4) & 3, Line: int(y)}
			}
		case kind < 7:
			e.Op = trace.OpAcquire
			if kind == 6 {
				e.Op = trace.OpRelease
			}
			e.Name = string(rune('L' + y%2))
		default:
			e.Op = []trace.Op{trace.OpFork, trace.OpBegin, trace.OpEnd, trace.OpJoin, trace.OpBarrier}[y%5]
			e.SyncSeq = uint64(y>>3) % 4
		}
		events = append(events, e)
	}
	return events
}

// TestSerialAnalyzeIsRepeatable pins the premise the reference
// comparison rests on: the analysis itself is deterministic over
// repeated runs in one process.
func TestSerialAnalyzeIsRepeatable(t *testing.T) {
	for _, c := range corpus(t)[:4] {
		first := analyzeArtifacts(t, c.events, detect.Analyze, detect.Options{})
		again := analyzeArtifacts(t, c.events, detect.Analyze, detect.Options{})
		if !bytes.Equal(first.report, again.report) || !bytes.Equal(first.stats, again.stats) {
			t.Fatalf("%s: analysis not repeatable", c.name)
		}
	}
}
