package detect

import (
	"fmt"
	"runtime"
	"testing"

	"home/internal/trace"
)

// syntheticLog builds a log with nThreads threads doing rounds of
// lock-protected and unprotected accesses plus periodic barriers —
// the event mix the NPB workloads produce.
func syntheticLog(nThreads, rounds int) []trace.Event {
	var events []trace.Event
	seq := uint64(0)
	add := func(e trace.Event) {
		e.Seq = seq
		seq++
		events = append(events, e)
	}
	fork := uint64(999)
	add(trace.Event{Rank: 0, TID: 0, Op: trace.OpFork, SyncSeq: fork})
	for tid := 1; tid < nThreads; tid++ {
		add(trace.Event{Rank: 0, TID: tid, Op: trace.OpBegin, SyncSeq: fork})
	}
	for r := 0; r < rounds; r++ {
		for tid := 0; tid < nThreads; tid++ {
			add(trace.Event{Rank: 0, TID: tid, Op: trace.OpAcquire,
				Name: "L"})
			add(trace.Event{Rank: 0, TID: tid, Op: trace.OpWrite,
				Name: "protected"})
			add(trace.Event{Rank: 0, TID: tid, Op: trace.OpRelease,
				Name: "L"})
			add(trace.Event{Rank: 0, TID: tid, Op: trace.OpWrite,
				Name: trace.VarTag,
				Call: &trace.MPICall{Kind: trace.CallRecv, Peer: 1, Tag: r, Comm: 0}})
		}
		bar := uint64(r)
		for tid := 0; tid < nThreads; tid++ {
			add(trace.Event{Rank: 0, TID: tid, Op: trace.OpBarrier, SyncSeq: bar})
		}
	}
	return events
}

func benchAnalyze(b *testing.B, mode Mode, nThreads, rounds int) {
	events := syntheticLog(nThreads, rounds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(events, Options{Mode: mode})
	}
	b.ReportMetric(float64(len(events)), "events")
}

func BenchmarkAnalyzeCombined(b *testing.B)  { benchAnalyze(b, ModeCombined, 4, 50) }
func BenchmarkAnalyzeLockset(b *testing.B)   { benchAnalyze(b, ModeLocksetOnly, 4, 50) }
func BenchmarkAnalyzeHB(b *testing.B)        { benchAnalyze(b, ModeHappensBeforeOnly, 4, 50) }
func BenchmarkAnalyzeWideTeams(b *testing.B) { benchAnalyze(b, ModeCombined, 16, 20) }

// Width-parameterized variants: clock width (threads interned into
// the slot space) is the packed representation's scaling axis — the
// epoch fast paths must keep the common operations O(1) as teams
// grow, with the O(width) scans confined to genuine contention.
func benchAnalyzeWidth(b *testing.B, nThreads int) {
	// Scale rounds down so total event count stays comparable across
	// widths and the metric isolates per-event cost at each width.
	rounds := 1600 / nThreads
	if rounds < 2 {
		rounds = 2
	}
	benchAnalyze(b, ModeCombined, nThreads, rounds)
}

func BenchmarkAnalyzeWidth8(b *testing.B)   { benchAnalyzeWidth(b, 8) }
func BenchmarkAnalyzeWidth64(b *testing.B)  { benchAnalyzeWidth(b, 64) }
func BenchmarkAnalyzeWidth256(b *testing.B) { benchAnalyzeWidth(b, 256) }

// allAccessLog builds an Intel Thread Checker-shaped log: a few
// threads log every shared access, so each location sees several times
// DefaultMaxHistory accesses and most of the pair scan runs against a
// saturated history window. Barriers are rare, as in a long parallel
// loop, so many pairs stay concurrent.
func allAccessLog(nThreads, rounds int) []trace.Event {
	var events []trace.Event
	add := func(e trace.Event) {
		e.Seq = uint64(len(events))
		events = append(events, e)
	}
	fork := uint64(1 << 20)
	add(trace.Event{Rank: 0, TID: 0, Op: trace.OpFork, SyncSeq: fork})
	for tid := 1; tid < nThreads; tid++ {
		add(trace.Event{Rank: 0, TID: tid, Op: trace.OpBegin, SyncSeq: fork})
	}
	const lock = "$critical:sum"
	for r := 0; r < rounds; r++ {
		for tid := 0; tid < nThreads; tid++ {
			add(trace.Event{Rank: 0, TID: tid, Op: trace.OpRead, Name: "u"})
			add(trace.Event{Rank: 0, TID: tid, Op: trace.OpWrite, Name: fmt.Sprintf("rhs%d", tid%2)})
			add(trace.Event{Rank: 0, TID: tid, Op: trace.OpAcquire, Name: lock})
			add(trace.Event{Rank: 0, TID: tid, Op: trace.OpRead, Name: "sum"})
			add(trace.Event{Rank: 0, TID: tid, Op: trace.OpWrite, Name: "sum"})
			add(trace.Event{Rank: 0, TID: tid, Op: trace.OpRelease, Name: lock})
		}
		if r%64 == 63 {
			bar := uint64(r)
			for tid := 0; tid < nThreads; tid++ {
				add(trace.Event{Rank: 0, TID: tid, Op: trace.OpBarrier, SyncSeq: bar})
			}
		}
	}
	return events
}

// BenchmarkAnalyzeAllAccess is the ITC baseline's analysis: every
// access logged, locks ignored. It reports the bytes the analysis
// allocates per event.
func BenchmarkAnalyzeAllAccess(b *testing.B) {
	events := allAccessLog(4, 1000)
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(events, Options{Mode: ModeCombined, IgnoreLocks: true})
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(len(events)), "events")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*len(events)), "B/event")
}
