package detect

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"home/internal/obs"
	"home/internal/trace"
)

// eb is a tiny event-sequence builder for constructing interleavings.
type eb struct {
	events []trace.Event
	seq    uint64
	sync   uint64
}

func (b *eb) add(e trace.Event) *eb {
	e.Seq = b.seq
	b.seq++
	b.events = append(b.events, e)
	return b
}

func (b *eb) write(rank, tid int, name string) *eb {
	return b.add(trace.Event{Rank: rank, TID: tid, Op: trace.OpWrite,
		Name: name})
}

func (b *eb) read(rank, tid int, name string) *eb {
	return b.add(trace.Event{Rank: rank, TID: tid, Op: trace.OpRead,
		Name: name})
}

func (b *eb) acquire(rank, tid int, lock string) *eb {
	return b.add(trace.Event{Rank: rank, TID: tid, Op: trace.OpAcquire,
		Name: lock})
}

func (b *eb) release(rank, tid int, lock string) *eb {
	return b.add(trace.Event{Rank: rank, TID: tid, Op: trace.OpRelease,
		Name: lock})
}

func (b *eb) newSync(rank int) trace.SyncID {
	b.sync++
	return trace.SyncID{Rank: rank, Seq: b.sync}
}

func (b *eb) op(rank, tid int, op trace.Op, s trace.SyncID) *eb {
	return b.add(trace.Event{Rank: rank, TID: tid, Op: op, SyncSeq: s.Seq})
}

func analyzeDefault(b *eb) *Report {
	return Analyze(b.events, Options{Mode: ModeCombined})
}

func TestUnsynchronizedWritesRace(t *testing.T) {
	b := &eb{}
	s := b.newSync(0)
	b.op(0, 0, trace.OpFork, s)
	b.op(0, 1, trace.OpBegin, s)
	b.write(0, 0, "x")
	b.write(0, 1, "x")
	rep := analyzeDefault(b)
	if !rep.Concurrent(0, "x") {
		t.Fatalf("expected race on x; races: %v", rep.Races)
	}
	r := rep.Races[0]
	if !r.LocksetRace || !r.HBRace {
		t.Fatalf("race flags: %+v", r)
	}
}

func TestReadsAloneDoNotRace(t *testing.T) {
	b := &eb{}
	s := b.newSync(0)
	b.op(0, 0, trace.OpFork, s)
	b.op(0, 1, trace.OpBegin, s)
	b.read(0, 0, "x")
	b.read(0, 1, "x")
	rep := analyzeDefault(b)
	if rep.Concurrent(0, "x") {
		t.Fatalf("read/read should not race: %v", rep.Races)
	}
}

func TestReadWriteConflictRaces(t *testing.T) {
	b := &eb{}
	s := b.newSync(0)
	b.op(0, 0, trace.OpFork, s)
	b.op(0, 1, trace.OpBegin, s)
	b.read(0, 0, "x")
	b.write(0, 1, "x")
	rep := analyzeDefault(b)
	if !rep.Concurrent(0, "x") {
		t.Fatal("read/write conflict should race")
	}
}

func TestSameThreadNeverRaces(t *testing.T) {
	b := &eb{}
	b.write(0, 0, "x").write(0, 0, "x").read(0, 0, "x")
	rep := analyzeDefault(b)
	if len(rep.Races) != 0 {
		t.Fatalf("same-thread accesses raced: %v", rep.Races)
	}
}

func TestDifferentLocationsDoNotRace(t *testing.T) {
	b := &eb{}
	s := b.newSync(0)
	b.op(0, 0, trace.OpFork, s)
	b.op(0, 1, trace.OpBegin, s)
	b.write(0, 0, "x")
	b.write(0, 1, "y")
	rep := analyzeDefault(b)
	if len(rep.Races) != 0 {
		t.Fatalf("distinct locations raced: %v", rep.Races)
	}
}

func TestSameNameDifferentRanksDoNotRace(t *testing.T) {
	// Monitored variables are per-process; srctmp on rank 0 and rank 1
	// are different locations.
	b := &eb{}
	b.write(0, 0, trace.VarSrc)
	b.write(1, 0, trace.VarSrc)
	rep := analyzeDefault(b)
	if len(rep.Races) != 0 {
		t.Fatalf("cross-rank locations raced: %v", rep.Races)
	}
}

func TestCommonLockSuppressesRace(t *testing.T) {
	b := &eb{}
	s := b.newSync(0)
	b.op(0, 0, trace.OpFork, s)
	b.op(0, 1, trace.OpBegin, s)
	b.acquire(0, 0, "L").write(0, 0, "x").release(0, 0, "L")
	b.acquire(0, 1, "L").write(0, 1, "x").release(0, 1, "L")
	rep := analyzeDefault(b)
	if rep.Concurrent(0, "x") {
		t.Fatalf("lock-protected accesses raced: %v", rep.Races)
	}
	// Lockset-only must also be clean.
	ls := Analyze(b.events, Options{Mode: ModeLocksetOnly})
	if ls.Concurrent(0, "x") {
		t.Fatal("lockset analysis ignored the common lock")
	}
}

func TestDisjointLocksStillRace(t *testing.T) {
	b := &eb{}
	s := b.newSync(0)
	b.op(0, 0, trace.OpFork, s)
	b.op(0, 1, trace.OpBegin, s)
	b.acquire(0, 0, "L1").write(0, 0, "x").release(0, 0, "L1")
	b.acquire(0, 1, "L2").write(0, 1, "x").release(0, 1, "L2")
	rep := analyzeDefault(b)
	if !rep.Concurrent(0, "x") {
		t.Fatal("disjoint locks should not protect")
	}
}

func TestForkJoinOrdersParentAndChild(t *testing.T) {
	b := &eb{}
	s := b.newSync(0)
	b.write(0, 0, "x") // parent writes before fork
	b.op(0, 0, trace.OpFork, s)
	b.op(0, 1, trace.OpBegin, s)
	b.write(0, 1, "x") // child write is ordered after parent's
	b.op(0, 1, trace.OpEnd, s)
	b.op(0, 0, trace.OpJoin, s)
	b.write(0, 0, "x") // parent write after join is ordered after child's
	rep := analyzeDefault(b)
	if rep.Concurrent(0, "x") {
		t.Fatalf("fork/join-ordered accesses raced: %v", rep.Races)
	}
}

func TestBarrierOrdersAccesses(t *testing.T) {
	b := &eb{}
	fork := b.newSync(0)
	bar := b.newSync(0)
	b.op(0, 0, trace.OpFork, fork)
	b.op(0, 1, trace.OpBegin, fork)
	b.write(0, 0, "x") // before barrier, thread 0
	b.op(0, 0, trace.OpBarrier, bar)
	b.op(0, 1, trace.OpBarrier, bar)
	b.write(0, 1, "x") // after barrier, thread 1 — ordered
	rep := analyzeDefault(b)
	if rep.Concurrent(0, "x") {
		t.Fatalf("barrier-separated accesses raced: %v", rep.Races)
	}
}

func TestBarrierDoesNotOrderSameSideAccesses(t *testing.T) {
	b := &eb{}
	fork := b.newSync(0)
	bar := b.newSync(0)
	b.op(0, 0, trace.OpFork, fork)
	b.op(0, 1, trace.OpBegin, fork)
	b.write(0, 0, "x") // both before the barrier: still concurrent
	b.write(0, 1, "x")
	b.op(0, 0, trace.OpBarrier, bar)
	b.op(0, 1, trace.OpBarrier, bar)
	rep := analyzeDefault(b)
	if !rep.Concurrent(0, "x") {
		t.Fatal("pre-barrier concurrent writes should race")
	}
}

func TestLockReleaseAcquireCreatesHBEdge(t *testing.T) {
	// Thread 0 writes x under no lock, releases L; thread 1 acquires L
	// then writes x. HB orders them through the lock edge, so combined
	// mode stays quiet even though locksets at the accesses are
	// disjoint... lockset alone WOULD report.
	b := &eb{}
	s := b.newSync(0)
	b.op(0, 0, trace.OpFork, s)
	b.op(0, 1, trace.OpBegin, s)
	b.write(0, 0, "x")
	b.acquire(0, 0, "L").release(0, 0, "L")
	b.acquire(0, 1, "L").release(0, 1, "L")
	b.write(0, 1, "x")
	combined := analyzeDefault(b)
	if combined.Concurrent(0, "x") {
		t.Fatal("combined mode should respect the release->acquire edge")
	}
	ls := Analyze(b.events, Options{Mode: ModeLocksetOnly})
	if !ls.Concurrent(0, "x") {
		t.Fatal("lockset-only mode should report (demonstrates the false positive HB suppresses)")
	}
}

func TestSameNamedLocksOnTwoRanksDoNotOrder(t *testing.T) {
	// A lock is named within its rank: rank 1's L and M are not rank
	// 0's, so the chain p0.t0 -L-> p1.t0 -M-> p0.t1 orders nothing and
	// the two unlocked writes race.
	b := &eb{}
	b.write(0, 0, "v")
	b.acquire(0, 0, "L").release(0, 0, "L")
	b.acquire(1, 0, "L").release(1, 0, "L")
	b.acquire(1, 0, "M").release(1, 0, "M")
	b.acquire(0, 1, "M").release(0, 1, "M")
	b.write(0, 1, "v")
	if rep := analyzeDefault(b); len(rep.Races) != 1 {
		t.Fatalf("want 1 race on v, got %v", rep.Races)
	}
}

func TestIgnoreLocksModelsNaiveTool(t *testing.T) {
	// With IgnoreLocks (the ITC model), critical-section-protected
	// accesses are reported as races: the paper's BT-MZ false
	// positive.
	b := &eb{}
	s := b.newSync(0)
	b.op(0, 0, trace.OpFork, s)
	b.op(0, 1, trace.OpBegin, s)
	b.acquire(0, 0, "$critical:c").write(0, 0, "x").release(0, 0, "$critical:c")
	b.acquire(0, 1, "$critical:c").write(0, 1, "x").release(0, 1, "$critical:c")
	aware := analyzeDefault(b)
	if aware.Concurrent(0, "x") {
		t.Fatal("lock-aware analysis should not report")
	}
	naive := Analyze(b.events, Options{Mode: ModeCombined, IgnoreLocks: true})
	if !naive.Concurrent(0, "x") {
		t.Fatal("lock-ignorant analysis should report the false positive")
	}
}

func TestCallRecordAttachedToRace(t *testing.T) {
	call1 := &trace.MPICall{Kind: trace.CallRecv, Peer: 1, Tag: 0, Comm: 0, Line: 10}
	call2 := &trace.MPICall{Kind: trace.CallRecv, Peer: 1, Tag: 0, Comm: 0, Line: 12}
	b := &eb{}
	s := b.newSync(0)
	b.op(0, 0, trace.OpFork, s)
	b.op(0, 1, trace.OpBegin, s)
	b.add(trace.Event{Rank: 0, TID: 0, Op: trace.OpWrite,
		Name: trace.VarTag, Call: call1})
	b.add(trace.Event{Rank: 0, TID: 1, Op: trace.OpWrite,
		Name: trace.VarTag, Call: call2})
	races := analyzeDefault(b).Races
	if len(races) != 1 || races[0].Loc != (trace.Loc{Rank: 0, Name: trace.VarTag}) {
		t.Fatalf("races = %v", races)
	}
	if races[0].First.Call != call1 || races[0].Second.Call != call2 {
		t.Fatalf("call records not attached: %+v", races[0])
	}
}

func TestRaceCapRespected(t *testing.T) {
	b := &eb{}
	s := b.newSync(0)
	b.op(0, 0, trace.OpFork, s)
	b.op(0, 1, trace.OpBegin, s)
	for i := 0; i < 50; i++ {
		b.write(0, 0, "x")
		b.write(0, 1, "x")
	}
	rep := Analyze(b.events, Options{Mode: ModeCombined, MaxRacesPerLoc: 5})
	if len(rep.Races) > 5 {
		t.Fatalf("cap exceeded: %d races", len(rep.Races))
	}
	if len(rep.Races) == 0 {
		t.Fatal("expected some races under the cap")
	}
}

// TestAnalyzeAllocsIndependentOfLogLength pins the retention bound:
// an access past its location's history window is counted and
// dropped, so doubling the log does not change what Analyze allocates.
func TestAnalyzeAllocsIndependentOfLogLength(t *testing.T) {
	logOf := func(n int) []trace.Event {
		b := &eb{}
		s := b.newSync(0)
		b.op(0, 0, trace.OpFork, s)
		b.op(0, 1, trace.OpBegin, s)
		for i := 0; i < n/2; i++ {
			b.write(0, 0, "x")
			b.read(0, 1, "x")
		}
		return b.events
	}
	short, long := logOf(10000), logOf(20000)
	for _, explain := range []bool{false, true} {
		opts := Options{Mode: ModeCombined, MaxHistoryPerLoc: 8, Explain: explain}
		allocs := func(events []trace.Event) float64 {
			return testing.AllocsPerRun(5, func() { Analyze(events, opts) })
		}
		if a, b := allocs(short), allocs(long); a != b {
			t.Errorf("Explain=%v: %v allocs for 10k accesses, %v for 20k", explain, a, b)
		}
	}
}

// TestWindowDroppedCounted pins detect.window_dropped: every access
// past its location's history window is one drop.
func TestWindowDroppedCounted(t *testing.T) {
	b := &eb{}
	for i := 0; i < 20; i++ {
		b.write(0, 0, "x")
	}
	reg := obs.NewRegistry()
	Analyze(b.events, Options{Mode: ModeCombined, MaxHistoryPerLoc: 8, Stats: reg})
	if got := reg.Snapshot().Get("detect.window_dropped"); got != 12 {
		t.Fatalf("detect.window_dropped = %d, want 12", got)
	}
}

func TestHappensBeforeOnlyMissesUnmanifestedScheduleRace(t *testing.T) {
	// The paper's Marmot critique: a race serialized by the observed
	// schedule's lock edge is invisible to HB-only analysis but caught
	// by lockset. (Same trace as TestLockReleaseAcquireCreatesHBEdge.)
	b := &eb{}
	s := b.newSync(0)
	b.op(0, 0, trace.OpFork, s)
	b.op(0, 1, trace.OpBegin, s)
	b.write(0, 0, "x")
	b.acquire(0, 0, "L").release(0, 0, "L")
	b.acquire(0, 1, "L").release(0, 1, "L")
	b.write(0, 1, "x")
	hb := Analyze(b.events, Options{Mode: ModeHappensBeforeOnly})
	if hb.Concurrent(0, "x") {
		t.Fatal("HB-only should not report the schedule-ordered pair")
	}
}

func TestEmptyLog(t *testing.T) {
	rep := Analyze(nil, Options{})
	if len(rep.Races) != 0 || rep.EventsAnalyzed != 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

func TestMultiRankAnalysisIndependent(t *testing.T) {
	// Races on rank 0 must not contaminate rank 1 and vice versa.
	b := &eb{}
	s0 := b.newSync(0)
	b.op(0, 0, trace.OpFork, s0)
	b.op(0, 1, trace.OpBegin, s0)
	b.write(0, 0, trace.VarSrc)
	b.write(0, 1, trace.VarSrc)
	// Rank 1: properly locked.
	s1 := b.newSync(1)
	b.op(1, 0, trace.OpFork, s1)
	b.op(1, 1, trace.OpBegin, s1)
	b.acquire(1, 0, "L").write(1, 0, trace.VarSrc).release(1, 0, "L")
	b.acquire(1, 1, "L").write(1, 1, trace.VarSrc).release(1, 1, "L")
	rep := analyzeDefault(b)
	if !rep.Concurrent(0, trace.VarSrc) {
		t.Fatal("rank 0 race missed")
	}
	if rep.Concurrent(1, trace.VarSrc) {
		t.Fatal("rank 1 false positive")
	}
}

// TestRanksAndThreadsOutsideTables pins that rank and thread numbers a
// hand-written log may carry — negative, or past the log's length or
// any team's size — replay like any other, on any worker count: each
// rank's three unordered writes race pairwise, and the barrier orders
// the write after it.
func TestRanksAndThreadsOutsideTables(t *testing.T) {
	b := &eb{}
	ranks := []int{-1, 0, 1 << 40}
	tids := []int{-3, 0, 1 << 20}
	for _, rank := range ranks {
		for _, tid := range tids {
			b.write(rank, tid, "x")
		}
		s := b.newSync(rank)
		for _, tid := range tids {
			b.op(rank, tid, trace.OpBarrier, s)
		}
		b.write(rank, 0, "x")
	}
	for _, w := range []int{1, 2, 3} {
		rep := analyzeChunks([][]trace.Event{b.events}, Options{}, w)
		if len(rep.Races) != 9 {
			t.Fatalf("%d workers: %d races, want 9: %v", w, len(rep.Races), rep.Races)
		}
		for i, r := range rep.Races {
			if r.Loc.Rank != ranks[i/3] {
				t.Errorf("%d workers: race %d is on rank %d, want %d", w, i, r.Loc.Rank, ranks[i/3])
			}
			if r.First.Ix != 0 || r.Second.Ix != 0 {
				t.Errorf("%d workers: %v names an access after the barrier", w, r)
			}
		}
	}
}

// TestRaceOutputIndependentOfInterleaving analyzes two global
// interleavings of one racy trace. Both keep every lane's program
// order and the same fork causality; only the global order of the
// racing lanes — and hence every event's log Seq — differs. The
// rendered race lists must be byte-identical, in identical order.
func TestRaceOutputIndependentOfInterleaving(t *testing.T) {
	interleave := func(reverse bool) []trace.Event {
		b := &eb{}
		type lane struct {
			rank, tid int
			evs       []trace.Event
		}
		var lanes []lane
		for rank := 0; rank < 2; rank++ {
			s := b.newSync(rank)
			b.op(rank, 0, trace.OpFork, s)
			b.op(rank, 1, trace.OpBegin, s)
			for tid := 0; tid < 2; tid++ {
				l := lane{rank: rank, tid: tid}
				for i := 0; i < 3; i++ {
					op := trace.OpWrite
					if (tid+i)%2 == 1 {
						op = trace.OpRead
					}
					call := &trace.MPICall{Kind: trace.CallRecv, Peer: 1 - rank, Tag: i, Line: 10*tid + i}
					for _, name := range []string{trace.VarSrc, trace.VarTag} {
						l.evs = append(l.evs, trace.Event{Rank: rank, TID: tid, Op: op,
							Name: name, Call: call})
					}
				}
				lanes = append(lanes, l)
			}
		}
		if reverse {
			for i, j := 0, len(lanes)-1; i < j; i, j = i+1, j-1 {
				lanes[i], lanes[j] = lanes[j], lanes[i]
			}
		}
		for i := range lanes[0].evs {
			for _, l := range lanes {
				b.add(l.evs[i])
			}
		}
		return b.events
	}
	render := func(rep *Report) []string {
		var out []string
		for _, r := range rep.Races {
			out = append(out, r.String())
		}
		return out
	}
	a := render(Analyze(interleave(false), Options{Mode: ModeCombined}))
	b := render(Analyze(interleave(true), Options{Mode: ModeCombined}))
	if len(a) == 0 {
		t.Fatal("the trace is meant to race")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("race output depends on the interleaving:\n%s\n--- vs ---\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
}

func TestParseMode(t *testing.T) {
	for name, want := range map[string]Mode{
		"":         ModeCombined,
		"combined": ModeCombined,
		"lockset":  ModeLocksetOnly,
		"hb":       ModeHappensBeforeOnly,
	} {
		if got, ok := ParseMode(name); !ok || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, true", name, got, ok, want)
		}
	}
	for _, name := range []string{"Combined", "happens-before", "both"} {
		if _, ok := ParseMode(name); ok {
			t.Errorf("ParseMode(%q) accepted an unknown mode", name)
		}
	}
}

// TestAccessRecSize pins the history-window record at no more than 48
// bytes: ITC's all-access runs keep up to MaxHistoryPerLoc of them per
// location.
func TestAccessRecSize(t *testing.T) {
	if got := unsafe.Sizeof(accessRec{}); got > 48 {
		t.Fatalf("accessRec is %d bytes, want at most 48", got)
	}
}

// TestAnalyzeChunksMatchesAnalyze pins that where the log is cut into
// chunks does not change the report: a race side and a barrier
// episode may straddle a cut.
func TestAnalyzeChunksMatchesAnalyze(t *testing.T) {
	for _, events := range [][]trace.Event{syntheticLog(4, 50), allAccessLog(3, 200)} {
		for _, opts := range []Options{{}, {IgnoreLocks: true, MaxHistoryPerLoc: 8}, {Mode: ModeLocksetOnly, Explain: true}} {
			want := Analyze(events, opts)
			for _, size := range []int{1, 7, 64, len(events) - 1} {
				var chunks [][]trace.Event
				for rest := events; len(rest) > 0; rest = rest[min(size, len(rest)):] {
					chunks = append(chunks, rest[:min(size, len(rest))])
				}
				if got := AnalyzeChunks(chunks, opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d events in chunks of %d, %+v: report differs from Analyze's", len(events), size, opts)
				}
			}
		}
	}
}
