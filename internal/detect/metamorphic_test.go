package detect

import (
	"math/rand"
	"testing"

	"home/internal/trace"
)

// randomTrace builds a random but well-formed event log: a fork of
// nThreads, then rounds of accesses where each thread randomly locks,
// accesses shared locations, and occasionally everyone barriers.
func randomTrace(seed int64, nThreads, rounds int, withLocks bool) []trace.Event {
	r := rand.New(rand.NewSource(seed))
	var events []trace.Event
	seq := uint64(0)
	add := func(e trace.Event) {
		e.Seq = seq
		seq++
		events = append(events, e)
	}
	fork := uint64(777)
	add(trace.Event{Rank: 0, TID: 0, Op: trace.OpFork, SyncSeq: fork})
	for tid := 1; tid < nThreads; tid++ {
		add(trace.Event{Rank: 0, TID: tid, Op: trace.OpBegin, SyncSeq: fork})
	}
	locs := []string{"x", "y", "z"}
	for round := 0; round < rounds; round++ {
		// Random interleaving: threads act in shuffled order.
		order := r.Perm(nThreads)
		for _, tid := range order {
			loc := locs[r.Intn(len(locs))]
			op := trace.OpWrite
			if r.Intn(2) == 0 {
				op = trace.OpRead
			}
			if withLocks {
				add(trace.Event{Rank: 0, TID: tid, Op: trace.OpAcquire,
					Name: "G"})
			}
			add(trace.Event{Rank: 0, TID: tid, Op: op, Name: loc})
			if withLocks {
				add(trace.Event{Rank: 0, TID: tid, Op: trace.OpRelease,
					Name: "G"})
			}
		}
		if r.Intn(3) == 0 {
			bar := uint64(round)
			for tid := 0; tid < nThreads; tid++ {
				add(trace.Event{Rank: 0, TID: tid, Op: trace.OpBarrier, SyncSeq: bar})
			}
		}
	}
	return events
}

// TestMetaGlobalLockSilencesEverything: wrapping every access in one
// global lock must eliminate every race the unlocked trace had.
func TestMetaGlobalLockSilencesEverything(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		unlocked := Analyze(randomTrace(seed, 4, 30, false), Options{Mode: ModeCombined})
		locked := Analyze(randomTrace(seed, 4, 30, true), Options{Mode: ModeCombined})
		if len(locked.Races) != 0 {
			t.Fatalf("seed %d: %d races despite a global lock: %v", seed, len(locked.Races), locked.Races[0])
		}
		_ = unlocked // unlocked may or may not race depending on the draw
	}
}

// TestMetaCombinedIsIntersection: the combined mode's races are
// exactly those reported by BOTH single-analysis modes.
func TestMetaCombinedIsIntersection(t *testing.T) {
	type lane struct {
		rank, tid int
		ix        uint64
	}
	type raceKey struct {
		loc           trace.Loc
		first, second lane
	}
	key := func(r Race) raceKey {
		return raceKey{r.Loc,
			lane{r.First.Rank, r.First.TID, r.First.Ix},
			lane{r.Second.Rank, r.Second.TID, r.Second.Ix}}
	}
	for seed := int64(0); seed < 20; seed++ {
		events := randomTrace(seed, 4, 30, false)
		combined := Analyze(events, Options{Mode: ModeCombined, MaxRacesPerLoc: 1 << 20})
		lockset := Analyze(events, Options{Mode: ModeLocksetOnly, MaxRacesPerLoc: 1 << 20})
		hb := Analyze(events, Options{Mode: ModeHappensBeforeOnly, MaxRacesPerLoc: 1 << 20})

		ls := map[raceKey]bool{}
		for _, r := range lockset.Races {
			ls[key(r)] = true
		}
		hbSet := map[raceKey]bool{}
		for _, r := range hb.Races {
			hbSet[key(r)] = true
		}
		want := 0
		for k := range ls {
			if hbSet[k] {
				want++
			}
		}
		if len(combined.Races) != want {
			t.Fatalf("seed %d: combined %d races, intersection %d", seed, len(combined.Races), want)
		}
		for _, r := range combined.Races {
			if !ls[key(r)] || !hbSet[key(r)] {
				t.Fatalf("seed %d: combined race not in both single modes: %v", seed, r)
			}
		}
	}
}

// TestMetaAnalysisDeterministic: identical logs give identical
// reports.
func TestMetaAnalysisDeterministic(t *testing.T) {
	events := randomTrace(5, 6, 40, false)
	a := Analyze(events, Options{Mode: ModeCombined})
	b := Analyze(events, Options{Mode: ModeCombined})
	if len(a.Races) != len(b.Races) {
		t.Fatalf("nondeterministic: %d vs %d races", len(a.Races), len(b.Races))
	}
	for i := range a.Races {
		if a.Races[i].String() != b.Races[i].String() {
			t.Fatalf("race %d differs: %v vs %v", i, a.Races[i], b.Races[i])
		}
	}
}

// TestMetaBarrierEverywhereSilencesEverything: a barrier after every
// round orders all rounds, so only same-round accesses may race; with
// one access per thread per round on DISTINCT locations, no races
// remain.
func TestMetaBarrierEverywhereSilencesEverything(t *testing.T) {
	var events []trace.Event
	seq := uint64(0)
	add := func(e trace.Event) {
		e.Seq = seq
		seq++
		events = append(events, e)
	}
	const nThreads = 4
	fork := uint64(900)
	add(trace.Event{Rank: 0, TID: 0, Op: trace.OpFork, SyncSeq: fork})
	for tid := 1; tid < nThreads; tid++ {
		add(trace.Event{Rank: 0, TID: tid, Op: trace.OpBegin, SyncSeq: fork})
	}
	for round := 0; round < 10; round++ {
		// Every thread writes the SAME location but rounds are
		// barrier-separated and within a round each thread touches its
		// own slot.
		for tid := 0; tid < nThreads; tid++ {
			add(trace.Event{Rank: 0, TID: tid, Op: trace.OpWrite,
				Name: string(rune('a' + tid))})
		}
		bar := uint64(round)
		for tid := 0; tid < nThreads; tid++ {
			add(trace.Event{Rank: 0, TID: tid, Op: trace.OpBarrier, SyncSeq: bar})
		}
	}
	rep := Analyze(events, Options{Mode: ModeCombined})
	if len(rep.Races) != 0 {
		t.Fatalf("races on thread-private slots: %v", rep.Races)
	}
}
