package sched

import (
	"bytes"
	"testing"

	"home/internal/chaos"
)

// mutableRecorder builds a recorder with at least two mutation targets
// in every operator family: two same-rank wildcard matches, two lock
// grants, a single election with a free other thread, two arrivals of
// one collective instance, fail records at seq >= 2, sends both clean
// and faulty, and a crashed rank with its failure observations.
func mutableRecorder() *Recorder {
	r := NewRecorder()
	r.SetPlan(chaos.Plan{Seed: 11, CrashRank: 1, CrashAfterCalls: 2})
	r.Record(Record{Kind: chaos.KindSend, Rank: 3, TID: 0, Seq: 1})
	r.Record(Record{Kind: chaos.KindSend, Rank: 3, TID: 1, Seq: 2, Retries: 1, BackoffNs: 500})
	in := observer(r)
	in.ObserveMatch(0, 0, 2, chaos.MsgID{Rank: 2, TID: 0, Seq: 1})
	in.ObserveMatch(0, 0, 5, chaos.MsgID{Rank: 3, TID: 1, Seq: 4})
	in.ObserveLockGrant(0, 0, 7, 1)
	in.ObserveLockGrant(0, 1, 3, 2)
	in.ObserveSingleWin(2, 0, 1)
	in.ObserveCollJoin(0, 0, 9, chaos.CollOrder{Comm: 0, Seq: 1, Ord: 1, NewComm: -1})
	in.ObserveCollJoin(2, 1, 6, chaos.CollOrder{Comm: 0, Seq: 1, Ord: 2, NewComm: -1})
	in.ObserveCrash(1)
	in.ObserveFail(1, 0, 4, 1) // the crashed rank observes itself
	in.ObserveFail(0, 1, 6, 1)
	in.ObserveAbort(1, 0, 5)
	return r
}

// key spells a record key positionally.
func key(kind string, rank, tid int, seq uint64) Key {
	return Key{Kind: kind, Rank: rank, TID: tid, Seq: seq}
}

// oneOfEach returns one valid mutation per operator against the
// mutableRecorder record list.
func oneOfEach() []Mutation {
	return []Mutation{
		{Op: OpFlipMatch, A: key(chaos.KindMatch, 0, 0, 2), B: key(chaos.KindMatch, 0, 0, 5)},
		{Op: OpSwapLocks, A: key(chaos.KindLock, 0, 0, 7), B: key(chaos.KindLock, 0, 1, 3)},
		{Op: OpReassignSingle, A: key(chaos.KindSingle, 2, 0, 1), Arg: 1},
		{Op: OpPermuteColl, A: key(chaos.KindColl, 0, 0, 9), B: key(chaos.KindColl, 2, 1, 6)},
		{Op: OpCrashLater, A: key(chaos.KindFail, 0, 1, 6)},
		{Op: OpCrashLater, A: Key{Kind: chaos.KindCrash, Rank: 1}},
		{Op: OpCrashEarlier, A: key(chaos.KindFail, 0, 1, 6)},
		{Op: OpToggleSend, A: key(chaos.KindSend, 3, 0, 1)},
		{Op: OpToggleSend, A: key(chaos.KindSend, 3, 1, 2)},
	}
}

// TestMutationsRoundTripCodec: every operator's mutant validates,
// serializes through the wire codec, and decodes back to the exact
// record list — mutation never produces an unloadable stream.
func TestMutationsRoundTripCodec(t *testing.T) {
	rec := mutableRecorder()
	_, seed := rec.snapshot()
	plan := chaos.Plan{Seed: 11, CrashRank: 1, CrashAfterCalls: 2}
	for _, m := range oneOfEach() {
		t.Run(m.String(), func(t *testing.T) {
			mutated, err := ApplyMutations(seed, []Mutation{m})
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			if err := ValidateRecords(mutated); err != nil {
				t.Fatalf("mutant fails validation: %v", err)
			}
			data := EncodeRecords(plan, mutated)
			s, err := Read(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("mutant does not decode: %v", err)
			}
			got := s.Records()
			if len(got) != len(mutated) {
				t.Fatalf("round-trip lost records: %d != %d", len(got), len(mutated))
			}
			for i := range got {
				if got[i] != mutated[i] {
					t.Errorf("record %d did not round-trip:\n got %+v\nwant %+v", i, got[i], mutated[i])
				}
			}
			// Serialization is canonical: re-encoding the decoded records
			// reproduces the bytes.
			if again := EncodeRecords(s.Plan(), got); !bytes.Equal(again, data) {
				t.Error("mutant bytes are not canonical")
			}
		})
	}
}

// TestMutationsKeepSeqMonotone: after any mutation, the canonical
// order still walks each thread's schedule points in non-decreasing
// seq with no duplicate keys — the invariant replay's per-thread
// point allocation depends on.
func TestMutationsKeepSeqMonotone(t *testing.T) {
	_, seed := mutableRecorder().snapshot()
	for _, m := range oneOfEach() {
		t.Run(m.String(), func(t *testing.T) {
			mutated, err := ApplyMutations(seed, []Mutation{m})
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			type thread struct{ rank, tid int }
			last := map[thread]uint64{}
			seen := map[Key]struct{}{}
			for _, rec := range mutated {
				if rec.Kind == chaos.KindCrash {
					continue
				}
				k := rec.Key()
				if _, dup := seen[k]; dup {
					t.Fatalf("duplicate key %s", k)
				}
				seen[k] = struct{}{}
				th := thread{rec.Rank, rec.TID}
				if rec.Seq < last[th] {
					t.Fatalf("seq not monotone on p%d.t%d: %d after %d", rec.Rank, rec.TID, rec.Seq, last[th])
				}
				last[th] = rec.Seq
			}
		})
	}
}

// TestMutationsComposeAndMinimize: the whole operator list applies as
// one stack, and dropping any single entry (the delta-debug move)
// still applies cleanly or fails with a typed error — never a panic.
func TestMutationsComposeAndMinimize(t *testing.T) {
	_, seed := mutableRecorder().snapshot()
	muts := []Mutation{
		{Op: OpFlipMatch, A: key(chaos.KindMatch, 0, 0, 2), B: key(chaos.KindMatch, 0, 0, 5)},
		{Op: OpSwapLocks, A: key(chaos.KindLock, 0, 0, 7), B: key(chaos.KindLock, 0, 1, 3)},
		{Op: OpToggleSend, A: key(chaos.KindSend, 3, 0, 1)},
		{Op: OpCrashLater, A: Key{Kind: chaos.KindCrash, Rank: 1}},
	}
	if _, err := ApplyMutations(seed, muts); err != nil {
		t.Fatalf("stack does not apply: %v", err)
	}
	for i := range muts {
		dropped := append(append([]Mutation{}, muts[:i]...), muts[i+1:]...)
		if _, err := ApplyMutations(seed, dropped); err != nil {
			t.Errorf("drop %d: %v", i, err)
		}
	}
}

// TestMutationErrors: structurally invalid edits surface as typed
// errors, not panics or corrupt lists.
func TestMutationErrors(t *testing.T) {
	_, seed := mutableRecorder().snapshot()
	bad := []Mutation{
		{Op: OpFlipMatch, A: key(chaos.KindMatch, 0, 0, 2), B: key(chaos.KindMatch, 0, 0, 2)}, // same record
		{Op: OpFlipMatch, A: key(chaos.KindMatch, 9, 0, 1), B: key(chaos.KindMatch, 0, 0, 5)}, // missing
		{Op: OpSwapLocks, A: key(chaos.KindLock, 0, 0, 7), B: key(chaos.KindMatch, 0, 0, 5)},  // wrong kind
		{Op: OpReassignSingle, A: key(chaos.KindSingle, 2, 0, 1), Arg: 0},                     // own thread
		{Op: OpPermuteColl, A: key(chaos.KindColl, 0, 0, 9), B: key(chaos.KindLock, 0, 1, 3)}, // wrong kind
		{Op: OpCrashLater, A: Key{Kind: chaos.KindCrash, Rank: 7}},                            // no such crash
		{Op: OpCrashEarlier, A: key(chaos.KindFail, 1, 1, 1)},                                 // missing
		{Op: "spin-wildly", A: key(chaos.KindSend, 3, 0, 1)},                                  // unknown op
	}
	for _, m := range bad {
		if _, err := ApplyMutations(seed, []Mutation{m}); err == nil {
			t.Errorf("%s: expected error", m)
		}
	}
	// crash-earlier at seq 1 has no earlier point.
	early := []Record{{Kind: chaos.KindFail, Rank: 0, TID: 0, Seq: 1, Dead1: 2}}
	if _, err := ApplyMutations(early, []Mutation{{Op: OpCrashEarlier, A: key(chaos.KindFail, 0, 0, 1)}}); err == nil {
		t.Error("crash-earlier at seq 1: expected error")
	}
}

// TestCrashLaterRevival: a crash-record target erases the rank's death
// everywhere — crash record, every observation of it, the rank's own
// aborts — and nothing else.
func TestCrashLaterRevival(t *testing.T) {
	_, seed := mutableRecorder().snapshot()
	out, err := ApplyMutations(seed, []Mutation{{Op: OpCrashLater, A: Key{Kind: chaos.KindCrash, Rank: 1}}})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	for _, rec := range out {
		switch {
		case rec.Kind == chaos.KindCrash:
			t.Errorf("crash record survived revival: %+v", rec)
		case rec.Kind == chaos.KindFail && rec.DeadRank() == 1:
			t.Errorf("death observation survived revival: %+v", rec)
		case rec.Kind == chaos.KindAbort && rec.Rank == 1:
			t.Errorf("abort survived revival: %+v", rec)
		}
	}
	if len(out) != len(seed)-4 {
		t.Errorf("revival removed %d records, want 4", len(seed)-len(out))
	}
}

// TestValidateRecordsRejects: the validator refuses the record shapes
// the codec could not faithfully round-trip.
func TestValidateRecordsRejects(t *testing.T) {
	cases := []struct {
		name string
		rec  Record
	}{
		{"unknown kind", Record{Kind: "warp", Rank: 0}},
		{"negative rank", Record{Kind: chaos.KindSend, Rank: -1}},
		{"fail without dead rank", Record{Kind: chaos.KindFail, Rank: 0, Seq: 1}},
		{"match without sender", Record{Kind: chaos.KindMatch, Rank: 0, Seq: 1, SrcSeq: 3}},
		{"coll without ordinal", Record{Kind: chaos.KindColl, Rank: 0, Seq: 1, Comm1: 1, CollSeq: 1}},
		{"lock without ticket", Record{Kind: chaos.KindLock, Rank: 0, Seq: 1}},
		{"inverted chunk", Record{Kind: chaos.KindChunk, Rank: 0, Seq: 1, Base: 5, End: 2}},
		{"negative send retries", Record{Kind: chaos.KindSend, Rank: 0, Seq: 1, Retries: -1}},
	}
	for _, c := range cases {
		if err := ValidateRecords([]Record{c.rec}); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if err := ValidateRecords([]Record{
		{Kind: chaos.KindSend, Rank: 0, Seq: 1},
		{Kind: chaos.KindSend, Rank: 0, Seq: 1},
	}); err == nil {
		t.Error("duplicate keys: expected error")
	}
}

// TestEchoDuplicateCollapse: in echo mode a forced decision can be
// booked by both the echo source and a runtime Observe hook; the
// snapshot collapses the identical duplicates so the realized
// schedule stays loadable.
func TestEchoDuplicateCollapse(t *testing.T) {
	r := NewRecorder()
	observer(r).ObserveMatch(2, 0, 20, chaos.MsgID{Rank: 1, TID: 0, Seq: 3})
	observer(r).ObserveMatch(2, 0, 20, chaos.MsgID{Rank: 1, TID: 0, Seq: 3})
	if r.Len() != 2 {
		t.Fatalf("raw len = %d", r.Len())
	}
	if _, err := r.Schedule(); err != nil {
		t.Fatalf("identical duplicates should collapse: %v", err)
	}
	if got := len(r.Records()); got != 1 {
		t.Errorf("snapshot kept %d records, want 1", got)
	}
	// Same key, different payload: still rejected.
	r2 := NewRecorder()
	observer(r2).ObserveMatch(2, 0, 20, chaos.MsgID{Rank: 1, TID: 0, Seq: 3})
	observer(r2).ObserveMatch(2, 0, 20, chaos.MsgID{Rank: 0, TID: 1, Seq: 5})
	if _, err := r2.Schedule(); err == nil {
		t.Error("conflicting duplicates should be rejected")
	}
}
