package sched

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"home/internal/chaos"
)

// TestCoverageGolden pins the coverage signature grammar against the
// canonical full-kind schedule (testdata/golden.jsonl). The explorer
// will treat these signatures as stable identities across corpora, so
// a grammar change must be deliberate — regenerate with -update.
func TestCoverageGolden(t *testing.T) {
	s, err := ReadFile(filepath.Join("testdata", "golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cov := s.Coverage()
	got, err := json.MarshalIndent(cov, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "coverage.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("coverage drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestCoverageOf(t *testing.T) {
	recs := []Record{
		{Kind: chaos.KindMatch, Rank: 0, TID: 1, Seq: 2, Src1: 1, STID1: 1, SrcSeq: 1},
		{Kind: chaos.KindPoll, Rank: 1, TID: 0, Seq: 6},
		{Kind: chaos.KindPoll, Rank: 1, TID: 0, Seq: 7, Src1: 3, STID1: 2, SrcSeq: 9},
		{Kind: chaos.KindColl, Rank: 0, TID: 0, Seq: 8, Comm1: 1, CollSeq: 1, Ord: 1},
		{Kind: chaos.KindColl, Rank: 1, TID: 0, Seq: 9, Comm1: 1, CollSeq: 1, Ord: 2},
		{Kind: chaos.KindLock, Rank: 1, TID: 1, Seq: 9, Ticket: 1},
		{Kind: chaos.KindCrash, Rank: 0},
		{Kind: chaos.KindFail, Rank: 0, TID: 0, Seq: 3, Dead1: 1},
		{Kind: chaos.KindAbort, Rank: 1, TID: 1, Seq: 5},
		// Fault decisions carry no coverage.
		{Kind: chaos.KindSend, Rank: 1, TID: 0, Seq: 2, DelayNs: 40},
		{Kind: chaos.KindStall, Rank: 0, TID: 1, Seq: 1, StallNs: 500},
	}
	cov := CoverageOf(recs)
	want := Coverage{
		Matches: []string{
			"p0.t1@2<-p0.t0#1",
			"poll:p1.t0@6",
			"poll:p1.t0@7<-p2.t1#9",
		},
		Collectives: []string{"c0#1[p0.t0:1 p1.t0:2]"},
		LockOrders:  []string{"p1.t1@9=1"},
		CrashPoints: []string{"abort:p1.t1@5", "crash:p0", "fail:p0.t0@3<-p0"},
	}
	if !reflect.DeepEqual(cov, want) {
		t.Errorf("CoverageOf = %+v\nwant %+v", cov, want)
	}
	if cov.Total() != 8 {
		t.Errorf("Total = %d, want 8", cov.Total())
	}
	counts := cov.Counts()
	if counts != (CoverageCounts{Matches: 3, Collectives: 1, LockOrders: 1, CrashPoints: 3}) {
		t.Errorf("Counts = %+v", counts)
	}
	// Duplicate decisions collapse.
	if dup := CoverageOf(append(recs, recs...)); !reflect.DeepEqual(dup, cov) {
		t.Errorf("duplicates changed coverage: %+v", dup)
	}
}

func TestCoverageMerge(t *testing.T) {
	a := Coverage{
		Matches:     []string{"m1", "m2"},
		CrashPoints: []string{"crash:p0"},
	}
	b := Coverage{
		Matches:    []string{"m2", "m3"},
		LockOrders: []string{"l1"},
	}
	got := a.Merge(b)
	want := Coverage{
		Matches:     []string{"m1", "m2", "m3"},
		LockOrders:  []string{"l1"},
		CrashPoints: []string{"crash:p0"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Merge = %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(a.Merge(b), b.Merge(a)) {
		t.Error("Merge not commutative")
	}
	if !reflect.DeepEqual(got.Merge(Coverage{}), got) {
		t.Error("empty Merge not identity")
	}
	c := Coverage{Collectives: []string{"c0#1[x]"}}
	if !reflect.DeepEqual(a.Merge(b).Merge(c), a.Merge(b.Merge(c))) {
		t.Error("Merge not associative")
	}
}

func TestRecorderAndScheduleCoverageAgree(t *testing.T) {
	r := fullRecorder()
	s, err := r.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	rc, sc := r.Coverage(), s.Coverage()
	if !reflect.DeepEqual(rc, sc) {
		t.Errorf("recorder coverage %+v != schedule coverage %+v", rc, sc)
	}
	if rc.Total() == 0 {
		t.Error("full recorder produced empty coverage")
	}
	if len(r.Records()) != r.Len() {
		t.Errorf("Records len %d != Len %d", len(r.Records()), r.Len())
	}
}
