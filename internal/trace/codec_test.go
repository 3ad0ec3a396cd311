package trace

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	call := &MPICall{Kind: CallRecv, Peer: 1, Tag: 5, Comm: 0, Request: -1, Level: -1, Line: 12}
	return []Event{
		{Seq: 0, Rank: 0, TID: 0, Time: 100, Op: OpFork, SyncSeq: 1},
		{Seq: 1, Rank: 0, TID: 1, Time: 120, Op: OpBegin, SyncSeq: 1},
		{Seq: 2, Rank: 0, TID: 1, Time: 150, Op: OpAcquire, Name: "$critical:c"},
		{Seq: 3, Rank: 0, TID: 1, Time: 160, Op: OpWrite, Name: VarTag, Call: call},
		{Seq: 4, Rank: 0, TID: 1, Time: 170, Op: OpMPICall, Call: call},
		{Seq: 5, Rank: 0, TID: 1, Time: 180, Op: OpRelease, Name: "$critical:c"},
		{Seq: 6, Rank: 1, TID: 0, Time: 90, Op: OpBarrier, SyncSeq: 2},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		a, b := events[i], got[i]
		if a.Seq != b.Seq || a.Rank != b.Rank || a.TID != b.TID || a.Time != b.Time || a.Op != b.Op {
			t.Fatalf("event %d header mismatch: %+v vs %+v", i, a, b)
		}
		if a.Loc() != b.Loc() || a.Lock() != b.Lock() || a.Sync() != b.Sync() {
			t.Fatalf("event %d payload mismatch: %+v vs %+v", i, a, b)
		}
		if (a.Call == nil) != (b.Call == nil) {
			t.Fatalf("event %d call presence mismatch", i)
		}
		if a.Call != nil && *a.Call != *b.Call {
			t.Fatalf("event %d call mismatch: %+v vs %+v", i, *a.Call, *b.Call)
		}
	}
}

func TestJSONIsLineDelimited(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(sampleEvents()) {
		t.Fatalf("lines = %d", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "{") || !strings.HasSuffix(l, "}") {
			t.Fatalf("not one object per line: %q", l)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"op":"NoSuchOp"}`)); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"op":"MPICall","call":{"kind":"MPI_Nonsense"}}`)); err == nil {
		t.Fatal("unknown call kind accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Fatal("non-JSON accepted")
	}
}

func TestReadJSONEmpty(t *testing.T) {
	events, err := ReadJSON(strings.NewReader(""))
	if err != nil || len(events) != 0 {
		t.Fatalf("events=%v err=%v", events, err)
	}
}

func TestReadJSONTruncatedGolden(t *testing.T) {
	f, err := os.Open("testdata/truncated.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := ReadJSON(f)
	if err == nil {
		t.Fatal("truncated stream decoded without error")
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want errors.Is(_, ErrTruncated)", err)
	}
	var te *TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T, want *TruncatedError", err)
	}
	if te.Events != 2 || len(events) != 2 {
		t.Fatalf("salvaged %d events (reported %d), want 2", len(events), te.Events)
	}
	if events[0].Op != OpFork || events[1].Op != OpWrite {
		t.Fatalf("salvaged prefix mismatch: %+v", events)
	}
	if events[1].Call == nil || events[1].Call.Kind != CallRecv {
		t.Fatalf("salvaged call record mismatch: %+v", events[1].Call)
	}
}

func TestReadJSONTruncatedMidLiteral(t *testing.T) {
	// Cut inside a JSON value (not just mid-object) must also salvage.
	events, err := ReadJSON(strings.NewReader(
		"{\"seq\":0,\"rank\":0,\"tid\":0,\"time\":1,\"op\":\"Fork\"}\n{\"seq\":1,\"ra"))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if len(events) != 1 {
		t.Fatalf("salvaged %d events, want 1", len(events))
	}
}
