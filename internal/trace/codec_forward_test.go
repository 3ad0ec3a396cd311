package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestReadJSONIgnoresUnknownFields pins the codec's forward
// compatibility: a log written by a future version with extra fields
// (top-level or inside the call record) must still decode, with the
// known fields intact. Golden input, not generated, so a regression in
// the wire struct tags shows up as a diff here.
func TestReadJSONIgnoresUnknownFields(t *testing.T) {
	const golden = `{"seq":0,"rank":1,"tid":2,"time":300,"op":"Write","locRank":1,"locName":"tagtmp","futureField":"ignored","nested":{"a":[1,2,3]}}
{"seq":1,"rank":1,"tid":2,"time":310,"op":"MPICall","call":{"kind":"MPI_Recv","peer":0,"tag":7,"comm":0,"request":-1,"level":-1,"win":-1,"line":42,"durationNs":999,"extra":{"x":true}},"schemaVersion":9}
{"seq":2,"rank":0,"tid":0,"time":320,"op":"Barrier","syncRank":0,"syncSeq":4,"annotations":["a","b"]}
`
	events, err := ReadJSON(strings.NewReader(golden))
	if err != nil {
		t.Fatalf("unknown fields must not error: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("decoded %d events, want 3", len(events))
	}
	want0 := Event{Seq: 0, Rank: 1, TID: 2, Time: 300, Op: OpWrite, Name: VarTag}
	if events[0] != want0 {
		t.Errorf("event 0 = %+v, want %+v", events[0], want0)
	}
	wantCall := MPICall{Kind: CallRecv, Peer: 0, Tag: 7, Comm: 0, Request: -1, Level: -1, Win: -1, Line: 42}
	if events[1].Call == nil || *events[1].Call != wantCall {
		t.Errorf("event 1 call = %+v, want %+v", events[1].Call, wantCall)
	}
	want2 := Event{Seq: 2, Rank: 0, TID: 0, Time: 320, Op: OpBarrier, SyncSeq: 4}
	if events[2] != want2 {
		t.Errorf("event 2 = %+v, want %+v", events[2], want2)
	}
}

// randomEvent draws an arbitrary but wire-representable event: its
// location, lock or episode is named within its own rank, as every
// emitter names them.
func randomEvent(r *rand.Rand, seq uint64) Event {
	names := []string{VarSrc, VarTag, VarComm, VarRequest, VarCollective, VarFinalize, "u:grid", "$critical:c1"}
	e := Event{
		Seq:  seq,
		Rank: r.Intn(8),
		TID:  r.Intn(4),
		Time: r.Int63n(1 << 40),
		Op:   Op(r.Intn(len(opNames))),
	}
	switch e.Op {
	case OpRead, OpWrite, OpAcquire, OpRelease:
		e.Name = names[r.Intn(len(names))]
	case OpFork, OpJoin, OpBegin, OpEnd, OpBarrier:
		e.SyncSeq = uint64(r.Intn(1000))
	}
	if e.Op == OpMPICall || r.Intn(4) == 0 {
		e.Call = &MPICall{
			Kind:    CallKind(1 + r.Intn(len(callNames)-1)), // any real kind (CallNone never reaches the log)
			Peer:    r.Intn(10) - 1,
			Tag:     r.Intn(100) - 1,
			Comm:    r.Intn(3) - 1,
			Request: r.Intn(20) - 1,
			Level:   r.Intn(4) - 1,
			Win:     r.Intn(4) - 1,
			Line:    r.Intn(500),
		}
	}
	return e
}

// TestJSONRoundTripRandomized is a property test over the full event
// space: any event the runtime can emit survives encode→decode
// unchanged. Fixed seed keeps it deterministic.
func TestJSONRoundTripRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(40)
		events := make([]Event, n)
		for i := range events {
			events[i] = randomEvent(r, uint64(i))
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, events); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		if len(got) != len(events) {
			t.Fatalf("trial %d: decoded %d events, want %d", trial, len(got), len(events))
		}
		for i := range events {
			if !reflect.DeepEqual(events[i], got[i]) {
				t.Fatalf("trial %d event %d: %s\n got %+v\nwant %+v",
					trial, i, diffHint(events[i], got[i]), got[i], events[i])
			}
		}
	}
}

// TestReadJSONRefusesForeignPayloads pins what the decoder refuses:
// a record whose location, lock or episode is named at another rank
// than its own, or that carries a name its op does not take. An Event
// names its payload within its own rank and holds one name, so such a
// record could not be read back unchanged.
func TestReadJSONRefusesForeignPayloads(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{`{"seq":0,"rank":1,"tid":0,"time":5,"op":"Write","locRank":2,"locName":"x"}`, "locRank 2"},
		{`{"seq":0,"rank":1,"tid":0,"time":5,"op":"Write","locName":"x"}`, "locRank 0"},
		{`{"seq":0,"rank":0,"tid":1,"time":5,"op":"Acquire","lockRank":3,"lockName":"$critical:c"}`, "lockRank 3"},
		{`{"seq":0,"rank":2,"tid":0,"time":5,"op":"Barrier","syncRank":1,"syncSeq":4}`, "syncRank 1"},
		{`{"seq":0,"rank":0,"tid":0,"time":5,"op":"Write","locName":"x","syncRank":2}`, "syncRank 2"},
		{`{"seq":0,"rank":0,"tid":0,"time":5,"op":"Write","locName":"x","lockName":"L"}`, "has a lockName"},
		{`{"seq":0,"rank":0,"tid":0,"time":5,"op":"Release","lockName":"L","locName":"x"}`, "has a locName"},
		{`{"seq":0,"rank":0,"tid":0,"time":5,"op":"Fork","locName":"x","syncSeq":1}`, "has a locName"},
	} {
		valid := `{"seq":0,"rank":0,"tid":0,"time":1,"op":"Read","locName":"y"}` + "\n"
		_, err := ReadJSON(strings.NewReader(valid + tc.line + "\n"))
		if err == nil || !strings.Contains(err.Error(), "event 1") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming event 1 and %q", tc.line, err, tc.want)
		}
	}
}

func diffHint(a, b Event) string {
	if a.Call != nil && b.Call != nil && *a.Call != *b.Call {
		return fmt.Sprintf("call differs: %+v vs %+v", *a.Call, *b.Call)
	}
	return "event differs"
}
