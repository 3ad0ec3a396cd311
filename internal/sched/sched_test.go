package sched

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"home/internal/chaos"
)

// fullRecorder builds a recorder exercising every record kind, with
// payload values chosen to stress the 1-based encodings (rank 0, tid 0
// must survive omitempty). Decisions with a typed Observe helper go
// through the injector, the one encoder the runtime uses; send, stall
// and RMA records are realized by the injector's seed rolls, so they
// are written directly.
func fullRecorder() *Recorder {
	r := NewRecorder()
	r.SetPlan(chaos.Plan{Seed: 7, DelayProb: 0.5, MaxDelayNs: 1000, CrashRank: 1, CrashAfterCalls: 3})
	r.Record(Record{Kind: chaos.KindSend, Rank: 1, TID: 0, Seq: 2, DelayNs: 40, Reorder: true, Retries: 2, BackoffNs: 10, JitterNs: int64(3 * time.Millisecond)})
	r.Record(Record{Kind: chaos.KindStall, Rank: 0, TID: 1, Seq: 1, StallNs: 500, StallWallNs: int64(time.Millisecond)})
	r.Record(Record{Kind: chaos.KindRMA, Rank: 2, TID: 1, Seq: 4, DelayNs: 77})
	in := observer(r)
	in.ObserveFail(0, 0, 3, 0) // observes rank 0's failure: Dead1 encoding
	in.ObserveAbort(1, 1, 5)
	in.ObserveMatch(0, 1, 2, chaos.MsgID{Rank: 0, TID: 0, Seq: 1}) // rank 0, tid 0 sender
	in.ObservePoll(1, 0, 6, chaos.MsgID{})                         // bare completion poll
	in.ObservePoll(1, 0, 7, chaos.MsgID{Rank: 2, TID: 1, Seq: 9})
	in.ObserveCrash(0)
	// Order families. Comm 0 (the world) must survive the 1-based
	// encoding; NewComm -1 (not a Comm_dup) must stay absent.
	in.ObserveCollJoin(0, 0, 8, chaos.CollOrder{Comm: 0, Seq: 1, Ord: 1, NewComm: -1})
	in.ObserveCollJoin(2, 0, 8, chaos.CollOrder{Comm: 1, Seq: 3, Ord: 2, NewComm: 2})
	in.ObserveLockGrant(1, 1, 9, 1)
	in.ObserveSingleWin(0, 1, 4)
	in.ObserveChunk(2, 2, 1<<20, 10, 20)
	return r
}

// observer returns an injector recording into r, so tests encode
// decisions through the same Observe helpers the runtime uses.
func observer(r *Recorder) *chaos.Injector {
	in := chaos.New(&chaos.Plan{}, nil)
	in.SetRecorder(r)
	return in
}

// replayer returns an injector replaying s, so tests decode records
// through the same Replay helpers the runtime uses.
func replayer(s chaos.Source) *chaos.Injector {
	in := chaos.New(&chaos.Plan{}, nil)
	in.SetSource(s)
	return in
}

func TestScheduleRoundTrip(t *testing.T) {
	rec := fullRecorder()
	s, err := Read(bytes.NewReader(rec.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got := s.Plan(); got.Seed != 7 || got.DelayProb != 0.5 || got.CrashRank != 1 || got.CrashAfterCalls != 3 {
		t.Errorf("plan did not round-trip: %+v", got)
	}
	if s.Len() != rec.Len() {
		t.Errorf("len = %d, recorded %d", s.Len(), rec.Len())
	}
	in := replayer(s)

	if f := in.SendFault(1, 0, 2); f.DelayNs != 40 || !f.Reorder || f.Retries != 2 || f.BackoffNs != 10 {
		t.Errorf("send fault = %+v", f)
	} else if f.JitterWall != 0 {
		// Wall-clock payloads are recorded for diagnosis but never
		// re-applied: replay forces the race the jitter provoked.
		t.Errorf("replayed send re-applies wall jitter: %v", f.JitterWall)
	}
	if st, ok := in.StallAt(0, 1, 1); !ok || st.VirtualNs != 500 || st.Wall != 0 {
		t.Errorf("stall = %+v, %v", st, ok)
	}
	if d, ok := in.RMADelay(2, 1, 4); !ok || d != 77 {
		t.Errorf("rma delay = %d, %v", d, ok)
	}
	if dead, ok := in.ReplayFail(0, 0, 3); !ok || dead != 0 {
		t.Errorf("fail = %d, %v (rank 0 must survive the 1-based encoding)", dead, ok)
	}
	if !in.ReplayAbort(1, 1, 5) {
		t.Error("abort record missing")
	}
	if m, ok := in.ReplayMatch(0, 1, 2); !ok || (m != chaos.MsgID{Rank: 0, TID: 0, Seq: 1}) {
		t.Errorf("match = %+v, %v (rank 0/tid 0 sender must survive)", m, ok)
	}
	if m, ok := in.ReplayPoll(1, 0, 6); !ok || !m.Zero() {
		t.Errorf("bare poll = %+v, %v", m, ok)
	}
	if m, ok := in.ReplayPoll(1, 0, 7); !ok || (m != chaos.MsgID{Rank: 2, TID: 1, Seq: 9}) {
		t.Errorf("identified poll = %+v, %v", m, ok)
	}
	if got := in.ReplayCrashes(); len(got) != 1 || got[0] != 0 {
		t.Errorf("crashes = %v", got)
	}

	// Order families.
	if o, ok := in.ReplayCollJoin(0, 0, 8); !ok || o.Comm != 0 || o.Seq != 1 || o.Ord != 1 || o.NewComm != -1 {
		t.Errorf("coll join = %+v, %v (comm 0 must survive, NewComm must decode -1)", o, ok)
	}
	if o, ok := in.ReplayCollJoin(2, 0, 8); !ok || o.Comm != 1 || o.Seq != 3 || o.Ord != 2 || o.NewComm != 2 {
		t.Errorf("comm-dup join = %+v, %v", o, ok)
	}
	if tk, ok := in.ReplayLockGrant(1, 1, 9); !ok || tk != 1 {
		t.Errorf("lock grant = %d, %v", tk, ok)
	}
	if !in.ReplaySingleWin(0, 1, 4) {
		t.Error("single win record missing")
	}
	if b, e, ok := in.ReplayChunk(2, 2, 1<<20); !ok || b != 10 || e != 20 {
		t.Errorf("chunk = [%d,%d), %v", b, e, ok)
	}
	if got := s.OrderForced(); got != 5 {
		t.Errorf("OrderForced = %d after 5 order lookups", got)
	}

	// Absent points: no fault, no failure, no match.
	if f := in.SendFault(1, 0, 99); f != (chaos.SendFault{}) {
		t.Errorf("phantom send fault %+v", f)
	}
	if _, ok := in.ReplayFail(3, 3, 3); ok {
		t.Error("phantom failure")
	}
	if in.ReplayAbort(0, 0, 1) {
		t.Error("phantom abort")
	}
	if in.ReplaySingleWin(3, 0, 4) {
		t.Error("phantom single win")
	}
	if _, _, ok := in.ReplayChunk(2, 2, 1<<20|1); ok {
		t.Error("phantom chunk (claim index 1 was never recorded)")
	}
	// A record answers only its own kind.
	if _, ok := s.Lookup(chaos.KindMatch, 1, 1, 5); ok {
		t.Error("abort record answered a match lookup")
	}
}

// TestScheduleBytesCanonical pins that serialization is independent of
// the host interleaving the records arrived in: the same decisions
// added in reverse order serialize byte-identically.
func TestScheduleBytesCanonical(t *testing.T) {
	a := fullRecorder()

	b := NewRecorder()
	b.SetPlan(a.plan)
	for i := len(a.recs) - 1; i >= 0; i-- {
		b.Record(a.recs[i])
	}

	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("serialization is order-dependent:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}

func TestReadTruncatedSalvagesPrefix(t *testing.T) {
	full := fullRecorder().Bytes()
	// Cut mid-way through the final record.
	cut := full[:len(full)-5]
	s, err := Read(bytes.NewReader(cut))
	if err == nil {
		t.Fatal("truncated stream read without error")
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	var te *TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T, want *TruncatedError", err)
	}
	if s == nil {
		t.Fatal("no salvaged schedule returned")
	}
	if te.Records != s.Len() {
		t.Errorf("TruncatedError.Records = %d, schedule has %d", te.Records, s.Len())
	}
	if s.Len() != 13 { // 14 records, the trailing chunk record cut
		t.Errorf("salvaged %d records, want 13", s.Len())
	}
	// The salvaged prefix still replays: canonical order puts
	// (rank 0, tid 1, seq 1) first.
	in := replayer(s)
	if st, ok := in.StallAt(0, 1, 1); !ok || st.VirtualNs != 500 {
		t.Errorf("salvaged stall = %+v, %v", st, ok)
	}
	// Order records inside the salvaged prefix still force.
	if o, ok := in.ReplayCollJoin(0, 0, 8); !ok || o.Ord != 1 {
		t.Errorf("salvaged coll join = %+v, %v", o, ok)
	}
	if tk, ok := in.ReplayLockGrant(1, 1, 9); !ok || tk != 1 {
		t.Errorf("salvaged lock grant = %d, %v", tk, ok)
	}
	// The cut record is absent — meaningful absence, not an error.
	if _, _, ok := in.ReplayChunk(2, 2, 1<<20); ok {
		t.Error("cut chunk record resurfaced")
	}
}

func TestReadHeaderErrors(t *testing.T) {
	// Empty stream: cut before the header is complete. No plan means
	// no salvageable prefix, so this is hard, not ErrTruncated — the
	// salvage contract guarantees TruncatedError carries a schedule.
	if _, err := Read(bytes.NewReader(nil)); err == nil || errors.Is(err, ErrTruncated) {
		t.Errorf("empty stream err = %v, want hard header error", err)
	}
	// Wrong format string.
	if _, err := Read(strings.NewReader(`{"format":"home-trace","version":1}` + "\n")); err == nil || errors.Is(err, ErrTruncated) {
		t.Errorf("foreign format err = %v", err)
	}
	// Newer version than this reader supports.
	if _, err := Read(strings.NewReader(`{"format":"home-sched","version":99}` + "\n")); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Errorf("newer version err = %v", err)
	}
	// Garbage header.
	if _, err := Read(strings.NewReader("not json\n")); err == nil || errors.Is(err, ErrTruncated) {
		t.Errorf("garbage header err = %v", err)
	}
}

func TestReadRejectsDuplicateKeys(t *testing.T) {
	// The recorder collapses identical duplicates (echo mode books a
	// forced decision twice), so build the corrupt stream directly.
	data := EncodeRecords(chaos.Plan{Seed: 1}, []Record{
		{Kind: chaos.KindAbort, Rank: 0, TID: 0, Seq: 1},
		{Kind: chaos.KindAbort, Rank: 0, TID: 0, Seq: 1},
	})
	if _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("err = %v, want duplicate-record rejection", err)
	}
}

// TestRecorderScheduleUsesCodec pins that the in-memory conversion
// goes through the wire format (so every replay exercises the codec).
func TestRecorderScheduleUsesCodec(t *testing.T) {
	rec := fullRecorder()
	s, err := rec.Schedule()
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	viaWire, err := Read(bytes.NewReader(rec.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if s.Len() != viaWire.Len() || len(s.Crashes()) != len(viaWire.Crashes()) {
		t.Errorf("in-memory schedule differs from wire round trip")
	}
}

func TestWriteStreams(t *testing.T) {
	rec := fullRecorder()
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), rec.Bytes()) {
		t.Error("Write and Bytes disagree")
	}
	// First line is the versioned header.
	line, err := bytes.NewBuffer(buf.Bytes()).ReadString('\n')
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !strings.Contains(line, `"format":"home-sched"`) || !strings.Contains(line, `"version":2`) {
		t.Errorf("header line = %s", line)
	}
}

// TestV1StreamRejected pins that version-1 streams, which lack the
// order records, no longer replay: both containers reject them with an
// error naming the version, and salvage nothing.
func TestV1StreamRejected(t *testing.T) {
	v1 := `{"format":"home-sched","version":1,"plan":{"Seed":7,"DelayProb":0,"MaxDelayNs":0,"ReorderProb":0,"SendFailProb":0,"MaxRetries":0,"RetryBackoffNs":0,"JitterProb":0,"JitterWall":0,"CrashRank":1,"CrashAfterCalls":3,"StallProb":0,"StallNs":0,"StallWall":0,"RMAProb":0,"MaxRMADelayNs":0}}
{"k":"crash","r":1}
{"k":"fail","r":0,"t":0,"q":3,"dead":2}
{"k":"match","r":0,"t":1,"q":2,"src":1,"stid":1,"sseq":1}
{"k":"abort","r":1,"t":1,"q":5}
`
	bin := fullRecorder().BytesBinary()
	if bin[len(BinaryMagic)] != Version {
		t.Fatalf("base-version byte = %d, want %d", bin[len(BinaryMagic)], Version)
	}
	bin[len(BinaryMagic)] = 1 // the same stream claiming base version 1
	for name, data := range map[string][]byte{"jsonl": []byte(v1), "hsb3": bin} {
		s, err := Read(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Errorf("%s: v1 stream err = %v, want a rejection naming version 1", name, err)
		}
		if errors.Is(err, ErrTruncated) || s != nil {
			t.Errorf("%s: v1 stream salvaged %v (err %v), want a hard error", name, s, err)
		}
	}
}

// TestRecorderOrderLen pins the order-record counter used by the
// sched.order_records stat.
func TestRecorderOrderLen(t *testing.T) {
	rec := fullRecorder()
	if got := rec.OrderLen(); got != 5 {
		t.Errorf("OrderLen = %d, want 5 (2 coll + lock + single + chunk)", got)
	}
	if got := NewRecorder().OrderLen(); got != 0 {
		t.Errorf("empty OrderLen = %d", got)
	}
}
