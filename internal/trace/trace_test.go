package trace

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestLogAssignsSequenceNumbers(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		l.Emit(Event{Op: OpRead})
	}
	evs := l.Events()
	for i, e := range evs {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestLogConcurrentEmitters(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	// 8×1200 events fill every growing chunk and a full maxChunk one,
	// then roll over to the next.
	const n = 1200
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				l.Emit(Event{Op: OpWrite, Rank: g, Time: int64(i)})
			}
		}(g)
	}
	wg.Wait()
	evs := l.Events()
	if len(evs) != 8*n || l.Len() != 8*n {
		t.Fatalf("events = %d, Len() = %d", len(evs), l.Len())
	}
	// Seqs are dense, and each emitter's events carry increasing
	// seqs: Events is in seq order, so each emitter's events appear
	// in its own emission order.
	next := make([]int64, 8)
	for i, e := range evs {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Time != next[e.Rank] {
			t.Fatalf("seq %d: emitter %d's event %d, want its event %d", e.Seq, e.Rank, e.Time, next[e.Rank])
		}
		next[e.Rank]++
	}
}

func TestLogChunkBoundaries(t *testing.T) {
	for _, n := range []int{1, firstChunk - 1, firstChunk, firstChunk + 1, maxChunk, 20011} {
		l := NewLog()
		for i := 0; i < n; i++ {
			l.Emit(Event{Op: OpWrite, Time: int64(i)})
		}
		evs := l.Events()
		if len(evs) != n || l.Len() != n {
			t.Fatalf("n=%d: Events() has %d, Len() = %d", n, len(evs), l.Len())
		}
		for i, e := range evs {
			if e.Seq != uint64(i) || e.Time != int64(i) {
				t.Fatalf("n=%d: event %d has seq %d, time %d", n, i, e.Seq, e.Time)
			}
		}
		evs[0].Time, evs[n-1].Time = -1, -1
		again := l.Events()
		if again[0].Time != 0 || again[n-1].Time != int64(n-1) {
			t.Fatalf("n=%d: changing the returned slice changed the log", n)
		}
	}
}

// TestLogChunksAliasTheLog pins that Chunks copies nothing: its views
// are the log's own memory, come out in Seq order with every event
// once, and the last is cut at Len.
func TestLogChunksAliasTheLog(t *testing.T) {
	for _, n := range []int{0, 1, firstChunk, firstChunk + 1, growEvents + maxChunk + 3} {
		l := NewLog()
		for i := 0; i < n; i++ {
			l.Emit(Event{Op: OpWrite, Time: int64(i)})
		}
		chunks := l.Chunks()
		next := 0
		for ci, c := range chunks {
			if len(c) == 0 {
				t.Fatalf("n=%d: chunk %d is empty", n, ci)
			}
			for i := range c {
				if c[i].Seq != uint64(next) || c[i].Time != int64(next) {
					t.Fatalf("n=%d: chunk %d event %d has seq %d, want %d", n, ci, i, c[i].Seq, next)
				}
				next++
			}
			// The view is the chunk the log stores into.
			ch, off := chunkOf(c[0].Seq)
			if stored := &(*(*l.dir.Load())[ch].Load())[off]; stored != &c[0] {
				t.Fatalf("n=%d: chunk %d is a copy, not a view of the log", n, ci)
			}
		}
		if next != n {
			t.Fatalf("n=%d: the views hold %d events", n, next)
		}
		if n > 0 {
			before := l.Events()
			chunks[0][0].Time = -1
			if l.Events()[0].Time != -1 || before[0].Time != 0 {
				t.Fatalf("n=%d: writing through a view did not reach the log, or Events shares it", n)
			}
		}
	}
}

// TestEventSize pins the event at 72 bytes: the log stores every
// event of a run, and ITC's all-access runs log up to 160k of them.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 72 {
		t.Fatalf("trace.Event is %d bytes, want 72", got)
	}
}

// TestEventPayloadAccessors pins that Loc, Lock and Sync name their
// payload within the event's own rank, and are zero for other ops.
func TestEventPayloadAccessors(t *testing.T) {
	w := Event{Rank: 3, Op: OpWrite, Name: "x"}
	a := Event{Rank: 3, Op: OpAcquire, Name: "$critical:c"}
	b := Event{Rank: 3, Op: OpBarrier, SyncSeq: 9}
	if w.Loc() != (Loc{Rank: 3, Name: "x"}) || w.Lock() != (LockID{}) || w.Sync() != (SyncID{}) {
		t.Errorf("write: loc %v lock %v sync %v", w.Loc(), w.Lock(), w.Sync())
	}
	if a.Lock() != (LockID{Rank: 3, Name: "$critical:c"}) || a.Loc() != (Loc{}) || a.Sync() != (SyncID{}) {
		t.Errorf("acquire: loc %v lock %v sync %v", a.Loc(), a.Lock(), a.Sync())
	}
	if b.Sync() != (SyncID{Rank: 3, Seq: 9}) || b.Loc() != (Loc{}) || b.Lock() != (LockID{}) {
		t.Errorf("barrier: loc %v lock %v sync %v", b.Loc(), b.Lock(), b.Sync())
	}
}

func TestLogEventsIsSnapshot(t *testing.T) {
	l := NewLog()
	l.Emit(Event{Op: OpRead})
	snap := l.Events()
	l.Emit(Event{Op: OpWrite})
	if len(snap) != 1 {
		t.Fatalf("snapshot mutated: %d", len(snap))
	}
}

func TestTeeSink(t *testing.T) {
	a, b := NewLog(), NewLog()
	tee := TeeSink{a, b}
	tee.Emit(Event{Op: OpRead})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("tee delivered %d/%d", a.Len(), b.Len())
	}
}

func TestMonitoredVarsChecklist(t *testing.T) {
	vars := MonitoredVars()
	want := []string{"srctmp", "tagtmp", "commtmp", "requesttmp", "collectivetmp", "finalizetmp"}
	if len(vars) != len(want) {
		t.Fatalf("checklist = %v", vars)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("checklist[%d] = %q, want %q", i, vars[i], want[i])
		}
	}
}

func TestCallKindClassification(t *testing.T) {
	collectives := []CallKind{CallBarrier, CallBcast, CallReduce, CallAllreduce, CallGather, CallScatter, CallAlltoall}
	for _, k := range collectives {
		if !k.IsCollective() {
			t.Errorf("%v should be collective", k)
		}
		if k.IsPointToPoint() {
			t.Errorf("%v should not be p2p", k)
		}
	}
	p2p := []CallKind{CallSend, CallRecv, CallIsend, CallIrecv}
	for _, k := range p2p {
		if !k.IsPointToPoint() {
			t.Errorf("%v should be p2p", k)
		}
		if k.IsCollective() {
			t.Errorf("%v should not be collective", k)
		}
	}
	for _, k := range []CallKind{CallInit, CallFinalize, CallWait, CallProbe} {
		if k.IsCollective() || k.IsPointToPoint() {
			t.Errorf("%v misclassified", k)
		}
	}
}

func TestStringers(t *testing.T) {
	if OpAcquire.String() != "Acquire" || OpMPICall.String() != "MPICall" {
		t.Fatal("Op stringer broken")
	}
	if CallSend.String() != "MPI_Send" {
		t.Fatalf("CallKind stringer: %q", CallSend.String())
	}
	if got := (Loc{Rank: 2, Name: "srctmp"}).String(); got != "p2:srctmp" {
		t.Fatalf("Loc stringer: %q", got)
	}
	c := MPICall{Kind: CallRecv, Peer: 1, Tag: 9, Comm: 0, Request: -1, Line: 12}
	if s := c.String(); !strings.Contains(s, "MPI_Recv") || !strings.Contains(s, "tag=9") {
		t.Fatalf("MPICall stringer: %q", s)
	}
	events := []Event{
		{Op: OpWrite, Rank: 1, TID: 0, Name: "x"},
		{Op: OpAcquire, Rank: 0, TID: 1, Name: "$critical:c"},
		{Op: OpMPICall, Call: &c},
		{Op: OpBarrier, SyncSeq: 3},
	}
	for _, e := range events {
		if e.String() == "" {
			t.Fatalf("empty event string for %+v", e)
		}
	}
	// Out-of-range values should not panic.
	_ = Op(99).String()
	_ = CallKind(99).String()
	_ = fmt.Sprint(events)
}

// BenchmarkLogEmit fills one 100,000-event log per op.
func BenchmarkLogEmit(b *testing.B) {
	call := &MPICall{Kind: CallSend}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := NewLog()
		for j := 0; j < 100000; j++ {
			l.Emit(Event{Op: OpMPICall, Rank: j & 7, Call: call})
		}
	}
}

// BenchmarkLogEmitParallel emits from GOMAXPROCS goroutines into one
// shared log, one event per op; the log is replaced every 100,000
// events so a long run's memory stays bounded.
func BenchmarkLogEmitParallel(b *testing.B) {
	const logEvents = 100000
	call := &MPICall{Kind: CallSend}
	var cur atomic.Pointer[Log]
	cur.Store(NewLog())
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		l := cur.Load()
		for pb.Next() {
			l.Emit(Event{Op: OpMPICall, Call: call})
			if l.Len() >= logEvents {
				cur.CompareAndSwap(l, NewLog())
				l = cur.Load()
			}
		}
	})
}
