package live

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"home/internal/obs"
	"home/internal/trace"
)

// TestFlightRingWraparound pins the per-lane ring semantics: a lane
// that has seen more than RingSize events retains exactly the last
// RingSize, oldest first, with monotone lane-local sequence numbers.
func TestFlightRingWraparound(t *testing.T) {
	p := NewPlane()
	h := p.Register(RunInfo{Program: "ring"})
	fr := h.Flight()
	const total = RingSize + 17
	for i := 0; i < total; i++ {
		fr.Emit(trace.Event{Rank: 0, TID: 1, Time: int64(i), Op: trace.OpRead,
			Name: fmt.Sprintf("x%d", i)})
	}
	// A second lane that never wraps.
	fr.Emit(trace.Event{Rank: 1, TID: 0, Time: 7, Op: trace.OpWrite, Name: "y"})

	if got := fr.Events(); got != total+1 {
		t.Fatalf("Events() = %d, want %d", got, total+1)
	}
	d := fr.Dump("test")
	if len(d.Lanes) != 2 {
		t.Fatalf("dump has %d lanes, want 2", len(d.Lanes))
	}
	full := d.Lanes[0] // rank 0 sorts first
	if full.Rank != 0 || full.TID != 1 || full.Total != total {
		t.Fatalf("lane 0 = (%d,%d) total %d, want (0,1) total %d", full.Rank, full.TID, full.Total, total)
	}
	if len(full.Entries) != RingSize {
		t.Fatalf("wrapped lane retains %d entries, want %d", len(full.Entries), RingSize)
	}
	for i, e := range full.Entries {
		wantSeq := int64(total - RingSize + i)
		if e.Seq != wantSeq || e.Time != wantSeq || e.Detail != fmt.Sprintf("x%d", wantSeq) {
			t.Fatalf("entry %d = %+v, want seq/time %d detail x%d", i, e, wantSeq, wantSeq)
		}
	}
	small := d.Lanes[1]
	if small.Total != 1 || len(small.Entries) != 1 || small.Entries[0].Detail != "y" {
		t.Fatalf("unwrapped lane = %+v", small)
	}
	if !strings.Contains(d.String(), "rank 0 thread 1") {
		t.Fatalf("dump rendering missing lane header:\n%s", d.String())
	}
}

// TestHandleDeltaStreamReconstructs drives the full publication path a
// run exercises — user registry activity, StepTick-triggered periodic
// deltas, a final verdict delta — and checks that a subscriber folding
// the delta stream with Merge reconstructs the handle's final
// published snapshot, live.* counters included.
func TestHandleDeltaStreamReconstructs(t *testing.T) {
	p := NewPlane()
	ch, cancel := p.Subscribe()
	defer cancel()

	stats := obs.NewRegistry()
	h := p.Register(RunInfo{Program: "prog", Procs: 2, Threads: 2})
	h.AttachStats(stats)
	h.Phase("execute")

	for step := int64(1); step <= 3*StepInterval; step++ {
		stats.Counter("events.total").Inc()
		if step%100 == 0 {
			stats.Histogram("lat").Observe(step)
			stats.Gauge("hw").Observe(step)
		}
		h.StepTick(step-1, step, step*10)
	}
	h.Finish("clean")

	var folded obs.Snapshot
	deltas, verdicts := 0, 0
	for done := false; !done; {
		select {
		case ev := <-ch:
			switch ev.Type {
			case "delta", "verdict":
				if ev.Delta == nil {
					t.Fatalf("%s event without delta", ev.Type)
				}
				folded = folded.Merge(*ev.Delta)
				if ev.Type == "verdict" {
					if ev.Verdict != "clean" {
						t.Fatalf("verdict = %q, want clean", ev.Verdict)
					}
					verdicts++
					done = true
				} else {
					deltas++
				}
			}
		case <-time.After(2 * time.Second):
			t.Fatal("timed out waiting for verdict event")
		}
	}
	if deltas != 3 || verdicts != 1 {
		t.Fatalf("saw %d periodic deltas and %d verdicts, want 3 and 1", deltas, verdicts)
	}
	final := h.Snapshot()
	if !folded.Equal(final) {
		t.Fatalf("folded deltas != final snapshot:\n%s\nvs\n%s", folded.String(), final.String())
	}
	if folded.Counters["live.deltas"] != 4 {
		t.Fatalf("live.deltas = %d, want 4", folded.Counters["live.deltas"])
	}
	if folded.Counters["events.total"] != 3*StepInterval {
		t.Fatalf("events.total = %d, want %d", folded.Counters["events.total"], 3*StepInterval)
	}
	st := h.Status()
	if !st.Done || st.Verdict != "clean" || st.Deltas != 4 || st.VirtualNs != 3*StepInterval*10 {
		t.Fatalf("status = %+v", st)
	}
	if got, _, _ := p.Progress(); got != 1 {
		t.Fatalf("Progress done = %d, want 1", got)
	}
}

// TestSubscriberDropOnFull pins that a stalled subscriber loses events
// instead of blocking publishers: broadcasting far past the buffer
// size must return promptly.
func TestSubscriberDropOnFull(t *testing.T) {
	p := NewPlane()
	ch, cancel := p.Subscribe()
	defer cancel()
	h := p.Register(RunInfo{})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 2000; i++ {
			h.Phase("spin")
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("broadcast blocked on a stalled subscriber")
	}
	// The buffer holds at most its capacity; drain what's there.
	n := 0
drain:
	for {
		select {
		case <-ch:
			n++
		default:
			if n == 0 || n > subscriberBuffer {
				t.Fatalf("drained %d events, want 1..%d", n, subscriberBuffer)
			}
			break drain
		}
	}
	// A subscriber attaching after the burst gets the backlog ring
	// replayed: exactly the most recent subscriberBuffer events (the
	// burst overflowed the ring), newest last.
	late, cancelLate := p.Subscribe()
	defer cancelLate()
	m := 0
	for {
		select {
		case ev := <-late:
			m++
			if ev.Type != "phase" && ev.Type != "run" {
				t.Fatalf("unexpected backlog event %+v", ev)
			}
		default:
			if m != subscriberBuffer {
				t.Fatalf("backlog replayed %d events, want %d", m, subscriberBuffer)
			}
			return
		}
	}
}

// TestNilPlaneIsOff pins the nil-is-off convention end to end: every
// hook the pipeline wires unconditionally must no-op.
func TestNilPlaneIsOff(t *testing.T) {
	var p *Plane
	h := p.Register(RunInfo{Program: "x"})
	if h != nil {
		t.Fatal("nil plane returned a non-nil handle")
	}
	h.AttachStats(obs.NewRegistry())
	h.AttachActivity(nil)
	h.Phase("execute")
	h.StepTick(StepInterval-1, StepInterval, 42)
	h.AutoDump("deadlock")
	h.Finish("clean")
	if h.ID() != "" || h.LastDump() != nil || h.Activity() != nil || h.Blocked() != nil {
		t.Fatal("nil handle leaked state")
	}
	if s := h.Snapshot(); !s.Equal(obs.Snapshot{}) {
		t.Fatalf("nil handle snapshot = %v", s)
	}
	if st := h.Status(); st != (RunStatus{}) {
		t.Fatalf("nil handle status = %+v", st)
	}
	var fr *FlightRecorder
	fr.Emit(trace.Event{})
	if fr.Events() != 0 {
		t.Fatal("nil recorder counted events")
	}
	if d := fr.Dump("x"); d == nil || len(d.Lanes) != 0 {
		t.Fatalf("nil recorder dump = %+v", d)
	}
	p.SetExpected(5)
	if d, e, ev := p.Progress(); d != 0 || e != 0 || ev != 0 {
		t.Fatal("nil plane progress non-zero")
	}
	if p.Run("r000001") != nil || p.Runs() != nil {
		t.Fatal("nil plane returned runs")
	}
	ch, cancel := p.Subscribe()
	defer cancel()
	if _, ok := <-ch; ok {
		t.Fatal("nil plane subscription delivered an event")
	}
	p.broadcast(Event{})
	// A recorder with no handle back-pointer still records without
	// counting against any plane.
	orphan := &FlightRecorder{lanes: map[laneKey]*lane{}}
	orphan.Emit(trace.Event{Rank: 0, TID: 0, Op: trace.OpRead})
	if orphan.Events() != 1 {
		t.Fatal("orphan recorder lost its event")
	}
}

// TestPlaneEviction pins the retention cap: finished runs are evicted
// first, live ones survive until nothing finished remains.
func TestPlaneEviction(t *testing.T) {
	p := NewPlane()
	first := p.Register(RunInfo{Program: "live-forever"})
	_ = first // never finished
	for i := 0; i < maxRetainedRuns+10; i++ {
		h := p.Register(RunInfo{Program: "short"})
		h.Finish("clean")
	}
	runs := p.Runs()
	if len(runs) != maxRetainedRuns {
		t.Fatalf("retained %d runs, want %d", len(runs), maxRetainedRuns)
	}
	// The unfinished first run must have survived every eviction pass.
	if p.Run(first.ID()) == nil {
		t.Fatal("unfinished run was evicted while finished runs remained")
	}
}

// TestServerSmoke boots the introspection server on an ephemeral port
// and exercises every endpoint against a finished run, including one
// SSE event.
func TestServerSmoke(t *testing.T) {
	p := NewPlane()
	srv, err := Serve("127.0.0.1:0", p)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	stats := obs.NewRegistry()
	stats.Counter("events.total").Add(9)
	h := p.Register(RunInfo{Program: "smoke", Procs: 2, Threads: 2, Seed: 3})
	h.AttachStats(stats)
	h.Phase("execute")
	h.Flight().Emit(trace.Event{Rank: 0, TID: 0, Op: trace.OpWrite, Name: "buf"})
	h.AutoDump("test-signal")
	h.Finish("clean")

	getJSON := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}

	var health struct {
		OK   bool  `json:"ok"`
		Runs int   `json:"runs"`
		Done int64 `json:"done"`
	}
	getJSON("/healthz", &health)
	if !health.OK || health.Runs != 1 || health.Done != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	var runs []RunStatus
	getJSON("/runs", &runs)
	if len(runs) != 1 || runs[0].ID != h.ID() || runs[0].Verdict != "clean" {
		t.Fatalf("runs = %+v", runs)
	}

	var stat struct {
		Status   RunStatus    `json:"status"`
		Snapshot obs.Snapshot `json:"snapshot"`
	}
	getJSON("/runs/"+h.ID()+"/stats", &stat)
	if stat.Snapshot.Counters["events.total"] != 9 {
		t.Fatalf("stats snapshot = %v", stat.Snapshot.Counters)
	}
	if stat.Snapshot.Counters["live.deltas"] != 1 {
		t.Fatalf("live.deltas = %d, want 1", stat.Snapshot.Counters["live.deltas"])
	}

	var blocked struct {
		Run     string `json:"run"`
		Blocked []any  `json:"blocked"`
	}
	getJSON("/runs/"+h.ID()+"/blocked", &blocked)
	if blocked.Run != h.ID() {
		t.Fatalf("blocked = %+v", blocked)
	}

	var dump FlightDump
	getJSON("/runs/"+h.ID()+"/flight", &dump)
	if dump.Reason != "test-signal" || len(dump.Lanes) != 1 || dump.Lanes[0].Entries[0].Detail != "buf" {
		t.Fatalf("flight = %+v", dump)
	}

	// Unknown run id → 404.
	resp, err := http.Get(base + "/runs/nope/stats")
	if err != nil {
		t.Fatalf("GET unknown: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run status = %d, want 404", resp.StatusCode)
	}

	// SSE: a subscriber attaching after the run finished still sees the
	// full event stream via the backlog replay, in order.
	sseResp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	sc := bufio.NewScanner(sseResp.Body)
	deadline := time.AfterFunc(5*time.Second, func() { sseResp.Body.Close() })
	defer deadline.Stop()
	var types []string
	gotEvent := ""
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			gotEvent = strings.TrimPrefix(line, "event: ")
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("SSE data %q: %v", line, err)
		}
		if ev.Type != gotEvent {
			t.Fatalf("SSE event header %q != payload type %q", gotEvent, ev.Type)
		}
		if ev.Run != h.ID() {
			t.Fatalf("SSE event for run %q, want %q", ev.Run, h.ID())
		}
		types = append(types, ev.Type)
		if ev.Type == "verdict" {
			if ev.Verdict != "clean" || ev.Delta == nil {
				t.Fatalf("verdict event = %+v", ev)
			}
			break
		}
	}
	if want := []string{"run", "phase", "verdict"}; strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("SSE replay order = %v, want %v", types, want)
	}
}

// TestPlaneShutdownTerminalEvent: Shutdown delivers exactly one
// terminal "shutdown" event to every live subscriber and then closes
// its channel; late subscribers see the same terminal-then-closed
// stream, and publications after shutdown are dropped, not panics.
func TestPlaneShutdownTerminalEvent(t *testing.T) {
	p := NewPlane()
	ch, cancel := p.Subscribe()
	defer cancel()
	h := p.Register(RunInfo{Program: "prog"})
	h.Phase("execute")
	p.Shutdown()
	p.Shutdown() // idempotent
	var got []string
	for ev := range ch {
		got = append(got, ev.Type)
	}
	if len(got) == 0 || got[len(got)-1] != "shutdown" {
		t.Fatalf("subscriber stream must end with the terminal event, got %v", got)
	}
	// Publications from a still-running (abandoned) run must be safe.
	h.Phase("analyze")
	h.Finish("clean")
	// A subscription after shutdown sees terminal-then-closed.
	late, lateCancel := p.Subscribe()
	defer lateCancel()
	ev, ok := <-late
	if !ok || ev.Type != "shutdown" {
		t.Fatalf("late subscriber: got (%v, %v), want terminal event", ev, ok)
	}
	if _, ok := <-late; ok {
		t.Fatal("late subscriber channel must be closed after the terminal event")
	}
}

// TestServerGracefulClose: closing the server with an active /events
// subscriber ends the stream with the terminal shutdown event and a
// clean EOF — the regression pinned by the shutdown-paths bugfix —
// instead of cutting the connection mid-stream.
func TestServerGracefulClose(t *testing.T) {
	p := NewPlane()
	srv, err := Serve("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	h := p.Register(RunInfo{Program: "prog"})
	h.Phase("execute")
	h.Finish("clean")

	resp, err := http.Get("http://" + srv.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type result struct {
		types []string
		err   error
	}
	done := make(chan result, 1)
	go func() {
		var types []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				types = append(types, rest)
			}
		}
		done <- result{types, sc.Err()}
	}()
	// Let the subscriber attach before closing (the handler subscribes
	// after the response headers are written).
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.subMu.Lock()
		n := len(p.subs)
		p.subMu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("stream must end cleanly, got %v", r.err)
		}
		if len(r.types) == 0 || r.types[len(r.types)-1] != "shutdown" {
			t.Fatalf("stream must end with the shutdown event, got %v", r.types)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscriber stream did not end after Close")
	}
}
