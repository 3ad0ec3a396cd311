// Package live is the process-wide telemetry plane: a registry of
// in-flight home.Check runs, each publishing periodic stats-snapshot
// deltas and keeping a per-(rank, tid) flight recorder of recent
// runtime events, plus an embedded HTTP/SSE introspection server
// (server.go) that serves the same data `homeserve` will stream.
//
// Design constraints, in order:
//
//   - Determinism is untouchable. Live publication never perturbs
//     virtual time, schedules or report bytes: the run's own registry
//     (Options.Stats) is only *read*, the plane's live.* counters live
//     in a second registry owned by the handle, the flight recorder
//     rides the existing TeeSink (whose per-event cost is charged
//     whether or not a plane is attached), and every published
//     artifact is assembled from atomic reads off the hot path.
//   - Nil is off, like the rest of internal/obs: a nil *Plane returns
//     a nil *RunHandle, and every RunHandle method is a no-op on nil,
//     so the pipeline wires the hooks unconditionally.
//   - Readers never block the simulation. The current snapshot is an
//     atomic pointer swap; SSE subscribers are fan-out channels that
//     drop events when a consumer stalls.
package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"home/internal/obs"
	"home/internal/sim"
)

// StepInterval is the publication cadence of the interpreter loop: a
// snapshot delta is published every time the shared statement counter
// crosses a multiple of StepInterval. Interpreter lanes add their
// statements to the counter in batches, and the lane whose batch
// crosses a multiple publishes for it, so each publication point is
// observed by exactly one lane and the number of periodic publications
// is a deterministic function of the run — not that it matters for
// determinism, since publication only reads.
const StepInterval = 4096

// maxRetainedRuns bounds the plane's run table. An explorer campaign
// registers hundreds of short mutant replays; beyond the cap the
// oldest runs are evicted, finished ones first.
const maxRetainedRuns = 256

// subscriberBuffer is each SSE consumer's channel capacity; a consumer
// that falls further behind loses events rather than blocking
// publishers. New subscribers are pre-filled with the most recent
// backlog up to this capacity, so a dashboard attaching after a fast
// campaign still sees its event stream.
const subscriberBuffer = 256

// RunInfo identifies one registered run.
type RunInfo struct {
	// Program labels the source under check (file name, corpus kind,
	// or "program" when the caller has nothing better).
	Program string `json:"program"`
	// Plan is the chaos plan's compact string form ("" = no faults).
	Plan    string `json:"plan,omitempty"`
	Procs   int    `json:"procs"`
	Threads int    `json:"threads"`
	Seed    int64  `json:"seed"`
}

// RunStatus is the introspection view of one run — everything /runs
// serves per entry.
type RunStatus struct {
	ID   string  `json:"id"`
	Info RunInfo `json:"info"`
	// Phase is the pipeline phase last entered ("" before the first).
	Phase string `json:"phase"`
	// Done and Verdict are set by Finish.
	Done    bool   `json:"done"`
	Verdict string `json:"verdict,omitempty"`
	// VirtualNs is the maximum virtual time any thread has reached.
	VirtualNs int64 `json:"virtualNs"`
	// Events counts instrumentation events the flight recorder saw.
	Events int64 `json:"events"`
	// Deltas counts snapshot deltas published so far.
	Deltas int64 `json:"deltas"`
	// WallStartNs is the wall-clock registration time (introspection
	// only; it never reaches a report).
	WallStartNs int64 `json:"wallStartNs"`
}

// Event is one SSE payload: a run registration, a phase transition, a
// snapshot delta, a final verdict, or the plane's terminal shutdown
// notice.
type Event struct {
	// Type is "run", "phase", "delta", "verdict" or "shutdown" (the
	// last event every subscriber receives when the plane closes).
	Type string `json:"type"`
	// Run is the subject run's id.
	Run string `json:"run"`
	// Phase is set on "phase" events.
	Phase string `json:"phase,omitempty"`
	// Verdict is set on "verdict" events.
	Verdict string `json:"verdict,omitempty"`
	// Delta is set on "delta" and "verdict" events: the stats movement
	// since the previous publication (counters are diffs, gauges are
	// current values, histograms carry bucket diffs — folding every
	// delta with obs.Snapshot.Merge reconstructs the final snapshot).
	Delta *obs.Snapshot `json:"delta,omitempty"`
	// VirtualNs mirrors RunStatus.VirtualNs at publication.
	VirtualNs int64 `json:"virtualNs,omitempty"`
}

// Plane is the process-wide run registry. The zero value is not
// usable; call NewPlane. A nil *Plane is off.
type Plane struct {
	mu    sync.Mutex
	runs  map[string]*RunHandle
	order []string // registration order, for eviction and /runs
	seq   int64

	subMu   sync.Mutex
	subs    map[int64]chan Event
	subID   int64
	closed  bool    // set by Shutdown; no further subscriptions or broadcasts
	backlog []Event // ring of the most recent events, replayed to new subscribers
	backOff int     // backlog[backOff] is the oldest entry once the ring wrapped

	// Campaign-level progress metering for the homebench ticker.
	expected atomic.Int64
	started  atomic.Int64
	finished atomic.Int64
	events   atomic.Int64
}

// NewPlane returns an empty telemetry plane.
func NewPlane() *Plane {
	return &Plane{runs: map[string]*RunHandle{}, subs: map[int64]chan Event{}}
}

// Register books a new run and returns its handle. Nil-safe: a nil
// plane returns a nil handle, whose methods all no-op.
func (p *Plane) Register(info RunInfo) *RunHandle {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	p.seq++
	h := &RunHandle{
		id:        fmt.Sprintf("r%06d", p.seq),
		info:      info,
		plane:     p,
		liveStats: obs.NewRegistry(),
		wallStart: time.Now().UnixNano(),
	}
	h.flight = newFlightRecorder(h)
	// Pre-register the live.* inventory so every published snapshot
	// carries the full set, zeros included (mirrors explore.StatNames).
	for _, name := range LiveStatNames() {
		h.liveStats.Counter(name)
	}
	empty := obs.Snapshot{}
	h.cur.Store(&empty)
	p.runs[h.id] = h
	p.order = append(p.order, h.id)
	p.evictLocked()
	p.mu.Unlock()
	p.started.Add(1)
	p.broadcast(Event{Type: "run", Run: h.id})
	return h
}

// evictLocked drops the oldest runs past the retention cap, finished
// runs first (an abandoned wall-clock-budget mutant never finishes;
// it is evicted once everything older and done is gone).
func (p *Plane) evictLocked() {
	for len(p.order) > maxRetainedRuns {
		victim := -1
		for i, id := range p.order {
			if p.runs[id].Status().Done {
				victim = i
				break
			}
		}
		if victim < 0 {
			victim = 0
		}
		delete(p.runs, p.order[victim])
		p.order = append(p.order[:victim], p.order[victim+1:]...)
	}
}

// Run returns the handle for an id (nil when unknown or evicted).
func (p *Plane) Run(id string) *RunHandle {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.runs[id]
}

// Runs returns the retained handles in registration order.
func (p *Plane) Runs() []*RunHandle {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*RunHandle, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.runs[id])
	}
	return out
}

// SetExpected declares how many runs the current campaign will
// register, for progress metering ("12/54 runs"); 0 means unknown.
func (p *Plane) SetExpected(n int) {
	if p == nil {
		return
	}
	p.expected.Store(int64(n))
}

// Progress reports (finished runs, expected runs, total events seen).
// Expected is 0 when no campaign declared a total.
func (p *Plane) Progress() (done, expected, events int64) {
	if p == nil {
		return 0, 0, 0
	}
	return p.finished.Load(), p.expected.Load(), p.events.Load()
}

// Subscribe registers an SSE consumer. The returned channel is first
// pre-filled with the most recent backlog (a late subscriber still
// sees the campaign so far), then receives every subsequent Event; a
// consumer that falls more than the buffer behind loses events rather
// than blocking publishers. Call the cancel function to unsubscribe.
func (p *Plane) Subscribe() (<-chan Event, func()) {
	if p == nil {
		ch := make(chan Event)
		close(ch)
		return ch, func() {}
	}
	p.subMu.Lock()
	if p.closed {
		// A subscription after Shutdown sees the terminal event and an
		// immediately closed stream — never a hang.
		p.subMu.Unlock()
		ch := make(chan Event, 1)
		ch <- Event{Type: "shutdown"}
		close(ch)
		return ch, func() {}
	}
	p.subID++
	id := p.subID
	ch := make(chan Event, subscriberBuffer)
	// Oldest-first replay: once the ring wrapped, backOff marks the
	// oldest entry. The backlog never exceeds the channel buffer, so
	// these sends cannot block.
	for i := 0; i < len(p.backlog); i++ {
		ch <- p.backlog[(p.backOff+i)%len(p.backlog)]
	}
	p.subs[id] = ch
	p.subMu.Unlock()
	return ch, func() {
		p.subMu.Lock()
		delete(p.subs, id)
		p.subMu.Unlock()
	}
}

// broadcast fans an event out to every subscriber, dropping it for
// consumers whose buffer is full — a stalled reader must never block
// the simulation — and appends it to the backlog ring replayed to
// future subscribers.
func (p *Plane) broadcast(ev Event) {
	if p == nil {
		return
	}
	p.subMu.Lock()
	if p.closed {
		// Shutdown already closed every subscriber channel; a late
		// publisher (an abandoned budget-exceeded run, say) must not
		// send on them.
		p.subMu.Unlock()
		return
	}
	if len(p.backlog) < subscriberBuffer {
		p.backlog = append(p.backlog, ev)
	} else {
		p.backlog[p.backOff] = ev
		p.backOff = (p.backOff + 1) % len(p.backlog)
	}
	for _, ch := range p.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	p.subMu.Unlock()
}

// Shutdown closes the plane's event feed gracefully: every live
// subscriber receives a terminal "shutdown" event (space permitting —
// a stalled consumer drops it like any other) and then its channel is
// closed, so SSE handlers end their streams cleanly instead of being
// cut mid-connection. Run state (/runs, snapshots, flight dumps)
// remains readable; only the feed closes. Idempotent and nil-safe.
func (p *Plane) Shutdown() {
	if p == nil {
		return
	}
	p.subMu.Lock()
	defer p.subMu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	term := Event{Type: "shutdown"}
	for id, ch := range p.subs {
		select {
		case ch <- term:
		default:
		}
		close(ch)
		delete(p.subs, id)
	}
}

// LiveStatNames is the plane's own counter inventory, registered on
// each handle's private registry — never on the run's Options.Stats,
// so Report.Stats is byte-identical with and without introspection.
//
//	live.deltas        snapshot deltas published (periodic + final)
//	live.events        instrumentation events the flight recorder saw
//	live.flight_dumps  automatic flight-recorder dumps taken
func LiveStatNames() []string {
	return []string{"live.deltas", "live.events", "live.flight_dumps"}
}

// RunHandle is one registered run's telemetry state. All methods are
// safe on a nil receiver and safe for concurrent use.
type RunHandle struct {
	id    string
	info  RunInfo
	plane *Plane

	// phase holds the last phase name (atomic pointer to string).
	phase atomic.Pointer[string]

	// vtime is the maximum virtual time observed across StepTicks.
	vtime atomic.Int64

	// userStats is the run's own registry (Options.Stats; read-only
	// here), liveStats the plane's private live.* registry.
	userStats *obs.Registry
	liveStats *obs.Registry

	// pubMu serializes publications; prev is the last published
	// cumulative snapshot, cur the atomically readable current one.
	pubMu sync.Mutex
	prev  obs.Snapshot
	cur   atomic.Pointer[obs.Snapshot]

	flight   *FlightRecorder
	activity atomic.Pointer[sim.Activity]
	lastDump atomic.Pointer[FlightDump]

	done    atomic.Bool
	verdict atomic.Pointer[string]

	wallStart int64
	deltas    atomic.Int64
}

// ID returns the run's plane-assigned id ("" on nil).
func (h *RunHandle) ID() string {
	if h == nil {
		return ""
	}
	return h.id
}

// AttachStats installs the run's own registry (Options.Stats), whose
// values are merged into every published snapshot. Nil is fine — the
// published snapshots then carry only the live.* counters.
func (h *RunHandle) AttachStats(r *obs.Registry) {
	if h == nil {
		return
	}
	h.userStats = r
}

// AttachActivity installs the runtime's watchdog, the source of the
// blocked-op table served by /runs/{id}/blocked and embedded in
// flight dumps.
func (h *RunHandle) AttachActivity(a *sim.Activity) {
	if h == nil || a == nil {
		return
	}
	h.activity.Store(a)
}

// Activity returns the attached watchdog (nil before AttachActivity).
func (h *RunHandle) Activity() *sim.Activity {
	if h == nil {
		return nil
	}
	return h.activity.Load()
}

// Flight returns the run's flight recorder as an extra trace sink to
// append to the pipeline's TeeSink (nil receiver → nil sink).
func (h *RunHandle) Flight() *FlightRecorder {
	if h == nil {
		return nil
	}
	return h.flight
}

// Phase records a pipeline phase transition and broadcasts it.
func (h *RunHandle) Phase(name string) {
	if h == nil {
		return
	}
	h.phase.Store(&name)
	h.plane.broadcast(Event{Type: "phase", Run: h.id, Phase: name})
}

// StepTick is the interpreter's statement-batch hook: called when a
// lane moves the shared statement counter from prev to step, with the
// lane's virtual clock. It maintains the virtual-time high-water mark
// and publishes one snapshot delta per multiple of StepInterval in
// (prev, step]. The hook only reads run state — virtual time and
// schedules are untouched.
func (h *RunHandle) StepTick(prev, step int64, now int64) {
	if h == nil {
		return
	}
	for {
		cur := h.vtime.Load()
		if now <= cur || h.vtime.CompareAndSwap(cur, now) {
			break
		}
	}
	for k := step / StepInterval; k > prev/StepInterval; k-- {
		h.publish("delta")
	}
}

// publish books one delta publication: it bumps live.deltas (so the
// delta being published accounts for itself), snapshots the merged
// (user ∪ live) registries, diffs against the previous publication,
// swaps the readable snapshot and broadcasts the delta.
func (h *RunHandle) publish(typ string) {
	h.pubMu.Lock()
	h.deltas.Add(1)
	h.liveStats.Counter("live.deltas").Inc()
	cur := h.userStats.Snapshot().Merge(h.liveStats.Snapshot())
	delta := cur.Delta(h.prev)
	h.prev = cur
	h.cur.Store(&cur)
	h.pubMu.Unlock()
	ev := Event{Type: typ, Run: h.id, Delta: &delta, VirtualNs: h.vtime.Load()}
	if typ == "verdict" {
		v := h.verdict.Load()
		if v != nil {
			ev.Verdict = *v
		}
	}
	h.plane.broadcast(ev)
}

// Snapshot returns the last published cumulative snapshot (user stats
// merged with the live.* counters) without blocking publishers.
func (h *RunHandle) Snapshot() obs.Snapshot {
	if h == nil {
		return obs.Snapshot{}
	}
	return *h.cur.Load()
}

// Blocked returns the runtime's current blocked-op table (empty
// before AttachActivity). Callable at any time — this is the live
// "what is everyone waiting for" view.
func (h *RunHandle) Blocked() []sim.BlockedOp {
	a := h.Activity()
	if a == nil {
		return nil
	}
	return a.StuckTable()
}

// AutoDump captures a flight-recorder dump for the given reason
// (deadlock, crash-stop, explicit signal), retains it as the run's
// last dump and counts it.
func (h *RunHandle) AutoDump(reason string) *FlightDump {
	if h == nil {
		return nil
	}
	h.liveStats.Counter("live.flight_dumps").Inc()
	d := h.flight.Dump(reason)
	h.lastDump.Store(d)
	return d
}

// LastDump returns the most recent automatic dump (nil if none).
func (h *RunHandle) LastDump() *FlightDump {
	if h == nil {
		return nil
	}
	return h.lastDump.Load()
}

// Finish marks the run done with its verdict and publishes the final
// delta, after which the published snapshot equals the run's own
// final registry state merged with the live.* counters.
func (h *RunHandle) Finish(verdict string) {
	if h == nil {
		return
	}
	h.verdict.Store(&verdict)
	h.done.Store(true)
	h.publish("verdict")
	h.plane.finished.Add(1)
}

// Status assembles the run's introspection row.
func (h *RunHandle) Status() RunStatus {
	if h == nil {
		return RunStatus{}
	}
	st := RunStatus{
		ID:          h.id,
		Info:        h.info,
		Done:        h.done.Load(),
		VirtualNs:   h.vtime.Load(),
		Events:      h.flight.Events(),
		Deltas:      h.deltas.Load(),
		WallStartNs: h.wallStart,
	}
	if p := h.phase.Load(); p != nil {
		st.Phase = *p
	}
	if v := h.verdict.Load(); v != nil {
		st.Verdict = *v
	}
	return st
}

// countEvent books one flight-recorder event on the handle and plane.
func (h *RunHandle) countEvent() {
	h.liveStats.Counter("live.events").Inc()
	if h.plane != nil {
		h.plane.events.Add(1)
	}
}
