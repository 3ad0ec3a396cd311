package trace

// Timeline export: renders an instrumentation event log as Chrome
// trace_event JSON (the format chrome://tracing and Perfetto open),
// with one lane per (rank, thread) in virtual time. MPI and OpenMP
// operations become duration events — an operation spans from its
// pre-call emission to the thread's next event, so blocking shows up
// as width — and the cross-rank/cross-thread orderings the runtime
// realized become flow arrows: message matches (from the MPICall
// match-edge tags), collective instances, fork/join and barrier
// edges, and lock hand-offs.
//
// Determinism: everything the builder derives is keyed on
// schedule-stable coordinates — (rank, tid, per-thread event index)
// for events, (rank, tid, send index) for messages, (comm, instance)
// for collectives, SyncID for fork/join/barrier — never on the global
// log sequence, which depends on the host schedule. Two runs that
// realize the same per-thread event streams and virtual timestamps
// (in particular, a recording and its schedule replay of a program
// whose virtual time is schedule-independent) render byte-identical
// timelines.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TimelineEvent is one Chrome trace_event record. Ts and Dur are in
// microseconds of virtual time (the unit chrome://tracing expects).
type TimelineEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Timeline is an assembled trace, ready for JSON export or witness
// markup (explain overlays instant markers on witness accesses).
type Timeline struct {
	events []TimelineEvent
	// lanes indexes each (rank, tid) lane's events in per-thread
	// order, so markers can be addressed by stable coordinates.
	lanes  map[laneKey][]laneEvent
	nextID uint64
}

type laneKey struct{ rank, tid int }

type laneEvent struct {
	ev Event
	ts int64 // virtual ns
}

// durSliverNs is the rendered duration of a lane's final event and of
// zero-gap events, so every operation stays clickable in the viewer.
const durSliverNs = 1000

func usOf(ns int64) float64 { return float64(ns) / 1000.0 }

// BuildTimeline assembles the timeline for an event log: lanes,
// duration events, and the flow arrows derivable from the log's
// match/sync tags.
func BuildTimeline(events []Event) *Timeline {
	t := &Timeline{lanes: map[laneKey][]laneEvent{}}

	// Split the log into (rank, tid) lanes. Each lane's subsequence of
	// the log is that thread's emission order (a thread emits its own
	// events in program order), so per-lane order is schedule-stable
	// even though the interleaving is not.
	for _, e := range events {
		k := laneKey{e.Rank, e.TID}
		t.lanes[k] = append(t.lanes[k], laneEvent{ev: e, ts: e.Time})
	}
	keys := make([]laneKey, 0, len(t.lanes))
	for k := range t.lanes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		return keys[i].tid < keys[j].tid
	})

	// Lane metadata: name processes after ranks and keep the viewer's
	// sort order equal to (rank, tid).
	seenRank := map[int]bool{}
	for _, k := range keys {
		if !seenRank[k.rank] {
			seenRank[k.rank] = true
			t.events = append(t.events, TimelineEvent{
				Name: "process_name", Ph: "M", Pid: k.rank,
				Args: map[string]any{"name": fmt.Sprintf("rank %d", k.rank)},
			})
		}
		t.events = append(t.events, TimelineEvent{
			Name: "thread_name", Ph: "M", Pid: k.rank, Tid: k.tid,
			Args: map[string]any{"name": fmt.Sprintf("thread %d", k.tid)},
		})
	}

	// Duration events: each operation spans to the thread's next
	// emission (blocking calls render wide), with a minimum sliver.
	for _, k := range keys {
		lane := t.lanes[k]
		for i, le := range lane {
			dur := int64(durSliverNs)
			if i+1 < len(lane) {
				if gap := lane[i+1].ts - le.ts; gap > dur {
					dur = gap
				}
			}
			t.events = append(t.events, TimelineEvent{
				Name: opEventName(le.ev), Ph: "X", Cat: opCategory(le.ev),
				Ts: usOf(le.ts), Dur: usOf(dur), Pid: k.rank, Tid: k.tid,
				Args: opArgs(le.ev, uint64(i)),
			})
		}
	}

	t.buildMessageFlows(keys)
	t.buildCollectiveFlows(keys)
	t.buildSyncFlows(keys)
	t.buildLockFlows(events)
	return t
}

// buildMessageFlows draws send→receive arrows from the match-edge
// tags: a completed receive/probe names its message's (rank, tid,
// send index), which locates the sender's MPICall event.
func (t *Timeline) buildMessageFlows(keys []laneKey) {
	type sendKey struct {
		rank, tid int
		ix        uint64
	}
	sends := map[sendKey]laneEvent{}
	for _, k := range keys {
		for _, le := range t.lanes[k] {
			c := le.ev.Call
			if le.ev.Op == OpMPICall && c != nil && c.SendIx > 0 {
				sends[sendKey{k.rank, k.tid, c.SendIx}] = le
			}
		}
	}
	for _, k := range keys {
		for _, le := range t.lanes[k] {
			c := le.ev.Call
			if le.ev.Op != OpMPICall || c == nil || c.MatchIx == 0 {
				continue
			}
			src, ok := sends[sendKey{c.MatchRank, c.MatchTID, c.MatchIx}]
			if !ok {
				continue
			}
			id := t.flowID()
			t.flow("msg", "s", id, src)
			t.events = append(t.events, TimelineEvent{
				Name: "msg", Ph: "f", Cat: "flow", BP: "e", ID: id,
				Ts: usOf(le.ts), Pid: k.rank, Tid: k.tid,
			})
		}
	}
}

// buildCollectiveFlows chains the participants of each collective
// instance, identified by (communicator, instance number).
func (t *Timeline) buildCollectiveFlows(keys []laneKey) {
	type collKey struct {
		comm int
		seq  int64
	}
	groups := map[collKey][]laneEvent{}
	var order []collKey
	for _, k := range keys {
		for _, le := range t.lanes[k] {
			c := le.ev.Call
			if le.ev.Op == OpMPICall && c != nil && c.CollSeq > 0 {
				ck := collKey{c.Comm, c.CollSeq}
				if _, ok := groups[ck]; !ok {
					order = append(order, ck)
				}
				groups[ck] = append(groups[ck], le)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].comm != order[j].comm {
			return order[i].comm < order[j].comm
		}
		return order[i].seq < order[j].seq
	})
	for _, ck := range order {
		t.chain("coll", sortByLane(groups[ck]))
	}
}

// buildSyncFlows draws the fork/join and barrier edges from the
// SyncID groupings the OpenMP substrate tags its events with.
func (t *Timeline) buildSyncFlows(keys []laneKey) {
	type group struct {
		fork, join *laneEvent
		begins     []laneEvent
		ends       []laneEvent
		barriers   []laneEvent
	}
	groups := map[SyncID]*group{}
	grp := func(id SyncID) *group {
		g, ok := groups[id]
		if !ok {
			g = &group{}
			groups[id] = g
		}
		return g
	}
	for _, k := range keys {
		for i := range t.lanes[k] {
			le := t.lanes[k][i]
			switch le.ev.Op {
			case OpFork:
				grp(le.ev.Sync()).fork = &t.lanes[k][i]
			case OpJoin:
				grp(le.ev.Sync()).join = &t.lanes[k][i]
			case OpBegin:
				grp(le.ev.Sync()).begins = append(grp(le.ev.Sync()).begins, le)
			case OpEnd:
				grp(le.ev.Sync()).ends = append(grp(le.ev.Sync()).ends, le)
			case OpBarrier:
				grp(le.ev.Sync()).barriers = append(grp(le.ev.Sync()).barriers, le)
			}
		}
	}
	ids := make([]SyncID, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Rank != ids[j].Rank {
			return ids[i].Rank < ids[j].Rank
		}
		return ids[i].Seq < ids[j].Seq
	})
	for _, id := range ids {
		g := groups[id]
		if g.fork != nil {
			for _, b := range sortByLane(g.begins) {
				fid := t.flowID()
				t.flow("fork", "s", fid, *g.fork)
				t.flow("fork", "f", fid, b)
			}
		}
		if g.join != nil {
			for _, e := range sortByLane(g.ends) {
				fid := t.flowID()
				t.flow("join", "s", fid, e)
				t.flow("join", "f", fid, *g.join)
			}
		}
		t.chain("barrier", sortByLane(g.barriers))
	}
}

// buildLockFlows draws release→acquire hand-off arrows. The log's
// global order respects the real-time order of a lock's release and
// its successor's acquire, so pairing in log order is sound; the
// hand-off order itself is only schedule-stable when the lock is
// uncontended.
func (t *Timeline) buildLockFlows(events []Event) {
	type edge struct{ rel, acq Event }
	lastRel := map[LockID]*Event{}
	var edges []edge
	for i := range events {
		e := events[i]
		switch e.Op {
		case OpRelease:
			lastRel[e.Lock()] = &events[i]
		case OpAcquire:
			if r := lastRel[e.Lock()]; r != nil && (r.Rank != e.Rank || r.TID != e.TID) {
				edges = append(edges, edge{rel: *r, acq: e})
			}
			lastRel[e.Lock()] = nil
		}
	}
	for _, ed := range edges {
		id := t.flowID()
		t.flow("lock", "s", id, laneEvent{ev: ed.rel, ts: ed.rel.Time})
		t.flow("lock", "f", id, laneEvent{ev: ed.acq, ts: ed.acq.Time})
	}
}

// AddMarker overlays an instant event on the (rank, tid, ix)-th lane
// event — the witness overlay. Returns false when the coordinate does
// not exist in the log.
func (t *Timeline) AddMarker(rank, tid int, ix uint64, name string, args map[string]any) bool {
	lane := t.lanes[laneKey{rank, tid}]
	if ix >= uint64(len(lane)) {
		return false
	}
	t.events = append(t.events, TimelineEvent{
		Name: name, Ph: "i", Cat: "witness", S: "t",
		Ts: usOf(lane[ix].ts), Pid: rank, Tid: tid, Args: args,
	})
	return true
}

// flowID allocates the next flow identifier (assignment order is the
// deterministic build order above).
// Lanes returns the number of (rank, thread) lanes in the timeline.
func (t *Timeline) Lanes() int { return len(t.lanes) }

func (t *Timeline) flowID() uint64 {
	t.nextID++
	return t.nextID
}

func (t *Timeline) flow(name, ph string, id uint64, le laneEvent) {
	te := TimelineEvent{
		Name: name, Ph: ph, Cat: "flow", ID: id,
		Ts: usOf(le.ts), Pid: le.ev.Rank, Tid: le.ev.TID,
	}
	if ph == "f" {
		te.BP = "e"
	}
	t.events = append(t.events, te)
}

// chain links a sorted participant group with step flow events
// (s → t → ... → f), the trace_event idiom for n-way synchronization.
func (t *Timeline) chain(name string, les []laneEvent) {
	if len(les) < 2 {
		return
	}
	id := t.flowID()
	for i, le := range les {
		ph := "t"
		switch i {
		case 0:
			ph = "s"
		case len(les) - 1:
			ph = "f"
		}
		t.flow(name, ph, id, le)
	}
}

func sortByLane(les []laneEvent) []laneEvent {
	out := append([]laneEvent(nil), les...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].ev.Rank != out[j].ev.Rank {
			return out[i].ev.Rank < out[j].ev.Rank
		}
		return out[i].ev.TID < out[j].ev.TID
	})
	return out
}

func opEventName(e Event) string {
	switch e.Op {
	case OpRead, OpWrite:
		return fmt.Sprintf("%s %s", e.Op, e.Name)
	case OpAcquire, OpRelease:
		return fmt.Sprintf("%s %s", e.Op, e.Name)
	case OpMPICall:
		if e.Call != nil {
			return e.Call.Kind.String()
		}
	}
	return e.Op.String()
}

func opCategory(e Event) string {
	switch e.Op {
	case OpMPICall:
		return "mpi"
	case OpRead, OpWrite:
		return "mem"
	default:
		return "omp"
	}
}

func opArgs(e Event, ix uint64) map[string]any {
	args := map[string]any{"ix": ix}
	switch e.Op {
	case OpMPICall:
		if c := e.Call; c != nil {
			args["call"] = c.String()
			if c.SendIx > 0 {
				args["sendIx"] = c.SendIx
			}
			if c.MatchIx > 0 {
				args["match"] = fmt.Sprintf("p%d.t%d #%d", c.MatchRank, c.MatchTID, c.MatchIx)
			}
			if c.CollSeq > 0 {
				args["collSeq"] = c.CollSeq
			}
		}
	case OpRead, OpWrite:
		args["var"] = e.Loc().String()
	case OpFork, OpJoin, OpBegin, OpEnd, OpBarrier:
		args["sync"] = fmt.Sprintf("%d/%d", e.Rank, e.SyncSeq)
	}
	return args
}

// WriteJSON serializes the timeline as a Chrome trace_event JSON
// object, one event per line for diffable goldens. The rendering is
// deterministic: build order is deterministic and map-valued args
// marshal with sorted keys.
func (t *Timeline) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, te := range t.events {
		b, err := json.Marshal(te)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
