package live

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"home/internal/sim"
	"home/internal/trace"
)

// RingSize is the number of recent events each (rank, tid) lane
// retains. The flight recorder exists to answer "what was everyone
// doing just before the run stopped making progress", so a small
// bounded window per thread suffices — the post-hoc witness machinery
// owns deep history.
const RingSize = 64

// FlightEntry is one retained runtime event, flattened for JSON.
type FlightEntry struct {
	// Seq is the lane-local emission ordinal (monotone per lane —
	// the global trace.Log sequence is assigned by a different sink).
	Seq int64 `json:"seq"`
	// Time is the emitting thread's virtual clock at emission.
	Time int64 `json:"virtualNs"`
	// Op is the event kind ("MPI_Send", "Write srctmp", "Barrier"...).
	Op string `json:"op"`
	// Line is the source line for MPI call records (0 if unknown).
	Line int `json:"line,omitempty"`
	// Detail carries the operand rendering (location, lock, peer/tag).
	Detail string `json:"detail,omitempty"`
}

// laneKey identifies one (rank, tid) ring.
type laneKey struct {
	Rank int
	TID  int
}

// lane is one thread's ring buffer.
type lane struct {
	mu   sync.Mutex
	buf  [RingSize]FlightEntry
	next int64 // total events pushed; buf[(next-1)%RingSize] is newest
}

func (l *lane) push(e FlightEntry) {
	l.mu.Lock()
	e.Seq = l.next
	l.buf[l.next%RingSize] = e
	l.next++
	l.mu.Unlock()
}

// tail returns the retained entries, oldest first.
func (l *lane) tail() []FlightEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if n > RingSize {
		out := make([]FlightEntry, 0, RingSize)
		for i := n - RingSize; i < n; i++ {
			out = append(out, l.buf[i%RingSize])
		}
		return out
	}
	out := make([]FlightEntry, n)
	copy(out, l.buf[:n])
	return out
}

// FlightRecorder is a trace.Sink retaining the last RingSize events
// per (rank, tid). It is appended to the pipeline's TeeSink, whose
// per-event virtual-time cost is charged whether or not a recorder is
// attached — so attaching one cannot perturb the simulation.
type FlightRecorder struct {
	h     *RunHandle
	mu    sync.RWMutex
	lanes map[laneKey]*lane
}

func newFlightRecorder(h *RunHandle) *FlightRecorder {
	return &FlightRecorder{h: h, lanes: map[laneKey]*lane{}}
}

// Emit implements trace.Sink. Nil-safe so callers can append the
// recorder unconditionally.
func (f *FlightRecorder) Emit(e trace.Event) {
	if f == nil {
		return
	}
	k := laneKey{Rank: e.Rank, TID: e.TID}
	f.mu.RLock()
	ln := f.lanes[k]
	f.mu.RUnlock()
	if ln == nil {
		f.mu.Lock()
		ln = f.lanes[k]
		if ln == nil {
			ln = &lane{}
			f.lanes[k] = ln
		}
		f.mu.Unlock()
	}
	ln.push(flatten(e))
	if f.h != nil {
		f.h.countEvent()
	}
}

// flatten renders a trace event into the flight-entry form.
func flatten(e trace.Event) FlightEntry {
	fe := FlightEntry{Time: e.Time}
	switch e.Op {
	case trace.OpRead, trace.OpWrite, trace.OpAcquire, trace.OpRelease:
		fe.Op = e.Op.String()
		fe.Detail = e.Name
	case trace.OpMPICall:
		if e.Call != nil {
			fe.Op = e.Call.Kind.String()
			fe.Line = e.Call.Line
			fe.Detail = fmt.Sprintf("peer=%d tag=%d comm=%d", e.Call.Peer, e.Call.Tag, e.Call.Comm)
		} else {
			fe.Op = e.Op.String()
		}
	default:
		fe.Op = e.Op.String()
		fe.Detail = fmt.Sprintf("sync=%d", e.SyncSeq)
	}
	return fe
}

// Events returns the total number of events the recorder has seen.
func (f *FlightRecorder) Events() int64 {
	if f == nil {
		return 0
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	var n int64
	for _, ln := range f.lanes {
		ln.mu.Lock()
		n += ln.next
		ln.mu.Unlock()
	}
	return n
}

// FlightLane is one (rank, tid) window of a dump.
type FlightLane struct {
	Rank    int           `json:"rank"`
	TID     int           `json:"tid"`
	Total   int64         `json:"total"`
	Entries []FlightEntry `json:"entries"`
}

// FlightDump is the "what was everyone doing" table: every lane's
// retained window plus the runtime's blocked-op snapshot at capture.
type FlightDump struct {
	Run    string `json:"run"`
	Reason string `json:"reason"`
	// Blocked is the watchdog's wait-for table at capture time: one
	// row per blocked (rank, tid) naming the op it is stuck in.
	Blocked []sim.BlockedOp `json:"blocked,omitempty"`
	Lanes   []FlightLane    `json:"lanes"`
}

// Dump snapshots every lane (sorted by rank then tid) together with
// the current blocked-op table.
func (f *FlightRecorder) Dump(reason string) *FlightDump {
	if f == nil {
		return &FlightDump{Reason: reason}
	}
	d := &FlightDump{Reason: reason}
	if f.h != nil {
		d.Run = f.h.id
		d.Blocked = f.h.Blocked()
	}
	f.mu.RLock()
	keys := make([]laneKey, 0, len(f.lanes))
	for k := range f.lanes {
		keys = append(keys, k)
	}
	f.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Rank != keys[j].Rank {
			return keys[i].Rank < keys[j].Rank
		}
		return keys[i].TID < keys[j].TID
	})
	for _, k := range keys {
		f.mu.RLock()
		ln := f.lanes[k]
		f.mu.RUnlock()
		ln.mu.Lock()
		total := ln.next
		ln.mu.Unlock()
		d.Lanes = append(d.Lanes, FlightLane{
			Rank:    k.Rank,
			TID:     k.TID,
			Total:   total,
			Entries: ln.tail(),
		})
	}
	return d
}

// String renders the dump as the human-readable table printed when a
// run stops making progress: blocked ops first, then each lane's last
// few events newest-last.
func (d *FlightDump) String() string {
	if d == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder dump (%s)\n", d.Reason)
	for _, op := range d.Blocked {
		fmt.Fprintf(&b, "  blocked: rank %d thread %d in %s\n", op.Rank, op.TID, op.Detail)
	}
	for _, ln := range d.Lanes {
		fmt.Fprintf(&b, "  rank %d thread %d (%d events, last %d):\n", ln.Rank, ln.TID, ln.Total, len(ln.Entries))
		for _, e := range ln.Entries {
			line := ""
			if e.Line > 0 {
				line = fmt.Sprintf(" line %d", e.Line)
			}
			fmt.Fprintf(&b, "    #%d t=%dns %s %s%s\n", e.Seq, e.Time, e.Op, e.Detail, line)
		}
	}
	return b.String()
}
