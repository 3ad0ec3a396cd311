// Package explain extracts causal witnesses for the verdicts of a
// HOME run: for every matched thread-safety violation and every raw
// concurrency report, the minimal evidence a user needs to believe —
// and debug — the verdict. A witness names the two conflicting
// accesses (or the offending call pair) by schedule-stable
// coordinates, the vector clocks observed at each access, the lockset
// held at each access together with the acquisition sites that
// produced it, the last realized cross-thread ordering edge into each
// access, and the missing happens-before edge as a concurrency
// certificate over the clock pair.
//
// Determinism: a witness never mentions global log sequence numbers
// or virtual timestamps — only (rank, tid, per-thread event index)
// coordinates, which are invariant under host-schedule perturbation.
// Given the same per-thread event streams (in particular a recorded
// run and its schedule replay), witness extraction is byte-stable.
package explain

import (
	"fmt"
	"sort"
	"strings"

	"home/internal/detect"
	"home/internal/sim"
	"home/internal/spec"
	"home/internal/trace"
	"home/internal/vclock"
)

// Hold is one lock in a site's lockset, with the acquisition site
// that put it there (the per-thread index of the Acquire event).
type Hold struct {
	Lock  string `json:"lock"`
	AcqIx uint64 `json:"acqIx"`
}

// Site is one side of a witness: an access or MPI call located by its
// schedule-stable lane coordinate (rank, tid, per-thread event index).
type Site struct {
	Rank  int    `json:"rank"`
	TID   int    `json:"tid"`
	Ix    uint64 `json:"ix"`
	Op    string `json:"op"`              // "Write srctmp", "MPI call", ...
	Call  string `json:"call,omitempty"`  // rendered MPI call record
	Line  int    `json:"line,omitempty"`  // source line of the call site
	Clock string `json:"clock,omitempty"` // vector clock at the access
	Locks []Hold `json:"locks,omitempty"` // lockset with acquisition sites
	// InEdge is the last realized cross-thread ordering edge into this
	// lane at or before the access (fork, barrier, join, or lock
	// hand-off) — the synchronization that did happen, against which
	// the missing edge is judged. Empty when the lane's history up to
	// the access is thread-local.
	InEdge string `json:"inEdge,omitempty"`
}

// Witness is the causal explanation of one verdict.
type Witness struct {
	// Kind is the violation class name, or "Race" for a concurrency
	// report not claimed by any matched violation.
	Kind    string `json:"kind"`
	Rank    int    `json:"rank"`
	Var     string `json:"var,omitempty"` // monitored variable, for race-backed verdicts
	Verdict string `json:"verdict"`
	Sites   []Site `json:"sites"`
	// Missing explains why no happens-before edge orders the pair (the
	// concurrency certificate), or, for pure lockset verdicts, why the
	// observed ordering does not protect the pair. Empty for
	// call-ordering violations, whose rule is the verdict itself.
	Missing string `json:"missing,omitempty"`
}

// String renders the witness as deterministic multi-line text.
func (w Witness) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", w.Verdict)
	labels := []string{"first", "second"}
	for i, s := range w.Sites {
		label := fmt.Sprintf("site%d", i+1)
		if i < len(labels) && len(w.Sites) <= 2 {
			label = labels[i]
		}
		fmt.Fprintf(&b, "  %-7s p%d.t%d #%d %s", label+":", s.Rank, s.TID, s.Ix, s.Op)
		if s.Call != "" {
			fmt.Fprintf(&b, " in %s", s.Call)
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "          locks held: %s\n", renderHolds(s.Locks))
		if s.Clock != "" {
			fmt.Fprintf(&b, "          clock: %s\n", s.Clock)
		}
		if s.InEdge != "" {
			fmt.Fprintf(&b, "          inbound edge: %s\n", s.InEdge)
		}
	}
	if w.Missing != "" {
		fmt.Fprintf(&b, "  missing: %s\n", w.Missing)
	}
	return b.String()
}

func renderHolds(holds []Hold) string {
	if len(holds) == 0 {
		return "none"
	}
	parts := make([]string, len(holds))
	for i, h := range holds {
		parts[i] = fmt.Sprintf("%s (acquired at #%d)", h.Lock, h.AcqIx)
	}
	return strings.Join(parts, ", ")
}

// Extract builds the witnesses for one run: one per matched violation
// (in the violations' order) followed by one per concurrency report
// no violation claimed (in the report's order). The race report must
// have been produced with detect.Options.Explain so accesses carry
// their clock snapshots.
func Extract(events []trace.Event, rep *detect.Report, violations []spec.Violation) []Witness {
	idx := newIndex(events)
	var out []Witness
	claimed := map[string]bool{}
	for _, v := range violations {
		w := idx.violationWitness(v)
		if v.Evidence != nil && v.Evidence.Race != nil {
			claimed[raceKey(*v.Evidence.Race)] = true
		}
		out = append(out, w)
	}
	if rep != nil {
		for _, r := range rep.Races {
			if claimed[raceKey(r)] {
				continue
			}
			w := idx.raceWitness(r)
			w.Kind = "Race"
			w.Verdict = fmt.Sprintf("race on %s: %s || %s",
				r.Loc, siteCoord(w.Sites[0]), siteCoord(w.Sites[1]))
			out = append(out, w)
		}
	}
	return out
}

// Overlay marks every witness site on the timeline with an instant
// event, so the textual witness and the timeline cross-reference.
func Overlay(t *trace.Timeline, ws []Witness) {
	for i, w := range ws {
		for _, s := range w.Sites {
			t.AddMarker(s.Rank, s.TID, s.Ix, "witness: "+w.Kind, map[string]any{
				"witness": i,
				"verdict": w.Verdict,
				"site":    fmt.Sprintf("%s at %s", s.Op, siteCoordRaw(s.Rank, s.TID, s.Ix)),
			})
		}
	}
}

func siteCoord(s Site) string { return siteCoordRaw(s.Rank, s.TID, s.Ix) }

func siteCoordRaw(rank, tid int, ix uint64) string {
	return fmt.Sprintf("p%d.t%d#%d", rank, tid, ix)
}

// raceKey identifies a race by its schedule-stable coordinates.
func raceKey(r detect.Race) string {
	return fmt.Sprintf("%s|%d.%d.%d|%d.%d.%d", r.Loc,
		r.First.Rank, r.First.TID, r.First.Ix,
		r.Second.Rank, r.Second.TID, r.Second.Ix)
}

// ---- log index ----

type laneKey struct{ rank, tid int }

// index holds the per-lane view of the event log plus the derived
// edge provenance witnesses are built from.
type index struct {
	events []trace.Event
	// lane maps (rank, tid) to the indices (into events) of that
	// thread's events, in lane order.
	lane map[laneKey][]int
	// ixOf maps an event's global Seq to its per-lane index.
	ixOf map[uint64]uint64
	// handoff maps an Acquire event's Seq to the Release event that
	// handed the lock over (cross-thread only), paired in log order.
	handoff map[uint64]trace.Event
	// forks/joins locate the parent-side events of each sync episode.
	forks map[trace.SyncID]trace.Event
	joins map[trace.SyncID]trace.Event
	// barriers lists each episode's arrival events.
	barriers map[trace.SyncID][]trace.Event
}

func newIndex(events []trace.Event) *index {
	idx := &index{
		events:   events,
		lane:     map[laneKey][]int{},
		ixOf:     map[uint64]uint64{},
		handoff:  map[uint64]trace.Event{},
		forks:    map[trace.SyncID]trace.Event{},
		joins:    map[trace.SyncID]trace.Event{},
		barriers: map[trace.SyncID][]trace.Event{},
	}
	lastRel := map[trace.LockID]*trace.Event{}
	for i, e := range events {
		k := laneKey{e.Rank, e.TID}
		idx.ixOf[e.Seq] = uint64(len(idx.lane[k]))
		idx.lane[k] = append(idx.lane[k], i)
		switch e.Op {
		case trace.OpFork:
			idx.forks[e.Sync()] = e
		case trace.OpJoin:
			idx.joins[e.Sync()] = e
		case trace.OpBarrier:
			idx.barriers[e.Sync()] = append(idx.barriers[e.Sync()], e)
		case trace.OpRelease:
			lastRel[e.Lock()] = &events[i]
		case trace.OpAcquire:
			if r := lastRel[e.Lock()]; r != nil && (r.Rank != e.Rank || r.TID != e.TID) {
				idx.handoff[e.Seq] = *r
			}
			lastRel[e.Lock()] = nil
		}
	}
	return idx
}

// violationWitness builds the witness for one matched violation from
// its evidence.
func (idx *index) violationWitness(v spec.Violation) Witness {
	w := Witness{Kind: v.Kind.String(), Rank: v.Rank, Verdict: v.String()}
	switch {
	case v.Evidence == nil:
		// Deduplicated duplicate: the verdict stands alone.
	case v.Evidence.Race != nil:
		rw := idx.raceWitness(*v.Evidence.Race)
		w.Var, w.Sites, w.Missing = rw.Var, rw.Sites, rw.Missing
	default:
		for _, e := range v.Evidence.Sites {
			w.Sites = append(w.Sites, idx.callSite(e))
		}
	}
	return w
}

// raceWitness builds the witness core for one concurrency report.
func (idx *index) raceWitness(r detect.Race) Witness {
	w := Witness{Rank: r.Loc.Rank, Var: r.Loc.Name}
	w.Sites = []Site{
		idx.accessSite(r.First, r.Loc),
		idx.accessSite(r.Second, r.Loc),
	}
	w.Missing = idx.missing(r)
	return w
}

// accessSite converts one side of a race into a located site.
func (idx *index) accessSite(a detect.Access, loc trace.Loc) Site {
	s := Site{
		Rank: a.Rank,
		TID:  a.TID,
		Ix:   a.Ix,
		Op:   fmt.Sprintf("%s %s", a.Op, loc.Name),
	}
	if a.Call != nil {
		s.Call = a.Call.String()
		s.Line = a.Call.Line
	}
	if a.Clock != nil {
		s.Clock = renderClock(a.Clock)
	}
	s.Locks = idx.holdsAt(s.Rank, s.TID, s.Ix)
	s.InEdge = idx.inEdge(s.Rank, s.TID, s.Ix)
	return s
}

// callSite converts a call-ordering evidence event into a site.
func (idx *index) callSite(e trace.Event) Site {
	s := Site{
		Rank: e.Rank,
		TID:  e.TID,
		Ix:   idx.ixOf[e.Seq],
		Op:   "MPI call",
	}
	if e.Call != nil {
		s.Call = e.Call.String()
		s.Line = e.Call.Line
	}
	s.Locks = idx.holdsAt(s.Rank, s.TID, s.Ix)
	s.InEdge = idx.inEdge(s.Rank, s.TID, s.Ix)
	return s
}

// holdsAt replays a lane's lock events up to (excluding) the given
// index and returns the locks held there with their acquisition
// sites, sorted by lock name.
func (idx *index) holdsAt(rank, tid int, at uint64) []Hold {
	held := map[string]uint64{}
	for i, ei := range idx.lane[laneKey{rank, tid}] {
		if uint64(i) >= at {
			break
		}
		e := idx.events[ei]
		switch e.Op {
		case trace.OpAcquire:
			held[e.Name] = uint64(i)
		case trace.OpRelease:
			delete(held, e.Name)
		}
	}
	names := make([]string, 0, len(held))
	for n := range held {
		names = append(names, n)
	}
	sort.Strings(names)
	holds := make([]Hold, len(names))
	for i, n := range names {
		holds[i] = Hold{Lock: n, AcqIx: held[n]}
	}
	return holds
}

// inEdge finds the last realized cross-thread ordering edge into the
// lane at or before the given index — the same edge classes the
// happens-before analysis honors (fork, barrier, join, lock
// hand-off).
func (idx *index) inEdge(rank, tid int, at uint64) string {
	lane := idx.lane[laneKey{rank, tid}]
	if at >= uint64(len(lane)) {
		at = uint64(len(lane))
	} else {
		at++ // the event at the index itself may be the edge (Acquire)
	}
	for i := int(at) - 1; i >= 0; i-- {
		e := idx.events[lane[i]]
		switch e.Op {
		case trace.OpBegin:
			if f, ok := idx.forks[e.Sync()]; ok {
				return fmt.Sprintf("forked by p%d.t%d (region p%d/%d) at #%d",
					f.Rank, f.TID, e.Rank, e.SyncSeq, i)
			}
		case trace.OpJoin:
			return fmt.Sprintf("joined region p%d/%d at #%d", e.Rank, e.SyncSeq, i)
		case trace.OpBarrier:
			var peers []string
			for _, b := range idx.barriers[e.Sync()] {
				if b.Rank != rank || b.TID != tid {
					peers = append(peers, fmt.Sprintf("p%d.t%d", b.Rank, b.TID))
				}
			}
			sort.Strings(peers)
			return fmt.Sprintf("barrier p%d/%d at #%d with %s",
				e.Rank, e.SyncSeq, i, strings.Join(peers, ", "))
		case trace.OpAcquire:
			if rel, ok := idx.handoff[e.Seq]; ok {
				return fmt.Sprintf("acquired %s at #%d after p%d.t%d released it at #%d",
					e.Name, i, rel.Rank, rel.TID, idx.ixOf[rel.Seq])
			}
		}
	}
	return ""
}

// missing renders the absent happens-before edge (the concurrency
// certificate over the captured clocks), or — when the pair is
// ordered but lockset-flagged — the failed lockset condition.
func (idx *index) missing(r detect.Race) string {
	a, b := r.First, r.Second
	var parts []string
	if r.LocksetRace {
		parts = append(parts, fmt.Sprintf("no common lock protects the accesses (locksets %s vs %s)",
			renderLockset(a.Lockset), renderLockset(b.Lockset)))
	}
	switch {
	case a.Clock == nil || b.Clock == nil:
		if r.HBRace {
			parts = append(parts, "no fork/join, barrier, or lock hand-off edge orders the pair")
		}
	case r.HBRace:
		if cert, ok := vclock.WhyConcurrent(a.Clock, b.Clock); ok {
			parts = append(parts, fmt.Sprintf(
				"no fork/join, barrier, or lock hand-off edge orders the pair: %s reached %s=%d (the other side saw %d) and %s reached %s=%d (the other side saw %d)",
				gidName(vclock.TID(sim.GID(a.Rank, a.TID))), gidName(cert.AT), cert.AV, b.Clock.Get(cert.AT),
				gidName(vclock.TID(sim.GID(b.Rank, b.TID))), gidName(cert.BT), cert.BV, a.Clock.Get(cert.BT)))
		}
	default:
		parts = append(parts, "the accesses are ordered in this schedule, but only by timing the lockset does not guarantee")
	}
	return strings.Join(parts, "; ")
}

func renderLockset(names []string) string {
	if len(names) == 0 {
		return "{}"
	}
	return "{" + strings.Join(names, ", ") + "}"
}

// renderClock renders a vector clock with (rank, thread) component
// names, components sorted by thread identity.
func renderClock(c *vclock.Packed) string {
	ents := c.Entries()
	parts := make([]string, len(ents))
	for i, e := range ents {
		parts[i] = fmt.Sprintf("%s:%d", gidName(e.T), e.V)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// gidName renders a clock-space thread identity as pR.tT.
func gidName(g vclock.TID) string {
	rank, tid := sim.RankTID(g)
	return fmt.Sprintf("p%d.t%d", rank, tid)
}
