// Package detect implements HOME's dynamic concurrency analyses over
// an instrumentation event log: Eraser-style lockset analysis and
// vector-clock happens-before analysis (paper §IV-D).
//
// The analyses replay the observed interleaving (the log's sequence
// order) and report *races*: pairs of conflicting accesses to the same
// location from different threads, at least one a write, that are
//
//   - lockset races: the threads held no common lock across the two
//     accesses (Savage et al., Eraser), and
//   - happens-before races: neither access is ordered before the other
//     by the synchronization in the trace (fork/join, barriers, lock
//     release-to-acquire edges), per Lamport's partial order.
//
// Following the paper, the default mode requires BOTH conditions: the
// lockset check finds schedule-independent candidates, and the
// happens-before check suppresses the false positives pure lockset
// analysis would report around fork/join and barrier synchronization.
// Single-analysis modes are provided for the ablation experiments and
// for the baseline tool models.
//
// Neither analysis requires the race to manifest in the observed run:
// both reason about the synchronization structure, so a potential
// violation is reported even when the observed schedule happened to
// serialize the accesses (the property the paper contrasts with
// Marmot).
//
// Analysis is one pass over the log, in order. The replay builds the
// happens-before relation, and each access is checked on arrival,
// against its thread's live clock, with the location's history window:
// the location's first MaxHistoryPerLoc accesses, the only ones kept.
// The window is grouped by epoch class (thread, access kind, interned
// lockset): a thread's own clock component never decreases, so within
// a class the accesses not ordered before a later access are a suffix,
// found by one binary search, and the lockset test is one cached lookup
// per class. A saturated window is thus counted rather than re-walked;
// only an access with a reportable pair, while its location is still
// under MaxRacesPerLoc, walks the window pair by pair to emit races.
// An access past the window has its pairs counted, and is dropped and
// counted in detect.window_dropped.
package detect

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"home/internal/obs"
	"home/internal/sim"
	"home/internal/trace"
	"home/internal/vclock"
)

// Mode selects which analyses gate a race report.
type Mode int

const (
	// ModeCombined requires a lockset race AND happens-before
	// concurrency (HOME's configuration).
	ModeCombined Mode = iota
	// ModeLocksetOnly reports pure Eraser races.
	ModeLocksetOnly
	// ModeHappensBeforeOnly reports pure vector-clock races.
	ModeHappensBeforeOnly
)

func (m Mode) String() string {
	switch m {
	case ModeCombined:
		return "lockset+happens-before"
	case ModeLocksetOnly:
		return "lockset"
	case ModeHappensBeforeOnly:
		return "happens-before"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode maps a mode name as the command-line tools and the
// daemon take it: "combined" (or "", the default), "lockset" or "hb".
func ParseMode(name string) (Mode, bool) {
	switch name {
	case "", "combined":
		return ModeCombined, true
	case "lockset":
		return ModeLocksetOnly, true
	case "hb":
		return ModeHappensBeforeOnly, true
	}
	return 0, false
}

// Options configures an analysis run.
type Options struct {
	Mode Mode

	// IgnoreLocks drops Acquire/Release events before analysis,
	// modelling a tool that cannot recognize the program's locking
	// discipline (the paper attributes Intel Thread Checker's false
	// positive on BT-MZ and its missed omp-critical-guarded probe
	// checks to exactly this).
	IgnoreLocks bool

	// MaxHistoryPerLoc bounds the retained access history per
	// location (0 means DefaultMaxHistory). Monitored variables see
	// one write per MPI call, so long NPB runs need the bound.
	MaxHistoryPerLoc int

	// MaxRacesPerLoc bounds reported races per location (0 means
	// DefaultMaxRaces); the spec matcher needs representatives, not
	// every pair.
	MaxRacesPerLoc int

	// Stats, when non-nil, receives the analysis counters (events
	// consumed, vector-clock comparisons, lockset sizes, candidate vs
	// confirmed races).
	Stats *obs.Registry

	// Explain captures the full vector clock observed at each access of
	// a reported race (not just the epoch), the witness material
	// package explain extracts the concurrency certificate from. Each
	// access kept in a history window or reported takes an O(1) frozen
	// snapshot; the thread's next join then clones its clock once.
	Explain bool
}

// Default history/report bounds.
const (
	DefaultMaxHistory = 512
	DefaultMaxRaces   = 32
)

// Access is one side of a reported race.
type Access struct {
	Rank    int
	TID     int
	Time    int64
	Op      trace.Op
	Lockset []string       // lock names held, sorted
	Call    *trace.MPICall // the MPI call that performed the access, if any

	// Ix is the 0-based index of this event within its (rank, tid)
	// lane — a schedule-stable coordinate, unlike the log's global
	// arrival order.
	Ix uint64
	// Clock is the thread's full vector clock at the access (before
	// the access's own tick). Populated only under Options.Explain;
	// explain uses it to extract the concurrency certificate.
	Clock *vclock.Packed
}

// String renders the access by its lane coordinate, e.g.
// "p0.t1[7] Write in MPI_Recv(...)", so race text does not depend on
// how the host interleaved the threads.
func (a Access) String() string {
	s := fmt.Sprintf("p%d.t%d[%d] %s", a.Rank, a.TID, a.Ix, a.Op)
	if a.Call != nil {
		s += " in " + a.Call.String()
	}
	return s
}

// Race is a pair of conflicting, concurrent accesses to one location.
type Race struct {
	Loc           trace.Loc
	First, Second Access

	// LocksetRace / HBRace record which analyses flagged the pair
	// (both true in combined mode by construction).
	LocksetRace bool
	HBRace      bool
}

func (r Race) String() string {
	return fmt.Sprintf("race on %s: %s || %s", r.Loc, r.First, r.Second)
}

// Report is the outcome of analyzing one event log.
type Report struct {
	Mode  Mode
	Races []Race

	// EventsAnalyzed counts the events replayed.
	EventsAnalyzed int
}

// Concurrent reports whether any race was found on the named monitored
// variable at the given rank — the paper's Concurrent(var) predicate.
func (r *Report) Concurrent(rank int, name string) bool {
	for _, rc := range r.Races {
		if rc.Loc.Rank == rank && rc.Loc.Name == name {
			return true
		}
	}
	return false
}

// threadState is the replay state of one logical thread.
type threadState struct {
	clock *vclock.Packed
	ls    lsID   // locks held
	ix    uint64 // the lane index the thread's next event gets
}

// accessRec is an access as the pair checks see it. It points at its
// event, which stays put in the log for the whole analysis, rather
// than copying the event's fields: the rank, thread, time and call
// are read only when a race names the access.
type accessRec struct {
	ev    *trace.Event
	clock *vclock.Packed // frozen clock snapshot (Explain only)
	epoch uint64         // last-write epoch: component at eslot, pre-tick (FastTrack)
	ix    uint64         // per-lane event index
	gid   vclock.TID
	eslot vclock.Slot // the accessor's own slot
	ls    lsID        // locks held
	side  int32       // 1 + its index in analyzer.sides once a race names it
	op    trace.Op    // the event's op, kept beside the epoch for the pair tests
}

// locState is the detector state of one location: its history window
// (the first MaxHistoryPerLoc accesses), the window's epoch classes,
// and the races reported so far in arrival order.
type locState struct {
	window  []accessRec
	classes []epochClass
	races   []raceRec
}

// raceRec is a race as the scan stores it: its two accesses, as
// indexes into analyzer.sides in canonical order, and its verdicts.
type raceRec struct {
	first, second  int32
	lsRace, hbRace bool
}

// analyzer carries the replay state.
type analyzer struct {
	opts    Options
	space   *vclock.Space
	threads map[vclock.TID]*threadState
	// fork snapshots and join accumulators per sync episode
	forkClocks map[trace.SyncID]*vclock.Packed
	joinAccs   map[trace.SyncID]*vclock.Packed
	// barrier episodes: expected participant count (from pre-pass) and
	// accumulated state
	barrierExpect  map[trace.SyncID]int
	barrierArrived map[trace.SyncID][]vclock.TID
	barrierMerge   map[trace.SyncID]*vclock.Packed
	// lock vector clocks for release->acquire edges; a lock is named
	// within its rank, so same-named locks of two ranks never hand off
	lockClocks map[trace.LockID]*vclock.Packed
	locksets   locksets
	locs       map[trace.Loc]*locState
	// sides holds every access a race names, built once, in the order
	// the scan first named them.
	sides []Access

	tally pairTally
	st    analyzerStats
}

// analyzerStats caches the analysis's observability handles (all nil
// when no registry is configured; see package obs).
//
// Stat names:
//
//	detect.events             events consumed by the analyses
//	detect.vc_comparisons     access pairs decided by the epoch test
//	detect.vc_joins           full-width vector-clock joins performed
//	detect.epoch_hits         O(width) joins elided by O(1) epoch adoption
//	detect.vc_width           vector-clock component high-water mark (gauge)
//	detect.lockset_size       lockset size per access (histogram)
//	detect.lockset_candidates access pairs the lockset analysis flagged
//	detect.hb_candidates      access pairs happens-before found concurrent
//	detect.confirmed_races    pairs the configured mode reported
//	detect.window_dropped     accesses past their location's history window
//
// The four pair counters count access pairs, as a pair-by-pair scan
// would, but the detector adds them per epoch class: one binary search
// decides the epoch test for every pair a class forms with an access.
// vc_comparisons thus cost O(1) each or less; vc_joins are the
// O(width) operations — the detector's true vector-clock hot path,
// which is why the hotspot profile reports both. epoch_hits counts the
// synchronization edges (fork→begin adoption, an episode's first
// end-contribution, barrier publication and completion) where the
// packed clock's epoch fast path replaced a full join with an O(1)
// slice share; every hit is a join the map-backed detector would have
// performed. Both counts depend only on the trace's synchronization
// structure, not on host scheduling, so they stay gate-worthy
// deterministic metrics.
type analyzerStats struct {
	events      *obs.Counter
	vcCompares  *obs.Counter
	vcJoins     *obs.Counter
	epochHits   *obs.Counter
	vcWidth     *obs.Gauge
	locksetSize *obs.Histogram
	lsCandid    *obs.Counter
	hbCandid    *obs.Counter
	confirmed   *obs.Counter
	dropped     *obs.Counter
}

func newAnalyzerStats(reg *obs.Registry) analyzerStats {
	return analyzerStats{
		events:      reg.Counter("detect.events"),
		vcCompares:  reg.Counter("detect.vc_comparisons"),
		vcJoins:     reg.Counter("detect.vc_joins"),
		epochHits:   reg.Counter("detect.epoch_hits"),
		vcWidth:     reg.Gauge("detect.vc_width"),
		locksetSize: reg.Histogram("detect.lockset_size"),
		lsCandid:    reg.Counter("detect.lockset_candidates"),
		hbCandid:    reg.Counter("detect.hb_candidates"),
		confirmed:   reg.Counter("detect.confirmed_races"),
		dropped:     reg.Counter("detect.window_dropped"),
	}
}

// newAnalyzer builds the replay state (opts already defaulted).
func newAnalyzer(opts Options) *analyzer {
	return &analyzer{
		opts:           opts,
		st:             newAnalyzerStats(opts.Stats),
		space:          vclock.NewSpace(),
		threads:        make(map[vclock.TID]*threadState),
		forkClocks:     make(map[trace.SyncID]*vclock.Packed),
		joinAccs:       make(map[trace.SyncID]*vclock.Packed),
		barrierExpect:  make(map[trace.SyncID]int),
		barrierArrived: make(map[trace.SyncID][]vclock.TID),
		barrierMerge:   make(map[trace.SyncID]*vclock.Packed),
		lockClocks:     make(map[trace.LockID]*vclock.Packed),
		locksets:       newLocksets(),
		locs:           make(map[trace.Loc]*locState),
	}
}

// report assembles the races in canonical order: by location (rank,
// name), then by the lane coordinates of First and then Second. Each
// race is copied once, into a list allocated at its final length; a
// report without races keeps a nil list.
func (a *analyzer) report() *Report {
	rep := &Report{Mode: a.opts.Mode}
	type locRaces struct {
		loc   trace.Loc
		races []raceRec
	}
	var locs []locRaces
	n := 0
	for l, ls := range a.locs {
		if len(ls.races) > 0 {
			locs = append(locs, locRaces{l, ls.races})
			n += len(ls.races)
		}
	}
	if n == 0 {
		return rep
	}
	slices.SortFunc(locs, func(x, y locRaces) int {
		if c := cmp.Compare(x.loc.Rank, y.loc.Rank); c != 0 {
			return c
		}
		return strings.Compare(x.loc.Name, y.loc.Name)
	})
	rep.Races = make([]Race, 0, n)
	for _, l := range locs {
		// Arrival order within a location depends on how the host
		// interleaved the threads; sort by the canonical pair
		// coordinates so reports are stable.
		slices.SortFunc(l.races, func(x, y raceRec) int {
			if c := laneCmp(&a.sides[x.first], &a.sides[y.first]); c != 0 {
				return c
			}
			return laneCmp(&a.sides[x.second], &a.sides[y.second])
		})
		for _, r := range l.races {
			rep.Races = append(rep.Races, Race{
				Loc:         l.loc,
				First:       a.sides[r.first],
				Second:      a.sides[r.second],
				LocksetRace: r.lsRace,
				HBRace:      r.hbRace,
			})
		}
	}
	return rep
}

// Analyze replays the event log and returns the race report.
func Analyze(events []trace.Event, opts Options) *Report {
	return AnalyzeChunks([][]trace.Event{events}, opts)
}

// AnalyzeChunks replays an event log held as consecutive chunks, such
// as trace.Log.Chunks returns, and returns the race report. The
// analysis reads the events in place, and the report's accesses are
// built from them, so the chunks must not change while it runs.
func AnalyzeChunks(chunks [][]trace.Event, opts Options) *Report {
	if opts.MaxHistoryPerLoc <= 0 {
		opts.MaxHistoryPerLoc = DefaultMaxHistory
	}
	if opts.MaxRacesPerLoc <= 0 {
		opts.MaxRacesPerLoc = DefaultMaxRaces
	}
	a := newAnalyzer(opts)

	// Pre-pass: barrier participant counts per episode. Every
	// participant emits exactly one OpBarrier per episode before any
	// of them proceeds, so in log order all arrivals of an episode
	// precede all post-barrier events of its participants.
	n := 0
	for _, c := range chunks {
		n += len(c)
		for i := range c {
			if c[i].Op == trace.OpBarrier {
				a.barrierExpect[c[i].Sync()]++
			}
		}
	}

	for _, c := range chunks {
		for i := range c {
			a.step(&c[i])
		}
	}
	a.tally.add(&a.st)

	rep := a.report()
	rep.EventsAnalyzed = n
	return rep
}

// thread returns (creating) the state for a (rank, tid) thread.
func (a *analyzer) thread(rank, tid int) (*threadState, vclock.TID) {
	gid := sim.GID(rank, tid)
	st, ok := a.threads[gid]
	if !ok {
		st = &threadState{clock: a.space.Clock(gid)}
		st.clock.Tick()
		a.threads[gid] = st
	}
	return st, gid
}

// step processes one event.
func (a *analyzer) step(e *trace.Event) {
	a.st.events.Inc()
	st, gid := a.thread(e.Rank, e.TID)
	ix := st.ix
	st.ix++
	switch e.Op {
	case trace.OpFork:
		a.forkClocks[e.Sync()] = st.clock.Publish()
	case trace.OpBegin:
		if fc, ok := a.forkClocks[e.Sync()]; ok {
			// The fork snapshot dominates everything the member thread
			// has seen except its own ticks (the member's last
			// contribution flowed to the parent through the previous
			// region's join), so adoption nearly always applies.
			a.adoptOrJoin(st.clock, fc)
		}
	case trace.OpEnd:
		acc, ok := a.joinAccs[e.Sync()]
		if !ok {
			// The episode's first contribution IS the accumulator:
			// publishing the member's clock replaces the join into an
			// empty clock the map-backed detector performs.
			a.joinAccs[e.Sync()] = st.clock.Publish()
			a.st.epochHits.Inc()
			a.st.vcWidth.Observe(int64(st.clock.Components()))
			break
		}
		a.join(acc, st.clock)
	case trace.OpJoin:
		if acc, ok := a.joinAccs[e.Sync()]; ok {
			a.join(st.clock, acc)
		}
	case trace.OpBarrier:
		a.barrier(e.Sync(), gid, st)
	case trace.OpAcquire:
		if !a.opts.IgnoreLocks {
			if lc, ok := a.lockClocks[e.Lock()]; ok {
				a.join(st.clock, lc)
			}
			st.ls = a.locksets.move(st.ls, e.Name, true)
		}
	case trace.OpRelease:
		if !a.opts.IgnoreLocks {
			a.lockClocks[e.Lock()] = st.clock.Publish()
			st.ls = a.locksets.move(st.ls, e.Name, false)
		}
	case trace.OpRead, trace.OpWrite:
		a.access(e, st, gid, ix)
	case trace.OpMPICall:
		// Call records are consumed by the spec matcher, not the race
		// analyses.
	}
	st.clock.Tick()
}

// join performs a full-width O(width) clock join — the analyzer's
// vector-clock hot path — counting it and tracking the width
// high-water mark for the hotspot profile.
func (a *analyzer) join(dst, src *vclock.Packed) {
	dst.Join(src)
	a.st.vcJoins.Inc()
	a.st.vcWidth.Observe(int64(dst.Components()))
}

// adoptOrJoin takes the O(1) epoch-adoption fast path when it
// applies, falling back to the counted full join. Whether adoption
// applies at a given synchronization edge depends only on the trace's
// happens-before structure — never on host scheduling — so the two
// counters stay deterministic.
func (a *analyzer) adoptOrJoin(dst, src *vclock.Packed) {
	if dst.Adopt(src) {
		a.st.epochHits.Inc()
		a.st.vcWidth.Observe(int64(dst.Components()))
		return
	}
	a.join(dst, src)
}

// barrier accumulates one arrival; the last arrival merges every
// participant's clock into all of them (everything before the barrier
// happens-before everything after it). The first arrival's published
// clock seeds the merge, and completion distributes the merge by
// adoption: a participant's clock differs from its arrival snapshot
// only by its own post-arrival tick, which the packed clock keeps
// out-of-line, so sharing the merge slice is exactly the join result.
func (a *analyzer) barrier(s trace.SyncID, gid vclock.TID, st *threadState) {
	merge, ok := a.barrierMerge[s]
	if !ok {
		merge = st.clock.Publish()
		a.barrierMerge[s] = merge
		a.st.epochHits.Inc()
		a.st.vcWidth.Observe(int64(merge.Components()))
	} else {
		a.join(merge, st.clock)
	}
	a.barrierArrived[s] = append(a.barrierArrived[s], gid)
	if len(a.barrierArrived[s]) >= a.barrierExpect[s] {
		for _, g := range a.barrierArrived[s] {
			a.adoptOrJoin(a.threads[g].clock, merge)
		}
		delete(a.barrierArrived, s)
		delete(a.barrierMerge, s)
	}
}

// access checks an arriving access against its location's history
// window and, while the window has room, enters it. The thread's live
// clock is exactly the clock the access observed: nothing happens
// between the access and its check.
func (a *analyzer) access(e *trace.Event, st *threadState, gid vclock.TID, ix uint64) {
	a.st.locksetSize.Observe(int64(len(a.locksets.names[st.ls])))
	loc := e.Loc()
	l := a.locs[loc]
	if l == nil {
		l = &locState{}
		a.locs[loc] = l
	}
	rec := accessRec{
		ev:    e,
		epoch: st.clock.OwnV(),
		ix:    ix,
		gid:   gid,
		eslot: st.clock.OwnSlot(),
		ls:    st.ls,
		op:    e.Op,
	}
	emit := a.countPairs(l, &rec, st.clock) && len(l.races) < a.opts.MaxRacesPerLoc
	keep := len(l.window) < a.opts.MaxHistoryPerLoc
	if a.opts.Explain && (emit || keep) {
		rec.clock = st.clock.Snapshot()
	}
	if emit {
		a.reportPairs(l, &rec, st.clock)
	}
	if keep {
		l.window = append(l.window, rec)
		l.addToClass(&rec)
	} else {
		a.tally.dropped++
	}
}

// pairTally accumulates the pair counters and the window drops
// locally; they reach the registry once per analysis.
type pairTally struct {
	vcCompares, lsCandid, hbCandid, confirmed, dropped int64
}

func (t *pairTally) add(st *analyzerStats) {
	st.vcCompares.Add(t.vcCompares)
	st.lsCandid.Add(t.lsCandid)
	st.hbCandid.Add(t.hbCandid)
	st.confirmed.Add(t.confirmed)
	st.dropped.Add(t.dropped)
}

// epochClass is the part of a location's history window one thread
// contributed with one access kind under one lockset. Its epochs are
// in arrival order, which is sorted order: a thread's own clock
// component never decreases.
type epochClass struct {
	gid   vclock.TID
	slot  vclock.Slot
	write bool
	ls    lsID
	evs   []uint64
}

// addToClass enters a record into the window's epoch classes.
func (l *locState) addToClass(r *accessRec) {
	write := r.op == trace.OpWrite
	for i := range l.classes {
		c := &l.classes[i]
		if c.gid == r.gid && c.write == write && c.ls == r.ls {
			c.evs = append(c.evs, r.epoch)
			return
		}
	}
	l.classes = append(l.classes, epochClass{
		gid: r.gid, slot: r.eslot, write: write, ls: r.ls, evs: []uint64{r.epoch},
	})
}

// countPairs tallies the pairs rec, observing clock, forms with the
// location's history window and reports whether the configured mode
// reports any of them. Per class, the lockset verdict is shared by
// every pair, and the pairs not ordered before rec are those whose
// epoch the clock has not observed — a suffix of the sorted epochs.
func (a *analyzer) countPairs(l *locState, rec *accessRec, clock *vclock.Packed) (reportable bool) {
	write := rec.op == trace.OpWrite
	tally := &a.tally
	for i := range l.classes {
		c := &l.classes[i]
		if c.gid == rec.gid || (!c.write && !write) {
			continue
		}
		n := int64(len(c.evs))
		hb := n - int64(upperBound(c.evs, clock.AtSlot(c.slot)))
		ls := a.locksets.disjoint(c.ls, rec.ls)
		tally.vcCompares += n
		tally.hbCandid += hb
		if ls {
			tally.lsCandid += n
		}
		var confirmed int64
		if a.reports(ls, true) {
			confirmed += hb
		}
		if a.reports(ls, false) {
			confirmed += n - hb
		}
		tally.confirmed += confirmed
		reportable = reportable || confirmed > 0
	}
	return reportable
}

// reports applies the configured mode to one pair's verdicts.
func (a *analyzer) reports(lsRace, hbRace bool) bool {
	switch a.opts.Mode {
	case ModeCombined:
		return lsRace && hbRace
	case ModeLocksetOnly:
		return lsRace
	case ModeHappensBeforeOnly:
		return hbRace
	}
	return false
}

// upperBound returns the number of epochs in the sorted evs that are
// <= seen.
func upperBound(evs []uint64, seen uint64) int {
	lo, hi := 0, len(evs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if evs[m] <= seen {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// reportPairs walks the location's history window in arrival order
// and appends the races rec, observing clock, forms with it until the
// location reaches MaxRacesPerLoc.
func (a *analyzer) reportPairs(l *locState, rec *accessRec, clock *vclock.Packed) {
	for i := range l.window {
		if len(l.races) >= a.opts.MaxRacesPerLoc {
			break
		}
		prev := &l.window[i]
		if prev.gid == rec.gid || (prev.op != trace.OpWrite && rec.op != trace.OpWrite) {
			continue
		}
		lsRace := a.locksets.disjoint(prev.ls, rec.ls)
		// prev happened earlier in the log; it is ordered before the
		// current access iff its epoch has been observed by the
		// current thread's clock (FastTrack's epoch test).
		hbRace := prev.epoch > clock.AtSlot(prev.eslot)
		if !a.reports(lsRace, hbRace) {
			continue
		}
		first, second := a.side(prev), a.side(rec)
		// The pair order is canonical — by schedule-stable lane
		// coordinate rather than log arrival order — so reports do
		// not depend on the host schedule.
		if laneCmp(&a.sides[first], &a.sides[second]) > 0 {
			first, second = second, first
		}
		l.races = append(l.races, raceRec{first, second, lsRace, hbRace})
	}
}

// side returns the index of r in a.sides, building its Access the
// first time a race names it.
func (a *analyzer) side(r *accessRec) int32 {
	if r.side == 0 {
		e := r.ev
		a.sides = append(a.sides, Access{
			Rank: e.Rank, TID: e.TID, Time: e.Time,
			Op: e.Op, Lockset: a.locksets.names[r.ls], Call: e.Call,
			Ix: r.ix, Clock: r.clock,
		})
		r.side = int32(len(a.sides))
	}
	return r.side - 1
}

// laneCmp orders accesses by their schedule-stable coordinate
// (rank, tid, lane index).
func laneCmp(a, b *Access) int {
	if c := cmp.Compare(a.Rank, b.Rank); c != 0 {
		return c
	}
	if c := cmp.Compare(a.TID, b.TID); c != 0 {
		return c
	}
	return cmp.Compare(a.Ix, b.Ix)
}

// lsID names an interned lockset; 0 is the empty set.
type lsID int32

// locksets interns the sets of held lock names an analysis meets. A
// thread's set changes one name at a time, so the acquire and release
// transitions are memoized, as is the disjointness of each id pair:
// the replay and the pair checks never build or compare sets per access.
// Every access of a reported race shares its set's names slice, which
// is never nil, so an empty lockset renders as [].
type locksets struct {
	names [][]string // sorted lock names per id
	ids   map[string]lsID
	moves map[lsMove]lsID
	disj  map[[2]lsID]bool
}

type lsMove struct {
	from    lsID
	name    string
	acquire bool
}

func newLocksets() locksets {
	return locksets{
		names: [][]string{{}},
		ids:   map[string]lsID{"": 0},
		moves: make(map[lsMove]lsID),
		disj:  make(map[[2]lsID]bool),
	}
}

// move returns the id of from with name acquired (added) or released
// (removed).
func (s *locksets) move(from lsID, name string, acquire bool) lsID {
	k := lsMove{from, name, acquire}
	if to, ok := s.moves[k]; ok {
		return to
	}
	cur := s.names[from]
	i := sort.SearchStrings(cur, name)
	held := i < len(cur) && cur[i] == name
	next := cur
	switch {
	case acquire && !held:
		next = append(append(append(make([]string, 0, len(cur)+1), cur[:i]...), name), cur[i:]...)
	case !acquire && held:
		next = append(append(make([]string, 0, len(cur)-1), cur[:i]...), cur[i+1:]...)
	}
	var key strings.Builder
	for _, n := range next {
		key.WriteString(n)
		key.WriteByte(0)
	}
	to, ok := s.ids[key.String()]
	if !ok {
		to = lsID(len(s.names))
		s.ids[key.String()] = to
		s.names = append(s.names, next)
	}
	s.moves[k] = to
	return to
}

// disjoint reports whether two locksets share no lock.
func (s *locksets) disjoint(a, b lsID) bool {
	if a == 0 || b == 0 {
		return true
	}
	if a == b {
		return false
	}
	if a > b {
		a, b = b, a
	}
	d, ok := s.disj[[2]lsID{a, b}]
	if !ok {
		x, y := s.names[a], s.names[b]
		d = true
		for i, j := 0, 0; d && i < len(x) && j < len(y); {
			switch {
			case x[i] == y[j]:
				d = false
			case x[i] < y[j]:
				i++
			default:
				j++
			}
		}
		s.disj[[2]lsID{a, b}] = d
	}
	return d
}
