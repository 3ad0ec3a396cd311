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
// The analysis replays the log in order. The replay builds the
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
//
// Analysis is one in-order replay per rank. Every happens-before edge
// the replay draws is rank-local: fork, begin, end, join and barrier
// episodes, locks and locations are all named within the emitting
// rank (trace.Event's Sync, Lock and Loc take the event's own Rank),
// and the paper's monitored variables are per process. So each rank
// owns its replay state: a clock space of its own threads only, whose
// clocks are as wide as the rank's team; its threads, by tid; its
// episode and lock clocks, by episode number and lock name; and its
// locations, by name. No state crosses ranks. AnalyzeChunks replays
// the ranks on parallel workers, each reading the whole log in place
// and stepping only its own ranks' events. A rank's events keep their
// log order on whichever worker replays them, so the report and the
// stats do not depend on the worker count.
package detect

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

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
// are read only when a race names the access. Its rank's clock slot
// names its thread.
type accessRec struct {
	ev    *trace.Event
	clock *vclock.Packed // frozen clock snapshot (Explain only)
	epoch uint64         // last-write epoch: component at eslot, pre-tick (FastTrack)
	ix    uint64         // per-lane event index
	eslot vclock.Slot    // the accessor's own slot
	ls    lsID           // locks held
	side  int32          // 1 + its index in its worker's sides once a race names it
	op    trace.Op       // the event's op, kept beside the epoch for the pair tests
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
// indexes into its worker's sides in canonical order, and its verdicts.
type raceRec struct {
	first, second  int32
	lsRace, hbRace bool
}

// rankState is the replay state of one rank. Nothing in it is shared
// with another rank, and only the worker that owns the rank reads or
// writes it.
type rankState struct {
	rank   int
	worker int // the index of the worker that replays the rank
	// space interns the rank's threads only, so a clock is as wide as
	// the rank's team.
	space   *vclock.Space
	threads []*threadState       // by tid
	far     map[int]*threadState // tids outside any team's range, which a hand-written log may carry
	syncs   map[uint64]*episode  // by episode number
	// lock vector clocks for release->acquire edges, by lock name
	locks map[string]*vclock.Packed
	locs  map[string]*locState // by location name
}

// episode is the replay state of one synchronization episode: the
// fork snapshot, the join accumulator and, for a barrier, its
// participant count from the pre-pass, its arrivals so far and their
// merged clock.
type episode struct {
	fork, join *vclock.Packed
	expect     int
	arrived    []*threadState
	merge      *vclock.Packed
}

func newRankState(rank int) *rankState {
	return &rankState{
		rank:  rank,
		space: vclock.NewSpace(),
		syncs: make(map[uint64]*episode),
		locks: make(map[string]*vclock.Packed),
		locs:  make(map[string]*locState),
	}
}

// thread returns (creating) the state of the rank's thread tid.
func (rs *rankState) thread(tid int) *threadState {
	if uint(tid) < uint(len(rs.threads)) && rs.threads[tid] != nil {
		return rs.threads[tid]
	}
	if st := rs.far[tid]; st != nil {
		return st
	}
	// The clock keeps the thread's global (rank, tid) identity, so
	// rendered clocks and witness certificates name each thread with
	// its rank.
	st := &threadState{clock: rs.space.Clock(sim.GID(rs.rank, tid))}
	st.clock.Tick()
	if uint(tid) >= sim.MaxThreadsPerRank {
		if rs.far == nil {
			rs.far = make(map[int]*threadState)
		}
		rs.far[tid] = st
		return st
	}
	if tid >= len(rs.threads) {
		rs.threads = append(rs.threads, make([]*threadState, tid+1-len(rs.threads))...)
	}
	rs.threads[tid] = st
	return st
}

// episode returns (creating) the state of the rank's episode seq.
func (rs *rankState) episode(seq uint64) *episode {
	ep := rs.syncs[seq]
	if ep == nil {
		ep = &episode{}
		rs.syncs[seq] = ep
	}
	return ep
}

// rankTable finds the state of each rank a log names: by index for a
// rank in [0, len(log)), which bounds the table by the log, and
// through a map for any other number a hand-written log may carry.
type rankTable struct {
	byIndex []*rankState
	far     map[int]*rankState
}

// of returns the state of rank r, or nil before the pre-pass met r.
func (t *rankTable) of(r int) *rankState {
	if uint(r) < uint(len(t.byIndex)) {
		return t.byIndex[r]
	}
	return t.far[r]
}

// add creates the state of rank r, met in a log of n events.
func (t *rankTable) add(r, n int) *rankState {
	rs := newRankState(r)
	if uint(r) >= uint(n) {
		if t.far == nil {
			t.far = make(map[int]*rankState)
		}
		t.far[r] = rs
		return rs
	}
	if r >= len(t.byIndex) {
		t.byIndex = append(t.byIndex, make([]*rankState, r+1-len(t.byIndex))...)
	}
	t.byIndex[r] = rs
	return rs
}

// sorted returns the state of every rank, in rank order.
func (t *rankTable) sorted() []*rankState {
	var all []*rankState
	for _, rs := range t.byIndex {
		if rs != nil {
			all = append(all, rs)
		}
	}
	for _, rs := range t.far {
		all = append(all, rs)
	}
	slices.SortFunc(all, func(x, y *rankState) int { return cmp.Compare(x.rank, y.rank) })
	return all
}

// analyzer is one worker of a replay. The ranks it owns keep their
// state in the shared rankTable; the rest is the worker's own: the
// interned locksets, the sides its races name and its tallies, which
// the report and the registry read after every worker has finished.
type analyzer struct {
	opts     Options
	id       int
	ranks    *rankTable
	locksets locksets
	// sides holds every access a race names, built once, in the order
	// the scan first named them.
	sides []Access
	tally tally
}

// flushStats hands the workers' tallies to the registry, once per
// analysis.
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
// structure, not on host scheduling or the worker count, so they stay
// gate-worthy deterministic metrics.
func flushStats(reg *obs.Registry, events int, workers []*analyzer) {
	var t tally
	sizes := reg.Histogram("detect.lockset_size")
	for _, a := range workers {
		t.add(&a.tally)
		for id, n := range a.locksets.accesses {
			sizes.ObserveN(int64(len(a.locksets.names[id])), n)
		}
	}
	reg.Counter("detect.events").Add(int64(events))
	reg.Counter("detect.vc_comparisons").Add(t.vcCompares)
	reg.Counter("detect.vc_joins").Add(t.vcJoins)
	reg.Counter("detect.epoch_hits").Add(t.epochHits)
	reg.Gauge("detect.vc_width").Observe(t.vcWidth)
	reg.Counter("detect.lockset_candidates").Add(t.lsCandid)
	reg.Counter("detect.hb_candidates").Add(t.hbCandid)
	reg.Counter("detect.confirmed_races").Add(t.confirmed)
	reg.Counter("detect.window_dropped").Add(t.dropped)
}

// report assembles the races in canonical order: by location (rank,
// name), then by the lane coordinates of First and then Second. ranks
// is in rank order, and each race's sides are its rank's worker's.
// Each race is copied once, into a list allocated at its final length;
// a report without races keeps a nil list.
func report(mode Mode, ranks []*rankState, workers []*analyzer) *Report {
	rep := &Report{Mode: mode}
	type locRaces struct {
		rs    *rankState
		name  string
		races []raceRec
	}
	var locs []locRaces
	n := 0
	for _, rs := range ranks {
		first := len(locs)
		for name, l := range rs.locs {
			if len(l.races) > 0 {
				locs = append(locs, locRaces{rs, name, l.races})
				n += len(l.races)
			}
		}
		slices.SortFunc(locs[first:], func(x, y locRaces) int { return strings.Compare(x.name, y.name) })
	}
	if n == 0 {
		return rep
	}
	rep.Races = make([]Race, 0, n)
	for _, l := range locs {
		sides := workers[l.rs.worker].sides
		// Arrival order within a location depends on how the host
		// interleaved the threads; sort by the canonical pair
		// coordinates so reports are stable.
		slices.SortFunc(l.races, func(x, y raceRec) int {
			if c := laneCmp(&sides[x.first], &sides[y.first]); c != 0 {
				return c
			}
			return laneCmp(&sides[x.second], &sides[y.second])
		})
		loc := trace.Loc{Rank: l.rs.rank, Name: l.name}
		for _, r := range l.races {
			rep.Races = append(rep.Races, Race{
				Loc:         loc,
				First:       sides[r.first],
				Second:      sides[r.second],
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

// minEventsPerWorker is the log length each replay worker must have
// to itself before AnalyzeChunks starts another: below it, starting
// and joining a goroutine costs more than the replay it takes over (a
// chaos replay's log has about 70 events). It is a constant rather
// than an option because the report is the same at every worker
// count; only the wall time moves.
const minEventsPerWorker = 4096

// AnalyzeChunks replays an event log held as consecutive chunks, such
// as trace.Log.Chunks returns, and returns the race report. The
// analysis reads the events in place, and the report's accesses are
// built from them, so the chunks must not change while it runs.
//
// The ranks are replayed on min(GOMAXPROCS, ranks, ceil(events/4096))
// workers: the calling goroutine and, past one worker, goroutines that
// have all finished when AnalyzeChunks returns.
func AnalyzeChunks(chunks [][]trace.Event, opts Options) *Report {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	w := 1
	if n > minEventsPerWorker {
		// Only a log past one worker's share asks for GOMAXPROCS,
		// whose query takes the runtime scheduler's lock: a short
		// log's replay touches no state outside the analysis.
		w = min(runtime.GOMAXPROCS(0), (n+minEventsPerWorker-1)/minEventsPerWorker)
	}
	return analyzeChunks(chunks, opts, w)
}

// analyzeChunks is AnalyzeChunks on at most maxWorkers workers, and on
// no more workers than the log has ranks.
func analyzeChunks(chunks [][]trace.Event, opts Options, maxWorkers int) *Report {
	if opts.MaxHistoryPerLoc <= 0 {
		opts.MaxHistoryPerLoc = DefaultMaxHistory
	}
	if opts.MaxRacesPerLoc <= 0 {
		opts.MaxRacesPerLoc = DefaultMaxRaces
	}

	// Pre-pass: the ranks the log names, and the participant count of
	// each barrier episode. Every participant emits exactly one
	// OpBarrier per episode before any of them proceeds, so in log
	// order all arrivals of an episode precede all post-barrier events
	// of its participants.
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	var ranks rankTable
	for _, c := range chunks {
		for i := range c {
			e := &c[i]
			rs := ranks.of(e.Rank)
			if rs == nil {
				rs = ranks.add(e.Rank, n)
			}
			if e.Op == trace.OpBarrier {
				rs.episode(e.SyncSeq).expect++
			}
		}
	}
	all := ranks.sorted()

	w := max(1, min(maxWorkers, len(all)))
	for _, rs := range all {
		if rs.worker = rs.rank % w; rs.worker < 0 {
			rs.worker += w
		}
	}
	workers := make([]*analyzer, w)
	for k := range workers {
		workers[k] = &analyzer{opts: opts, id: k, ranks: &ranks, locksets: newLocksets()}
	}
	runWorkers(workers, chunks)

	if opts.Stats != nil {
		flushStats(opts.Stats, n, workers)
	}
	rep := report(opts.Mode, all, workers)
	rep.EventsAnalyzed = n
	return rep
}

// runWorkers runs every worker's replay over the log, the first on the
// calling goroutine, and returns once all have finished. A worker's
// panic is raised again on the caller, whose recover then sees it.
func runWorkers(workers []*analyzer, chunks [][]trace.Event) {
	if len(workers) == 1 {
		workers[0].replay(chunks)
		return
	}
	panics := make([]any, len(workers))
	run := func(k int) {
		defer func() { panics[k] = recover() }()
		workers[k].replay(chunks)
	}
	var wg sync.WaitGroup
	for k := 1; k < len(workers); k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			run(k)
		}(k)
	}
	run(0)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// replay steps, in log order, the events of the ranks the worker owns.
func (a *analyzer) replay(chunks [][]trace.Event) {
	for _, c := range chunks {
		for i := range c {
			if rs := a.ranks.of(c[i].Rank); rs.worker == a.id {
				a.step(rs, &c[i])
			}
		}
	}
}

// step processes one event of rank rs.
func (a *analyzer) step(rs *rankState, e *trace.Event) {
	st := rs.thread(e.TID)
	ix := st.ix
	st.ix++
	switch e.Op {
	case trace.OpFork:
		rs.episode(e.SyncSeq).fork = st.clock.Publish()
	case trace.OpBegin:
		if ep := rs.syncs[e.SyncSeq]; ep != nil && ep.fork != nil {
			// The fork snapshot dominates everything the member thread
			// has seen except its own ticks (the member's last
			// contribution flowed to the parent through the previous
			// region's join), so adoption nearly always applies.
			a.adoptOrJoin(st.clock, ep.fork)
		}
	case trace.OpEnd:
		ep := rs.episode(e.SyncSeq)
		if ep.join == nil {
			// The episode's first contribution IS the accumulator:
			// publishing the member's clock replaces the join into an
			// empty clock the map-backed detector performs.
			ep.join = st.clock.Publish()
			a.tally.epochHits++
			a.observeWidth(st.clock)
			break
		}
		a.join(ep.join, st.clock)
	case trace.OpJoin:
		if ep := rs.syncs[e.SyncSeq]; ep != nil && ep.join != nil {
			a.join(st.clock, ep.join)
		}
	case trace.OpBarrier:
		a.barrier(rs.syncs[e.SyncSeq], st)
	case trace.OpAcquire:
		if !a.opts.IgnoreLocks {
			if lc, ok := rs.locks[e.Name]; ok {
				a.join(st.clock, lc)
			}
			st.ls = a.locksets.move(st.ls, e.Name, true)
		}
	case trace.OpRelease:
		if !a.opts.IgnoreLocks {
			rs.locks[e.Name] = st.clock.Publish()
			st.ls = a.locksets.move(st.ls, e.Name, false)
		}
	case trace.OpRead, trace.OpWrite:
		a.access(rs, e, st, ix)
	case trace.OpMPICall:
		// Call records are consumed by the spec matcher, not the race
		// analyses.
	}
	st.clock.Tick()
}

// observeWidth tracks the vector-clock width high-water mark when a
// registry takes the stats; counting the components is O(width).
func (a *analyzer) observeWidth(c *vclock.Packed) {
	if a.opts.Stats != nil {
		a.tally.vcWidth = max(a.tally.vcWidth, int64(c.Components()))
	}
}

// join performs a full-width O(width) clock join — the analyzer's
// vector-clock hot path — counting it and tracking the width
// high-water mark for the hotspot profile.
func (a *analyzer) join(dst, src *vclock.Packed) {
	dst.Join(src)
	a.tally.vcJoins++
	a.observeWidth(dst)
}

// adoptOrJoin takes the O(1) epoch-adoption fast path when it
// applies, falling back to the counted full join. Whether adoption
// applies at a given synchronization edge depends only on the trace's
// happens-before structure — never on host scheduling — so the two
// counters stay deterministic.
func (a *analyzer) adoptOrJoin(dst, src *vclock.Packed) {
	if dst.Adopt(src) {
		a.tally.epochHits++
		a.observeWidth(dst)
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
// The pre-pass counted every arrival of the episode in the log, so
// the episode completes once, at its last arrival.
func (a *analyzer) barrier(ep *episode, st *threadState) {
	if ep.merge == nil {
		ep.merge = st.clock.Publish()
		a.tally.epochHits++
		a.observeWidth(ep.merge)
	} else {
		a.join(ep.merge, st.clock)
	}
	ep.arrived = append(ep.arrived, st)
	if len(ep.arrived) >= ep.expect {
		for _, p := range ep.arrived {
			a.adoptOrJoin(p.clock, ep.merge)
		}
		ep.arrived, ep.merge = nil, nil
	}
}

// access checks an arriving access against its location's history
// window and, while the window has room, enters it. The thread's live
// clock is exactly the clock the access observed: nothing happens
// between the access and its check.
func (a *analyzer) access(rs *rankState, e *trace.Event, st *threadState, ix uint64) {
	a.locksets.accesses[st.ls]++
	l := rs.locs[e.Name]
	if l == nil {
		l = &locState{}
		rs.locs[e.Name] = l
	}
	rec := accessRec{
		ev:    e,
		epoch: st.clock.OwnV(),
		ix:    ix,
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

// tally accumulates a worker's counters locally; they reach the
// registry once per analysis, after every worker has finished, so
// workers never contend on a shared counter.
type tally struct {
	vcCompares, lsCandid, hbCandid, confirmed, dropped int64
	vcJoins, epochHits                                 int64
	vcWidth                                            int64 // a high-water mark
}

func (t *tally) add(o *tally) {
	t.vcCompares += o.vcCompares
	t.lsCandid += o.lsCandid
	t.hbCandid += o.hbCandid
	t.confirmed += o.confirmed
	t.dropped += o.dropped
	t.vcJoins += o.vcJoins
	t.epochHits += o.epochHits
	t.vcWidth = max(t.vcWidth, o.vcWidth)
}

// epochClass is the part of a location's history window one thread
// contributed with one access kind under one lockset. Its epochs are
// in arrival order, which is sorted order: a thread's own clock
// component never decreases.
type epochClass struct {
	slot  vclock.Slot // the contributing thread's
	write bool
	ls    lsID
	evs   []uint64
}

// addToClass enters a record into the window's epoch classes.
func (l *locState) addToClass(r *accessRec) {
	write := r.op == trace.OpWrite
	for i := range l.classes {
		c := &l.classes[i]
		if c.slot == r.eslot && c.write == write && c.ls == r.ls {
			c.evs = append(c.evs, r.epoch)
			return
		}
	}
	l.classes = append(l.classes, epochClass{
		slot: r.eslot, write: write, ls: r.ls, evs: []uint64{r.epoch},
	})
}

// countPairs tallies the pairs rec, observing clock, forms with the
// location's history window and reports whether the configured mode
// reports any of them. Per class, the lockset verdict is shared by
// every pair, and the pairs not ordered before rec are those whose
// epoch the clock has not observed — a suffix of the sorted epochs.
func (a *analyzer) countPairs(l *locState, rec *accessRec, clock *vclock.Packed) (reportable bool) {
	write := rec.op == trace.OpWrite
	t := &a.tally
	for i := range l.classes {
		c := &l.classes[i]
		if c.slot == rec.eslot || (!c.write && !write) {
			continue
		}
		n := int64(len(c.evs))
		hb := n - int64(upperBound(c.evs, clock.AtSlot(c.slot)))
		ls := a.locksets.disjoint(c.ls, rec.ls)
		t.vcCompares += n
		t.hbCandid += hb
		if ls {
			t.lsCandid += n
		}
		var confirmed int64
		if a.reports(ls, true) {
			confirmed += hb
		}
		if a.reports(ls, false) {
			confirmed += n - hb
		}
		t.confirmed += confirmed
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
		if prev.eslot == rec.eslot || (prev.op != trace.OpWrite && rec.op != trace.OpWrite) {
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
	// accesses counts the accesses made under each set, for
	// detect.lockset_size
	accesses []int64
	ids      map[string]lsID
	moves    map[lsMove]lsID
	disj     map[[2]lsID]bool
}

type lsMove struct {
	from    lsID
	name    string
	acquire bool
}

func newLocksets() locksets {
	return locksets{
		names:    [][]string{{}},
		accesses: []int64{0},
		ids:      map[string]lsID{"": 0},
		moves:    make(map[lsMove]lsID),
		disj:     make(map[[2]lsID]bool),
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
		s.accesses = append(s.accesses, 0)
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
