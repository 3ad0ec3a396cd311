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
package detect

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
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
	// package explain extracts the concurrency certificate from. Costs
	// one clock copy per monitored access.
	Explain bool

	// Shards, when > 1, parallelizes the pair-checking phase:
	// locations are partitioned by (rank, variable) and scanned by
	// that many workers. The clock replay itself stays sequential (it
	// is inherently ordered), but the O(history²) access-pair scans —
	// the bulk of the work on access-heavy logs — are independent per
	// location. Reports, witnesses and stats are identical to the
	// serial analysis (internal/difftest proves it).
	Shards int
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
	Clock vclock.VC
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

// RacesOn returns the races on one location.
func (r *Report) RacesOn(rank int, name string) []Race {
	var out []Race
	for _, rc := range r.Races {
		if rc.Loc.Rank == rank && rc.Loc.Name == name {
			out = append(out, rc)
		}
	}
	return out
}

// threadState is the replay state of one logical thread.
type threadState struct {
	clock *vclock.Packed
	locks map[string]struct{}
}

// accessRec is a retained access with its analysis snapshots.
type accessRec struct {
	gid    vclock.TID
	rank   int
	tid    int
	time   int64
	op     trace.Op
	eslot  vclock.Slot // last-write epoch: accessor's slot ...
	ev     uint64      // ... and component, pre-tick (FastTrack)
	locks  map[string]struct{}
	call   *trace.MPICall
	pclock *vclock.Packed // O(1) clock snapshot for the pair scan
	ix     uint64         // per-lane event index
	clock  vclock.VC      // full clock snapshot (Explain only)
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
	// lock vector clocks for release->acquire edges
	lockClocks map[string]*vclock.Packed
	// per-location access history: every arrival is retained, and the
	// MaxHistoryPerLoc bound is applied during the scan phase
	history map[trace.Loc][]accessRec
	races   map[trace.Loc][]Race
	// per-lane event counters: the next index each (rank, tid) lane
	// will stamp on an event
	laneIx map[vclock.TID]uint64

	st analyzerStats
}

// analyzerStats caches the analysis's observability handles (all nil
// when no registry is configured; see package obs).
//
// Stat names:
//
//	detect.events             events consumed by the analyses
//	detect.vc_comparisons     FastTrack epoch-vs-clock tests performed
//	detect.vc_joins           full-width vector-clock joins performed
//	detect.epoch_hits         O(width) joins elided by O(1) epoch adoption
//	detect.vc_width           vector-clock component high-water mark (gauge)
//	detect.shards             pair-scan shards of the analysis (gauge)
//	detect.lockset_size       lockset size per access (histogram)
//	detect.lockset_candidates access pairs the lockset analysis flagged
//	detect.hb_candidates      access pairs happens-before found concurrent
//	detect.confirmed_races    pairs the configured mode reported
//
// vc_comparisons are O(1) epoch tests; vc_joins are the O(width)
// operations — the detector's true vector-clock hot path, which is
// why the hotspot profile reports both. epoch_hits counts the
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
	shards      *obs.Gauge
	locksetSize *obs.Histogram
	lsCandid    *obs.Counter
	hbCandid    *obs.Counter
	confirmed   *obs.Counter
}

func newAnalyzerStats(reg *obs.Registry) analyzerStats {
	return analyzerStats{
		events:      reg.Counter("detect.events"),
		vcCompares:  reg.Counter("detect.vc_comparisons"),
		vcJoins:     reg.Counter("detect.vc_joins"),
		epochHits:   reg.Counter("detect.epoch_hits"),
		vcWidth:     reg.Gauge("detect.vc_width"),
		shards:      reg.Gauge("detect.shards"),
		locksetSize: reg.Histogram("detect.lockset_size"),
		lsCandid:    reg.Counter("detect.lockset_candidates"),
		hbCandid:    reg.Counter("detect.hb_candidates"),
		confirmed:   reg.Counter("detect.confirmed_races"),
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
		lockClocks:     make(map[string]*vclock.Packed),
		history:        make(map[trace.Loc][]accessRec),
		races:          make(map[trace.Loc][]Race),
		laneIx:         make(map[vclock.TID]uint64),
	}
}

// report assembles the current races with a stable order.
func (a *analyzer) report() *Report {
	rep := &Report{Mode: a.opts.Mode}
	locs := make([]trace.Loc, 0, len(a.races))
	for l := range a.races {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool {
		if locs[i].Rank != locs[j].Rank {
			return locs[i].Rank < locs[j].Rank
		}
		return locs[i].Name < locs[j].Name
	})
	for _, l := range locs {
		// Arrival order within a location depends on how the host
		// interleaved the threads; sort by the canonical pair
		// coordinates so reports are stable.
		races := a.races[l]
		sort.Slice(races, func(i, j int) bool {
			if !accessEq(races[i].First, races[j].First) {
				return laneAfter(races[j].First, races[i].First)
			}
			return laneAfter(races[j].Second, races[i].Second)
		})
		rep.Races = append(rep.Races, races...)
	}
	return rep
}

// accessEq compares the schedule-stable coordinates of two accesses.
func accessEq(a, b Access) bool {
	return a.Rank == b.Rank && a.TID == b.TID && a.Ix == b.Ix
}

// Analyze replays the event log and returns the race report. The
// clock replay is sequential (the happens-before relation is built in
// log order); the access-pair scans run on opts.Shards workers
// partitioned by location, producing a report identical to the serial
// scan.
func Analyze(events []trace.Event, opts Options) *Report {
	if opts.MaxHistoryPerLoc <= 0 {
		opts.MaxHistoryPerLoc = DefaultMaxHistory
	}
	if opts.MaxRacesPerLoc <= 0 {
		opts.MaxRacesPerLoc = DefaultMaxRaces
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	a := newAnalyzer(opts)
	a.st.shards.Observe(int64(opts.Shards))

	// Pre-pass: barrier participant counts per episode. Every
	// participant emits exactly one OpBarrier per episode before any
	// of them proceeds, so in log order all arrivals of an episode
	// precede all post-barrier events of its participants.
	for _, e := range events {
		if e.Op == trace.OpBarrier {
			a.barrierExpect[e.Sync]++
		}
	}

	for _, e := range events {
		a.step(e)
	}
	a.scanAll()

	rep := a.report()
	rep.EventsAnalyzed = len(events)
	return rep
}

// thread returns (creating) the state for a (rank, tid) thread.
func (a *analyzer) thread(rank, tid int) (*threadState, vclock.TID) {
	gid := sim.GID(rank, tid)
	st, ok := a.threads[gid]
	if !ok {
		st = &threadState{clock: a.space.Clock(gid), locks: make(map[string]struct{})}
		st.clock.Tick()
		a.threads[gid] = st
	}
	return st, gid
}

// step processes one event.
func (a *analyzer) step(e trace.Event) {
	a.st.events.Inc()
	st, gid := a.thread(e.Rank, e.TID)
	ix := a.laneIx[gid]
	a.laneIx[gid] = ix + 1
	switch e.Op {
	case trace.OpFork:
		a.forkClocks[e.Sync] = st.clock.Publish()
	case trace.OpBegin:
		if fc, ok := a.forkClocks[e.Sync]; ok {
			// The fork snapshot dominates everything the member thread
			// has seen except its own ticks (the member's last
			// contribution flowed to the parent through the previous
			// region's join), so adoption nearly always applies.
			a.adoptOrJoin(st.clock, fc)
		}
	case trace.OpEnd:
		acc, ok := a.joinAccs[e.Sync]
		if !ok {
			// The episode's first contribution IS the accumulator:
			// publishing the member's clock replaces the join into an
			// empty clock the map-backed detector performs.
			a.joinAccs[e.Sync] = st.clock.Publish()
			a.st.epochHits.Inc()
			a.st.vcWidth.Observe(int64(st.clock.Components()))
			break
		}
		a.join(acc, st.clock)
	case trace.OpJoin:
		if acc, ok := a.joinAccs[e.Sync]; ok {
			a.join(st.clock, acc)
		}
	case trace.OpBarrier:
		a.barrier(e.Sync, gid, st)
	case trace.OpAcquire:
		if !a.opts.IgnoreLocks {
			if lc, ok := a.lockClocks[e.Lock.Name]; ok {
				a.join(st.clock, lc)
			}
			st.locks[e.Lock.Name] = struct{}{}
		}
	case trace.OpRelease:
		if !a.opts.IgnoreLocks {
			a.lockClocks[e.Lock.Name] = st.clock.Publish()
			delete(st.locks, e.Lock.Name)
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

// access records the access in its location's history with an O(1)
// clock snapshot; the pair checks run in the sharded scan phase.
func (a *analyzer) access(e trace.Event, st *threadState, gid vclock.TID, ix uint64) {
	rec := accessRec{
		gid:    gid,
		rank:   e.Rank,
		tid:    e.TID,
		time:   e.Time,
		op:     e.Op,
		eslot:  st.clock.OwnSlot(),
		ev:     st.clock.OwnV(),
		locks:  copyLocks(st.locks),
		call:   e.Call,
		pclock: st.clock.Snapshot(),
		ix:     ix,
	}
	if a.opts.Explain {
		rec.clock = st.clock.ToVC()
	}
	a.st.locksetSize.Observe(int64(len(rec.locks)))
	a.history[e.Loc] = append(a.history[e.Loc], rec)
}

// pairTally accumulates the pair-scan counters locally so the sharded
// scan can fold them into the registry once per shard (counter
// addition commutes, so totals are identical to serial counting).
type pairTally struct {
	vcCompares, lsCandid, hbCandid, confirmed int64
}

func (t *pairTally) add(st *analyzerStats) {
	st.vcCompares.Add(t.vcCompares)
	st.lsCandid.Add(t.lsCandid)
	st.hbCandid.Add(t.hbCandid)
	st.confirmed.Add(t.confirmed)
}

// checkPairs tests one access against the prior history of its
// location, appending reported races (bounded by MaxRacesPerLoc) and
// tallying the pair counters.
func (a *analyzer) checkPairs(loc trace.Loc, hist []accessRec, rec *accessRec, races []Race, tally *pairTally) []Race {
	for i := range hist {
		prev := &hist[i]
		if prev.gid == rec.gid {
			continue
		}
		if prev.op != trace.OpWrite && rec.op != trace.OpWrite {
			continue
		}
		lsRace := disjoint(prev.locks, rec.locks)
		// prev happened earlier in the log; it is ordered before the
		// current access iff its epoch has been observed by the
		// current thread's clock (FastTrack's epoch test) — one O(1)
		// slot read on the packed clock.
		tally.vcCompares++
		hbRace := prev.ev > rec.pclock.AtSlot(prev.eslot)
		if lsRace {
			tally.lsCandid++
		}
		if hbRace {
			tally.hbCandid++
		}

		reported := false
		switch a.opts.Mode {
		case ModeCombined:
			reported = lsRace && hbRace
		case ModeLocksetOnly:
			reported = lsRace
		case ModeHappensBeforeOnly:
			reported = hbRace
		}
		if reported {
			tally.confirmed++
		}
		if reported && len(races) < a.opts.MaxRacesPerLoc {
			first, second := prev.toAccess(), rec.toAccess()
			// The pair order is canonical — by schedule-stable lane
			// coordinate rather than log arrival order — so reports do
			// not depend on the host schedule.
			if laneAfter(first, second) {
				first, second = second, first
			}
			races = append(races, Race{
				Loc:         loc,
				First:       first,
				Second:      second,
				LocksetRace: lsRace,
				HBRace:      hbRace,
			})
		}
	}
	return races
}

// scanAll runs the pair-checking phase: locations are partitioned
// across opts.Shards workers and scanned independently. The j-th
// arrival at a location is checked against the first min(j,
// MaxHistoryPerLoc) arrivals, in arrival order.
func (a *analyzer) scanAll() {
	locs := make([]trace.Loc, 0, len(a.history))
	for l := range a.history {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool {
		if locs[i].Rank != locs[j].Rank {
			return locs[i].Rank < locs[j].Rank
		}
		return locs[i].Name < locs[j].Name
	})
	shards := a.opts.Shards
	if shards > len(locs) {
		shards = len(locs)
	}
	if shards <= 1 {
		var tally pairTally
		for _, l := range locs {
			if races := a.scanLoc(l, &tally); len(races) > 0 {
				a.races[l] = races
			}
		}
		tally.add(&a.st)
		return
	}
	var wg sync.WaitGroup
	results := make([]map[trace.Loc][]Race, shards)
	tallies := make([]pairTally, shards)
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			out := make(map[trace.Loc][]Race)
			for _, l := range locs {
				if locShard(l, shards) != s {
					continue
				}
				out[l] = a.scanLoc(l, &tallies[s])
			}
			results[s] = out
		}(s)
	}
	wg.Wait()
	for s := 0; s < shards; s++ {
		for l, races := range results[s] {
			if len(races) > 0 {
				a.races[l] = races
			}
		}
		tallies[s].add(&a.st)
	}
}

// scanLoc checks every access pair of one location.
func (a *analyzer) scanLoc(loc trace.Loc, tally *pairTally) []Race {
	arr := a.history[loc]
	var races []Race
	for j := 1; j < len(arr); j++ {
		n := j
		if n > a.opts.MaxHistoryPerLoc {
			n = a.opts.MaxHistoryPerLoc
		}
		races = a.checkPairs(loc, arr[:n], &arr[j], races, tally)
	}
	return races
}

// locShard assigns a location to a scan shard by its (rank, variable)
// identity — stable across runs and shard counts' partitions of work.
func locShard(l trace.Loc, shards int) int {
	h := fnv.New32a()
	io.WriteString(h, l.Name)
	var rb [4]byte
	binary.LittleEndian.PutUint32(rb[:], uint32(l.Rank))
	h.Write(rb[:])
	return int(h.Sum32() % uint32(shards))
}

func (r accessRec) toAccess() Access {
	names := make([]string, 0, len(r.locks))
	for n := range r.locks {
		names = append(names, n)
	}
	sort.Strings(names)
	return Access{
		Rank: r.rank, TID: r.tid, Time: r.time,
		Op: r.op, Lockset: names, Call: r.call,
		Ix: r.ix, Clock: r.clock,
	}
}

// laneAfter orders accesses by their schedule-stable coordinate
// (rank, tid, lane index).
func laneAfter(a, b Access) bool {
	if a.Rank != b.Rank {
		return a.Rank > b.Rank
	}
	if a.TID != b.TID {
		return a.TID > b.TID
	}
	return a.Ix > b.Ix
}

func copyLocks(m map[string]struct{}) map[string]struct{} {
	out := make(map[string]struct{}, len(m))
	for k := range m {
		out[k] = struct{}{}
	}
	return out
}

func disjoint(a, b map[string]struct{}) bool {
	small, big := a, b
	if len(b) < len(a) {
		small, big = b, a
	}
	for k := range small {
		if _, ok := big[k]; ok {
			return false
		}
	}
	return true
}
