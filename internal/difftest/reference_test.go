package difftest

import (
	"sort"

	"home/internal/detect"
	"home/internal/obs"
	"home/internal/sim"
	"home/internal/trace"
	"home/internal/vclock"
)

// refAnalyze is the reference for detect.Analyze: the same clock
// replay, but locksets kept as plain name sets and the pair scan done
// exhaustively — the j-th access at a location is tested against each
// of the first min(j, MaxHistoryPerLoc) accesses, one pair at a time.
// detect's scan counts those pairs per epoch class instead; the two
// must agree on every race, witness and counter.
func refAnalyze(events []trace.Event, opts detect.Options) *detect.Report {
	if opts.MaxHistoryPerLoc <= 0 {
		opts.MaxHistoryPerLoc = detect.DefaultMaxHistory
	}
	if opts.MaxRacesPerLoc <= 0 {
		opts.MaxRacesPerLoc = detect.DefaultMaxRaces
	}
	reg := opts.Stats
	a := &refAnalyzer{
		opts:           opts,
		space:          vclock.NewSpace(),
		threads:        map[vclock.TID]*refThread{},
		forkClocks:     map[trace.SyncID]*vclock.Packed{},
		joinAccs:       map[trace.SyncID]*vclock.Packed{},
		barrierExpect:  map[trace.SyncID]int{},
		barrierArrived: map[trace.SyncID][]vclock.TID{},
		barrierMerge:   map[trace.SyncID]*vclock.Packed{},
		lockClocks:     map[trace.LockID]*vclock.Packed{},
		history:        map[trace.Loc][]refAccess{},
		laneIx:         map[vclock.TID]uint64{},
		events:         reg.Counter("detect.events"),
		vcCompares:     reg.Counter("detect.vc_comparisons"),
		vcJoins:        reg.Counter("detect.vc_joins"),
		epochHits:      reg.Counter("detect.epoch_hits"),
		vcWidth:        reg.Gauge("detect.vc_width"),
		locksetSize:    reg.Histogram("detect.lockset_size"),
		lsCandid:       reg.Counter("detect.lockset_candidates"),
		hbCandid:       reg.Counter("detect.hb_candidates"),
		confirmed:      reg.Counter("detect.confirmed_races"),
		dropped:        reg.Counter("detect.window_dropped"),
	}
	for _, e := range events {
		if e.Op == trace.OpBarrier {
			a.barrierExpect[e.Sync()]++
		}
	}
	for _, e := range events {
		a.step(e)
	}
	rep := &detect.Report{Mode: opts.Mode, EventsAnalyzed: len(events)}
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
	for _, l := range locs {
		races := a.scanLoc(l)
		sort.Slice(races, func(i, j int) bool {
			if !refAccessEq(races[i].First, races[j].First) {
				return refLaneAfter(races[j].First, races[i].First)
			}
			return refLaneAfter(races[j].Second, races[i].Second)
		})
		rep.Races = append(rep.Races, races...)
	}
	return rep
}

type refThread struct {
	clock *vclock.Packed
	locks map[string]struct{}
}

type refAccess struct {
	gid    vclock.TID
	rank   int
	tid    int
	time   int64
	op     trace.Op
	eslot  vclock.Slot
	ev     uint64
	locks  map[string]struct{}
	call   *trace.MPICall
	pclock *vclock.Packed
	ix     uint64
	clock  *vclock.Packed // pclock under Explain, else nil
}

type refAnalyzer struct {
	opts           detect.Options
	space          *vclock.Space
	threads        map[vclock.TID]*refThread
	forkClocks     map[trace.SyncID]*vclock.Packed
	joinAccs       map[trace.SyncID]*vclock.Packed
	barrierExpect  map[trace.SyncID]int
	barrierArrived map[trace.SyncID][]vclock.TID
	barrierMerge   map[trace.SyncID]*vclock.Packed
	lockClocks     map[trace.LockID]*vclock.Packed
	history        map[trace.Loc][]refAccess
	laneIx         map[vclock.TID]uint64

	events, vcCompares, vcJoins, epochHits *obs.Counter
	lsCandid, hbCandid, confirmed, dropped *obs.Counter
	vcWidth                                *obs.Gauge
	locksetSize                            *obs.Histogram
}

func (a *refAnalyzer) thread(rank, tid int) (*refThread, vclock.TID) {
	gid := sim.GID(rank, tid)
	st, ok := a.threads[gid]
	if !ok {
		st = &refThread{clock: a.space.Clock(gid), locks: map[string]struct{}{}}
		st.clock.Tick()
		a.threads[gid] = st
	}
	return st, gid
}

func (a *refAnalyzer) step(e trace.Event) {
	a.events.Inc()
	st, gid := a.thread(e.Rank, e.TID)
	ix := a.laneIx[gid]
	a.laneIx[gid] = ix + 1
	switch e.Op {
	case trace.OpFork:
		a.forkClocks[e.Sync()] = st.clock.Publish()
	case trace.OpBegin:
		if fc, ok := a.forkClocks[e.Sync()]; ok {
			a.adoptOrJoin(st.clock, fc)
		}
	case trace.OpEnd:
		acc, ok := a.joinAccs[e.Sync()]
		if !ok {
			a.joinAccs[e.Sync()] = st.clock.Publish()
			a.epochHits.Inc()
			a.vcWidth.Observe(int64(st.clock.Components()))
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
			st.locks[e.Name] = struct{}{}
		}
	case trace.OpRelease:
		if !a.opts.IgnoreLocks {
			a.lockClocks[e.Lock()] = st.clock.Publish()
			delete(st.locks, e.Name)
		}
	case trace.OpRead, trace.OpWrite:
		rec := refAccess{
			gid: gid, rank: e.Rank, tid: e.TID, time: e.Time, op: e.Op,
			eslot: st.clock.OwnSlot(), ev: st.clock.OwnV(),
			locks: map[string]struct{}{}, call: e.Call,
			pclock: st.clock.Snapshot(), ix: ix,
		}
		for n := range st.locks {
			rec.locks[n] = struct{}{}
		}
		if a.opts.Explain {
			rec.clock = rec.pclock
		}
		a.locksetSize.Observe(int64(len(rec.locks)))
		a.history[e.Loc()] = append(a.history[e.Loc()], rec)
	}
	st.clock.Tick()
}

func (a *refAnalyzer) join(dst, src *vclock.Packed) {
	dst.Join(src)
	a.vcJoins.Inc()
	a.vcWidth.Observe(int64(dst.Components()))
}

func (a *refAnalyzer) adoptOrJoin(dst, src *vclock.Packed) {
	if dst.Adopt(src) {
		a.epochHits.Inc()
		a.vcWidth.Observe(int64(dst.Components()))
		return
	}
	a.join(dst, src)
}

func (a *refAnalyzer) barrier(s trace.SyncID, gid vclock.TID, st *refThread) {
	merge, ok := a.barrierMerge[s]
	if !ok {
		merge = st.clock.Publish()
		a.barrierMerge[s] = merge
		a.epochHits.Inc()
		a.vcWidth.Observe(int64(merge.Components()))
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

// scanLoc tests every access pair of one location in arrival order,
// keeping the first MaxRacesPerLoc reported pairs.
func (a *refAnalyzer) scanLoc(loc trace.Loc) []detect.Race {
	arr := a.history[loc]
	a.dropped.Add(int64(max(0, len(arr)-a.opts.MaxHistoryPerLoc)))
	var races []detect.Race
	for j := 1; j < len(arr); j++ {
		rec := &arr[j]
		for i := 0; i < min(j, a.opts.MaxHistoryPerLoc); i++ {
			prev := &arr[i]
			if prev.gid == rec.gid || (prev.op != trace.OpWrite && rec.op != trace.OpWrite) {
				continue
			}
			lsRace := refDisjoint(prev.locks, rec.locks)
			hbRace := prev.ev > rec.pclock.AtSlot(prev.eslot)
			a.vcCompares.Inc()
			if lsRace {
				a.lsCandid.Inc()
			}
			if hbRace {
				a.hbCandid.Inc()
			}
			reported := false
			switch a.opts.Mode {
			case detect.ModeCombined:
				reported = lsRace && hbRace
			case detect.ModeLocksetOnly:
				reported = lsRace
			case detect.ModeHappensBeforeOnly:
				reported = hbRace
			}
			if !reported {
				continue
			}
			a.confirmed.Inc()
			if len(races) >= a.opts.MaxRacesPerLoc {
				continue
			}
			first, second := prev.toAccess(), rec.toAccess()
			if refLaneAfter(first, second) {
				first, second = second, first
			}
			races = append(races, detect.Race{
				Loc: loc, First: first, Second: second,
				LocksetRace: lsRace, HBRace: hbRace,
			})
		}
	}
	return races
}

func (r *refAccess) toAccess() detect.Access {
	names := make([]string, 0, len(r.locks))
	for n := range r.locks {
		names = append(names, n)
	}
	sort.Strings(names)
	return detect.Access{
		Rank: r.rank, TID: r.tid, Time: r.time,
		Op: r.op, Lockset: names, Call: r.call,
		Ix: r.ix, Clock: r.clock,
	}
}

func refAccessEq(a, b detect.Access) bool {
	return a.Rank == b.Rank && a.TID == b.TID && a.Ix == b.Ix
}

func refLaneAfter(a, b detect.Access) bool {
	if a.Rank != b.Rank {
		return a.Rank > b.Rank
	}
	if a.TID != b.TID {
		return a.TID > b.TID
	}
	return a.Ix > b.Ix
}

func refDisjoint(a, b map[string]struct{}) bool {
	for k := range a {
		if _, ok := b[k]; ok {
			return false
		}
	}
	return true
}
