// Package spec encodes the MPI thread-safety specification of the
// paper's §III-A and matches dynamic concurrency reports against it.
//
// The six violation predicates are evaluated per rank from two
// inputs: the race report of the combined lockset/happens-before
// analysis (the Concurrent(var) predicates) and the recorded MPI call
// argument lists (the mpitype, thread id and timestamp terms). This is
// the "merge the concurrency reports into the thread-safety
// specification argument list" step of the paper's workflow.
package spec

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"home/internal/detect"
	"home/internal/mpi"
	"home/internal/trace"
)

// Kind enumerates the thread-safety violation classes (paper §III-A).
type Kind int

const (
	// InitializationViolation: MPI calls from threads inconsistent
	// with the provided MPI_THREAD_* level.
	InitializationViolation Kind = iota
	// FinalizationViolation: MPI_Finalize off the main thread or
	// racing with other MPI activity.
	FinalizationViolation
	// ConcurrentRecvViolation: two threads concurrently receive with
	// the same (source, tag, communicator).
	ConcurrentRecvViolation
	// ConcurrentRequestViolation: two threads concurrently
	// MPI_Wait/MPI_Test the same request.
	ConcurrentRequestViolation
	// ProbeViolation: concurrent probe/receive with the same (source,
	// tag) on one communicator.
	ProbeViolation
	// CollectiveCallViolation: two threads concurrently issue
	// collectives on the same communicator.
	CollectiveCallViolation
	// WindowViolation (extension, not one of the paper's six): two
	// threads of one process issue conflicting one-sided operations on
	// the same RMA window concurrently.
	WindowViolation
)

// NumKinds is the number of violation classes.
const NumKinds = 6

var kindNames = [...]string{
	"InitializationViolation",
	"FinalizationViolation",
	"ConcurrentRecvViolation",
	"ConcurrentRequestViolation",
	"ProbeViolation",
	"CollectiveCallViolation",
	"WindowViolation",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalText renders the kind name in JSON output.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// AllKinds lists the paper's six violation classes in declaration
// order (the extension kind WindowViolation is not among them).
func AllKinds() []Kind {
	return []Kind{
		InitializationViolation, FinalizationViolation,
		ConcurrentRecvViolation, ConcurrentRequestViolation,
		ProbeViolation, CollectiveCallViolation,
	}
}

// Violation is one matched thread-safety violation.
type Violation struct {
	Kind    Kind
	Rank    int
	Lines   []int // source lines of the involved call sites (sorted)
	Threads []int // thread ids involved (sorted)
	Message string

	// Evidence carries the match's witness material for the explain
	// layer. It is excluded from JSON output (the rendered witness has
	// its own schema) and nil when a duplicate match was deduplicated
	// away before this one.
	Evidence *Evidence `json:"-"`
}

// Evidence is the raw material behind one matched violation: either
// the concurrency report that triggered a race-backed predicate, or
// the call events whose ordering a call-ordering predicate rejected.
type Evidence struct {
	// Race is set for race-backed matches (ConcurrentRecv,
	// ConcurrentRequest, Probe, Collective, Window, SERIALIZED
	// initialization, finalize-races-with-activity).
	Race *detect.Race
	// Sites is set for call-ordering matches (SINGLE/FUNNELED
	// initialization, off-main or post-finalize finalization): the
	// establishing call first (init or finalize, when recorded), then
	// the offending call.
	Sites []trace.Event
}

func (v Violation) String() string {
	lines := make([]string, len(v.Lines))
	for i, l := range v.Lines {
		lines[i] = fmt.Sprintf("%d", l)
	}
	return fmt.Sprintf("%s on rank %d (lines %s): %s",
		v.Kind, v.Rank, strings.Join(lines, ","), v.Message)
}

// rankInfo aggregates per-rank evidence from the event log.
type rankInfo struct {
	level       int // provided thread level (-1 unknown)
	initTID     int
	initEvent   *trace.Event // the recorded init call, if any
	hasParallel bool
	calls       []*trace.Event // OpMPICall records, sorted by (tid, seq)
}

// Match evaluates the specification against the event log and the
// race report, returning the violations sorted by (kind, rank).
func Match(events []trace.Event, rep *detect.Report) []Violation {
	return MatchChunks([][]trace.Event{events}, rep)
}

// MatchChunks is Match over an event log held as consecutive chunks,
// such as trace.Log.Chunks returns, read in place.
func MatchChunks(chunks [][]trace.Event, rep *detect.Report) []Violation {
	ranks := map[int]*rankInfo{}
	info := func(r int) *rankInfo {
		ri, ok := ranks[r]
		if !ok {
			ri = &rankInfo{level: -1}
			ranks[r] = ri
		}
		return ri
	}
	for _, c := range chunks {
		for i := range c {
			e := &c[i]
			switch e.Op {
			case trace.OpBegin:
				info(e.Rank).hasParallel = true
			case trace.OpMPICall:
				ri := info(e.Rank)
				switch e.Call.Kind {
				case trace.CallInit, trace.CallInitThread:
					ri.level = e.Call.Level
					ri.initTID = e.TID
					ri.initEvent = e
				}
				ri.calls = append(ri.calls, e)
			}
		}
	}
	// Per-thread subsequences of the log follow program order, but the
	// interleaving across threads is host-schedule dependent; sorting
	// by (tid, seq) makes matchRank's iteration — and therefore which
	// evidence a deduplicated violation keeps — deterministic.
	for _, ri := range ranks {
		slices.SortFunc(ri.calls, func(a, b *trace.Event) int {
			if c := cmp.Compare(a.TID, b.TID); c != 0 {
				return c
			}
			return cmp.Compare(a.Seq, b.Seq)
		})
	}

	m := &matcher{seen: map[vkey]bool{}, byLoc: map[trace.Loc][]*detect.Race{}}
	for i := range rep.Races {
		r := &rep.Races[i]
		m.matchRace(r)
		// matchRank reads the races on the finalize variable and, on a
		// SERIALIZED rank, those on the other monitored variables.
		if ri := ranks[r.Loc.Rank]; r.Loc.Name == trace.VarFinalize || (ri != nil && ri.level == mpi.ThreadSerialized) {
			m.byLoc[r.Loc] = append(m.byLoc[r.Loc], r)
		}
	}
	rankIDs := make([]int, 0, len(ranks))
	for r := range ranks {
		rankIDs = append(rankIDs, r)
	}
	sort.Ints(rankIDs)
	for _, r := range rankIDs {
		m.matchRank(r, ranks[r])
	}
	return m.sorted()
}

// matcher collects the violations of one Match. The first candidate
// with a given identity wins, and a violation is built only once its
// identity is known to be new.
type matcher struct {
	seen  map[vkey]bool
	out   []Violation
	byLoc map[trace.Loc][]*detect.Race // the races matchRank reads, per location, in report order
}

// vkey is the dedup identity of a violation: kind, rank and its one
// or two sorted lines.
type vkey struct {
	kind  Kind
	rank  int
	n     int
	lines [2]int
}

// add appends a violation of kind on rank at the call sites lines,
// by the threads tids, unless one with the same identity was added
// before. It returns the new violation, for the caller to fill in
// the message and evidence, or nil.
func (m *matcher) add(kind Kind, rank int, lines, tids [2]int, n int) *Violation {
	if n == 2 {
		if lines[1] < lines[0] {
			lines[0], lines[1] = lines[1], lines[0]
		}
		if tids[1] < tids[0] {
			tids[0], tids[1] = tids[1], tids[0]
		}
	}
	k := vkey{kind, rank, n, lines}
	if m.seen[k] {
		return nil
	}
	m.seen[k] = true
	// Lines and Threads share one allocation; each is capped at its
	// own length.
	ints := append(append(make([]int, 0, 2*n), lines[:n]...), tids[:n]...)
	m.out = append(m.out, Violation{Kind: kind, Rank: rank, Lines: ints[:n:n], Threads: ints[n:]})
	return &m.out[len(m.out)-1]
}

// addRace adds the violation of kind that race r backs; see add.
func (m *matcher) addRace(kind Kind, r *detect.Race) *Violation {
	v := m.add(kind, r.Loc.Rank,
		[2]int{r.First.Call.Line, r.Second.Call.Line}, [2]int{r.First.TID, r.Second.TID}, 2)
	if v != nil {
		v.Evidence = &Evidence{Race: r}
	}
	return v
}

// addSite adds the call-ordering violation of kind that call e
// commits, with establish (the init or finalize call, if recorded)
// as the ordering evidence; see add.
func (m *matcher) addSite(kind Kind, rank int, establish, e *trace.Event) *Violation {
	v := m.add(kind, rank, [2]int{e.Call.Line}, [2]int{e.TID}, 1)
	if v != nil {
		ev := &Evidence{}
		if establish != nil {
			ev.Sites = append(ev.Sites, *establish)
		}
		ev.Sites = append(ev.Sites, *e)
		v.Evidence = ev
	}
	return v
}

// sorted returns the violations ordered by kind, rank and the string
// form of their lines as fmt.Sprint renders it (so [12] sorts after
// [100]), built once per violation without fmt.
func (m *matcher) sorted() []Violation {
	if len(m.out) == 0 {
		return nil
	}
	type sortKey struct {
		kind  Kind
		rank  int
		lines string
		i     int
	}
	keys := make([]sortKey, len(m.out))
	var buf []byte
	for i, v := range m.out {
		buf = append(buf[:0], '[')
		for j, l := range v.Lines {
			if j > 0 {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendInt(buf, int64(l), 10)
		}
		keys[i] = sortKey{v.Kind, v.Rank, string(append(buf, ']')), i}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if c := cmp.Compare(a.kind, b.kind); c != 0 {
			return c
		}
		if c := cmp.Compare(a.rank, b.rank); c != 0 {
			return c
		}
		return strings.Compare(a.lines, b.lines)
	})
	out := make([]Violation, len(keys))
	for i, k := range keys {
		out[i] = m.out[k.i]
	}
	return out
}

// isRecv reports a receive-kind call (Sendrecv receives too).
func isRecv(k trace.CallKind) bool {
	return k == trace.CallRecv || k == trace.CallIrecv || k == trace.CallSendrecv
}

// isProbe reports a probe-kind call.
func isProbe(k trace.CallKind) bool { return k == trace.CallProbe || k == trace.CallIprobe }

// isWaitTest reports a completion-kind call.
func isWaitTest(k trace.CallKind) bool { return k == trace.CallWait || k == trace.CallTest }

// isRMA reports a window-access call (fence included: a fence
// concurrent with another thread's access to the same window is the
// same epoch hazard).
func isRMA(k trace.CallKind) bool { return k.IsRMA() || k == trace.CallWinFence }

// matchRace maps one concurrency report to the per-pair violation
// predicates (ConcurrentRecv, ConcurrentRequest, Probe, Collective).
func (m *matcher) matchRace(r *detect.Race) {
	a, b := &r.First, &r.Second
	if a.Call == nil || b.Call == nil || a.TID == b.TID {
		return
	}
	ak, bk := a.Call.Kind, b.Call.Kind
	sameTriple := a.Call.Peer == b.Call.Peer && a.Call.Tag == b.Call.Tag && a.Call.Comm == b.Call.Comm

	switch {
	case isRecv(ak) && isRecv(bk):
		if !sameTriple {
			break
		}
		if v := m.addRace(ConcurrentRecvViolation, r); v != nil {
			v.Message = fmt.Sprintf("threads %d and %d concurrently receive with identical (source=%d, tag=%d, comm=%d); message delivery order is undefined",
				a.TID, b.TID, a.Call.Peer, a.Call.Tag, a.Call.Comm)
		}
	case isWaitTest(ak) && isWaitTest(bk):
		if a.Call.Request != b.Call.Request || a.Call.Request < 0 {
			break
		}
		if v := m.addRace(ConcurrentRequestViolation, r); v != nil {
			v.Message = fmt.Sprintf("threads %d and %d concurrently wait/test the same request #%d",
				a.TID, b.TID, a.Call.Request)
		}
	case (isProbe(ak) && (isProbe(bk) || isRecv(bk))) || (isProbe(bk) && (isProbe(ak) || isRecv(ak))):
		if !sameTriple {
			break
		}
		if v := m.addRace(ProbeViolation, r); v != nil {
			v.Message = fmt.Sprintf("threads %d and %d concurrently probe/receive with identical (source=%d, tag=%d, comm=%d); the probed message may be stolen",
				a.TID, b.TID, a.Call.Peer, a.Call.Tag, a.Call.Comm)
		}
	case isRMA(ak) && isRMA(bk):
		if a.Call.Win != b.Call.Win {
			break
		}
		if v := m.addRace(WindowViolation, r); v != nil {
			v.Message = fmt.Sprintf("threads %d and %d concurrently access RMA window %d (%s, %s) within one epoch",
				a.TID, b.TID, a.Call.Win, ak, bk)
		}
	case ak.IsCollective() && bk.IsCollective():
		if a.Call.Comm != b.Call.Comm {
			break
		}
		if v := m.addRace(CollectiveCallViolation, r); v != nil {
			v.Message = fmt.Sprintf("threads %d and %d concurrently issue collectives (%s, %s) on communicator %d",
				a.TID, b.TID, ak, bk, a.Call.Comm)
		}
	}
}

// matchRank evaluates the rank-level predicates (Initialization,
// Finalization).
func (m *matcher) matchRank(rank int, ri *rankInfo) {
	// Initialization violations.
	switch ri.level {
	case mpi.ThreadSingle:
		// Any monitored (hence in-parallel-region) MPI call under
		// SINGLE means threads execute MPI.
		for _, e := range ri.calls {
			k := e.Call.Kind
			if k == trace.CallInit || k == trace.CallInitThread {
				continue
			}
			if !ri.hasParallel {
				continue
			}
			if v := m.addSite(InitializationViolation, rank, ri.initEvent, e); v != nil {
				v.Message = fmt.Sprintf("MPI initialized with MPI_THREAD_SINGLE but %s is issued inside an omp parallel region", k)
			}
		}
	case mpi.ThreadFunneled:
		for _, e := range ri.calls {
			k := e.Call.Kind
			if k == trace.CallInit || k == trace.CallInitThread || e.TID == ri.initTID {
				continue
			}
			if v := m.addSite(InitializationViolation, rank, ri.initEvent, e); v != nil {
				v.Message = fmt.Sprintf("MPI_THREAD_FUNNELED requires the main thread to make all MPI calls, but thread %d issued %s", e.TID, k)
			}
		}
	case mpi.ThreadSerialized:
		// Any concurrent pair of monitored MPI calls violates the
		// one-at-a-time requirement.
		for _, name := range []string{trace.VarSrc, trace.VarTag, trace.VarComm, trace.VarRequest, trace.VarCollective} {
			for _, race := range m.byLoc[trace.Loc{Rank: rank, Name: name}] {
				if race.First.Call == nil || race.Second.Call == nil || race.First.TID == race.Second.TID {
					continue
				}
				if v := m.addRace(InitializationViolation, race); v != nil {
					v.Message = fmt.Sprintf("MPI_THREAD_SERIALIZED allows one MPI call at a time, but threads %d and %d call %s and %s concurrently",
						race.First.TID, race.Second.TID, race.First.Call.Kind, race.Second.Call.Kind)
				}
				break // one representative per monitored variable
			}
		}
	}

	// Finalization violations. finalizeEv tracks the latest (by log
	// order) finalize call — iteration order over ri.calls no longer
	// follows the log, so the latest is selected explicitly.
	var finalizeEv *trace.Event
	for _, e := range ri.calls {
		if e.Call.Kind != trace.CallFinalize {
			continue
		}
		if finalizeEv == nil || e.Seq > finalizeEv.Seq {
			finalizeEv = e
		}
		if e.TID == ri.initTID {
			continue
		}
		if v := m.addSite(FinalizationViolation, rank, ri.initEvent, e); v != nil {
			v.Message = fmt.Sprintf("MPI_Finalize must be called by the main thread, but thread %d called it", e.TID)
		}
	}
	if finalizeEv != nil {
		for _, e := range ri.calls {
			if e.Call.Kind == trace.CallFinalize || e.Seq <= finalizeEv.Seq {
				continue
			}
			if v := m.addSite(FinalizationViolation, rank, finalizeEv, e); v != nil {
				v.Message = fmt.Sprintf("%s issued after MPI_Finalize (pending thread-level communication at finalize time)", e.Call.Kind)
			}
		}
	}
	for _, race := range m.byLoc[trace.Loc{Rank: rank, Name: trace.VarFinalize}] {
		if race.First.Call == nil || race.Second.Call == nil {
			continue
		}
		if v := m.addRace(FinalizationViolation, race); v != nil {
			v.Message = "MPI_Finalize races with concurrent MPI activity in another thread"
		}
	}
}

// CountByKind tallies violations per class.
func CountByKind(vs []Violation) map[Kind]int {
	out := make(map[Kind]int, NumKinds)
	for _, v := range vs {
		out[v.Kind]++
	}
	return out
}

// DistinctKinds counts how many violation classes appear.
func DistinctKinds(vs []Violation) int {
	seenKinds := map[Kind]bool{}
	for _, v := range vs {
		seenKinds[v.Kind] = true
	}
	return len(seenKinds)
}
