package sched

import (
	"fmt"
	"sort"
	"strings"

	"home/internal/chaos"
)

// Schedule-space coverage. A recorded schedule is one realized point
// in the space of legal interleavings; coverage reduces it to the
// sets of distinct scheduling decisions it exercised, so a corpus of
// runs can answer "how much of the schedule space have we seen" — the
// fitness signal a schedule explorer maximizes. Four families:
//
//   - Matches: wildcard receive/probe resolutions — which message a
//     nondeterministic receive actually claimed.
//   - Collectives: collective-membership signatures — which arrivals,
//     in which order, formed each completed collective instance.
//   - LockOrders: lock-ticket permutations — which acquisition slot
//     each contended OpenMP lock acquire was granted.
//   - CrashPoints: where crash-stops landed and where their failures
//     were observed (crash/fail/abort positions).
//
// Signatures are canonical strings (ranks and tids 0-based, sorted),
// so coverage sets from different runs union exactly and a merged
// corpus set counts distinct decisions, not runs.

// Coverage is the distinct-decision summary of one or more runs. The
// slices are sorted and duplicate-free; empty families are omitted
// from JSON.
type Coverage struct {
	Matches     []string `json:"matches,omitempty"`
	Collectives []string `json:"collectives,omitempty"`
	LockOrders  []string `json:"lockOrders,omitempty"`
	CrashPoints []string `json:"crashPoints,omitempty"`
}

// CoverageOf computes the coverage of one recorded schedule.
func CoverageOf(recs []Record) Coverage {
	matches := map[string]struct{}{}
	locks := map[string]struct{}{}
	crashes := map[string]struct{}{}
	// Collective instances accumulate members first, then sign.
	type collKey struct {
		comm int
		seq  int64
	}
	colls := map[collKey]map[string]struct{}{}
	for _, rec := range recs {
		switch rec.Kind {
		case chaos.KindMatch:
			m := rec.Msg()
			matches[fmt.Sprintf("p%d.t%d@%d<-p%d.t%d#%d",
				rec.Rank, rec.TID, rec.Seq, m.Rank, m.TID, m.Seq)] = struct{}{}
		case chaos.KindPoll:
			m := rec.Msg()
			if rec.SrcSeq == 0 {
				// Bare completion poll: the decision is that it succeeded
				// at this point at all.
				matches[fmt.Sprintf("poll:p%d.t%d@%d", rec.Rank, rec.TID, rec.Seq)] = struct{}{}
			} else {
				matches[fmt.Sprintf("poll:p%d.t%d@%d<-p%d.t%d#%d",
					rec.Rank, rec.TID, rec.Seq, m.Rank, m.TID, m.Seq)] = struct{}{}
			}
		case chaos.KindColl:
			k := collKey{comm: rec.Comm1 - 1, seq: rec.CollSeq}
			if colls[k] == nil {
				colls[k] = map[string]struct{}{}
			}
			colls[k][fmt.Sprintf("p%d.t%d:%d", rec.Rank, rec.TID, rec.Ord)] = struct{}{}
		case chaos.KindLock:
			locks[fmt.Sprintf("p%d.t%d@%d=%d", rec.Rank, rec.TID, rec.Seq, rec.Ticket)] = struct{}{}
		case chaos.KindCrash:
			crashes[fmt.Sprintf("crash:p%d", rec.Rank)] = struct{}{}
		case chaos.KindFail:
			crashes[fmt.Sprintf("fail:p%d.t%d@%d<-p%d",
				rec.Rank, rec.TID, rec.Seq, rec.DeadRank())] = struct{}{}
		case chaos.KindAbort:
			crashes[fmt.Sprintf("abort:p%d.t%d@%d", rec.Rank, rec.TID, rec.Seq)] = struct{}{}
		}
	}
	collSigs := map[string]struct{}{}
	for k, memberSet := range colls {
		members := sortedSet(memberSet)
		collSigs[fmt.Sprintf("c%d#%d[%s]", k.comm, k.seq, strings.Join(members, " "))] = struct{}{}
	}
	return Coverage{
		Matches:     sortedSet(matches),
		Collectives: sortedSet(collSigs),
		LockOrders:  sortedSet(locks),
		CrashPoints: sortedSet(crashes),
	}
}

func sortedSet(m map[string]struct{}) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Merge unions two coverage sets. Commutative and associative, like
// obs.Snapshot.Merge; neither operand is modified.
func (c Coverage) Merge(o Coverage) Coverage {
	return Coverage{
		Matches:     unionSorted(c.Matches, o.Matches),
		Collectives: unionSorted(c.Collectives, o.Collectives),
		LockOrders:  unionSorted(c.LockOrders, o.LockOrders),
		CrashPoints: unionSorted(c.CrashPoints, o.CrashPoints),
	}
}

func unionSorted(a, b []string) []string {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	set := make(map[string]struct{}, len(a)+len(b))
	for _, s := range a {
		set[s] = struct{}{}
	}
	for _, s := range b {
		set[s] = struct{}{}
	}
	return sortedSet(set)
}

// CoverageCounts is the per-family cardinality of a Coverage — the
// compact form reports tabulate.
type CoverageCounts struct {
	Matches     int `json:"matches"`
	Collectives int `json:"collectives"`
	LockOrders  int `json:"lockOrders"`
	CrashPoints int `json:"crashPoints"`
}

// Counts returns the per-family cardinalities.
func (c Coverage) Counts() CoverageCounts {
	return CoverageCounts{
		Matches:     len(c.Matches),
		Collectives: len(c.Collectives),
		LockOrders:  len(c.LockOrders),
		CrashPoints: len(c.CrashPoints),
	}
}

// Total returns the total number of distinct decisions across all
// families.
func (c Coverage) Total() int {
	return len(c.Matches) + len(c.Collectives) + len(c.LockOrders) + len(c.CrashPoints)
}

// Records returns a sorted copy of the accumulated records (the same
// canonical order the wire format uses).
func (r *Recorder) Records() []Record {
	_, recs := r.snapshot()
	return recs
}

// Coverage computes the coverage of the schedule recorded so far.
func (r *Recorder) Coverage() Coverage {
	return CoverageOf(r.Records())
}

// Records returns the schedule's records in canonical order.
func (s *Schedule) Records() []Record {
	recs := make([]Record, len(s.recs))
	copy(recs, s.recs)
	return recs
}

// Coverage computes the coverage of a loaded schedule — what a replay
// of it will exercise.
func (s *Schedule) Coverage() Coverage {
	return CoverageOf(s.recs)
}
