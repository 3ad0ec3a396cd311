package sched

// Mutation and validation API over recorded schedules. A schedule
// pins every nondeterministic decision of a run, which makes it a
// mutable search space: the explorer (internal/explore) perturbs one
// pinned decision at a time — re-target a match, swap two lock grant
// tickets, re-elect a `single` winner, permute collective arrival
// ordinals, move a crash point, toggle a transient send fault — and
// replays the mutant. Mutations operate on plain record lists keyed by
// (kind, rank, tid, seq); ApplyMutations validates so
// an infeasible edit surfaces as a typed error before any replay runs.

import (
	"bytes"
	"fmt"
	"sort"

	"home/internal/chaos"
)

// Mutation operators. Each targets records by key so a mutation list
// stays applicable when other list entries are dropped (delta-debug
// minimization removes entries independently).
const (
	// OpFlipMatch swaps the matched-message identities of two match
	// records (A, B) — the wildcard receive/probe flip.
	OpFlipMatch = "flip-match"
	// OpSwapLocks swaps the grant tickets of two lock records (A, B).
	OpSwapLocks = "swap-locks"
	// OpReassignSingle re-elects the `single` winner of record A to
	// thread Arg of the same rank and construct ordinal.
	OpReassignSingle = "reassign-single"
	// OpPermuteColl swaps the arrival ordinals of two coll records
	// (A, B) belonging to the same collective instance.
	OpPermuteColl = "permute-coll"
	// OpCrashLater moves a recorded death later. A fail-record target
	// deletes that single record, so the schedule point that observed
	// the failure proceeds live instead — the death surfaces one
	// observation later on that thread. A crash-record target revives
	// the rank wholesale: the crash record, every fail record observing
	// that rank's death, and the rank's own abort records are deleted —
	// the failure never happened.
	OpCrashLater = "crash-later"
	// OpCrashEarlier clones fail record A one schedule point earlier on
	// the same thread, so the failure is observed one call sooner.
	OpCrashEarlier = "crash-earlier"
	// OpToggleSend toggles the transient-fault payload of send record
	// A: a clean send gains one retry (with a small virtual backoff), a
	// faulty one loses its retries.
	OpToggleSend = "toggle-send"
)

// Mutation is one targeted edit of a record list.
type Mutation struct {
	Op  string `json:"op"`
	A   Key    `json:"a"`
	B   Key    `json:"b,omitempty"`
	Arg int    `json:"arg,omitempty"`
}

func (m Mutation) String() string {
	switch m.Op {
	case OpFlipMatch, OpSwapLocks, OpPermuteColl:
		return fmt.Sprintf("%s %s<->%s", m.Op, m.A, m.B)
	case OpReassignSingle:
		return fmt.Sprintf("%s %s ->t%d", m.Op, m.A, m.Arg)
	default:
		return fmt.Sprintf("%s %s", m.Op, m.A)
	}
}

// SortRecords sorts records into the canonical wire order
// (rank, tid, seq, kind).
func SortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Kind < b.Kind
	})
}

// ValidateRecords checks a record list for structural soundness:
// known kinds, unique keys (crash records dedup by rank), per-kind
// payload sanity. It does not prove the schedule feasible — replay
// divergence and deadlock-by-construction are dynamic outcomes — but
// it rejects every edit that could not load as a schedule at all.
func ValidateRecords(recs []Record) error {
	seen := make(map[Key]struct{}, len(recs))
	for _, rec := range recs {
		k := rec.Key()
		if rec.Kind == chaos.KindCrash {
			k.TID, k.Seq = 0, 0
		}
		if _, dup := seen[k]; dup {
			return fmt.Errorf("sched: duplicate record for %s", k)
		}
		seen[k] = struct{}{}
		if rec.Rank < 0 || rec.TID < 0 {
			return fmt.Errorf("sched: negative coordinate on %s", k)
		}
		switch rec.Kind {
		case chaos.KindSend:
			if rec.Retries < 0 || rec.DelayNs < 0 || rec.BackoffNs < 0 || rec.JitterNs < 0 {
				return fmt.Errorf("sched: negative send payload on %s", k)
			}
		case chaos.KindStall:
			if rec.StallNs < 0 || rec.StallWallNs < 0 {
				return fmt.Errorf("sched: negative stall payload on %s", k)
			}
		case chaos.KindRMA:
			if rec.DelayNs < 0 {
				return fmt.Errorf("sched: negative rma delay on %s", k)
			}
		case chaos.KindFail:
			if rec.Dead1 < 1 {
				return fmt.Errorf("sched: fail record without dead rank on %s", k)
			}
		case chaos.KindMatch, chaos.KindPoll:
			if rec.SrcSeq > 0 && (rec.Src1 < 1 || rec.STID1 < 1) {
				return fmt.Errorf("sched: match payload without sender identity on %s", k)
			}
		case chaos.KindColl:
			if rec.Comm1 < 1 || rec.CollSeq < 1 || rec.Ord < 1 {
				return fmt.Errorf("sched: incomplete coll payload on %s", k)
			}
		case chaos.KindLock:
			if rec.Ticket < 1 {
				return fmt.Errorf("sched: lock record without ticket on %s", k)
			}
		case chaos.KindChunk:
			if rec.End < rec.Base {
				return fmt.Errorf("sched: inverted chunk range on %s", k)
			}
		case chaos.KindAbort, chaos.KindSingle, chaos.KindCrash:
			// Key-only kinds.
		default:
			return fmt.Errorf("sched: unknown record kind %q on %s", rec.Kind, k)
		}
	}
	return nil
}

// EncodeRecords serializes a record list as a schedule stream
// (current wire version) without requiring a Recorder — the mutant
// round-trip path of the explorer.
func EncodeRecords(plan chaos.Plan, recs []Record) []byte {
	sorted := make([]Record, len(recs))
	copy(sorted, recs)
	SortRecords(sorted)
	var buf bytes.Buffer
	writeStream(&buf, plan, sorted) // cannot fail on a bytes.Buffer
	return buf.Bytes()
}

// ApplyMutations applies a mutation list to a record list, returning a
// new sorted record list. A mutation whose target is missing or whose
// edit is structurally invalid returns an error — the caller
// classifies it as an infeasible mutant, it never panics or produces
// an unloadable stream.
func ApplyMutations(recs []Record, muts []Mutation) ([]Record, error) {
	out := make([]Record, len(recs))
	copy(out, recs)
	for _, m := range muts {
		idx := make(map[Key]int, len(out))
		for i, r := range out {
			idx[r.Key()] = i
		}
		find := func(k Key, kind string) (int, error) {
			i, ok := idx[k]
			if !ok {
				return 0, fmt.Errorf("sched: %s targets missing record %s", m.Op, k)
			}
			if out[i].Kind != kind {
				return 0, fmt.Errorf("sched: %s targets %s record %s, want %s", m.Op, out[i].Kind, k, kind)
			}
			return i, nil
		}
		switch m.Op {
		case OpFlipMatch:
			i, err := find(m.A, chaos.KindMatch)
			if err != nil {
				return nil, err
			}
			j, err := find(m.B, chaos.KindMatch)
			if err != nil {
				return nil, err
			}
			if i == j {
				return nil, fmt.Errorf("sched: %s needs two distinct records", m.Op)
			}
			out[i].Src1, out[j].Src1 = out[j].Src1, out[i].Src1
			out[i].STID1, out[j].STID1 = out[j].STID1, out[i].STID1
			out[i].SrcSeq, out[j].SrcSeq = out[j].SrcSeq, out[i].SrcSeq
		case OpSwapLocks:
			i, err := find(m.A, chaos.KindLock)
			if err != nil {
				return nil, err
			}
			j, err := find(m.B, chaos.KindLock)
			if err != nil {
				return nil, err
			}
			if i == j {
				return nil, fmt.Errorf("sched: %s needs two distinct records", m.Op)
			}
			out[i].Ticket, out[j].Ticket = out[j].Ticket, out[i].Ticket
		case OpReassignSingle:
			i, err := find(m.A, chaos.KindSingle)
			if err != nil {
				return nil, err
			}
			if m.Arg < 0 || m.Arg == out[i].TID {
				return nil, fmt.Errorf("sched: %s re-elects %s to its own thread %d", m.Op, m.A, m.Arg)
			}
			moved := m.A
			moved.TID = m.Arg
			if _, clash := idx[moved]; clash {
				return nil, fmt.Errorf("sched: %s collides with existing %s", m.Op, moved)
			}
			out[i].TID = m.Arg
		case OpPermuteColl:
			i, err := find(m.A, chaos.KindColl)
			if err != nil {
				return nil, err
			}
			j, err := find(m.B, chaos.KindColl)
			if err != nil {
				return nil, err
			}
			if i == j {
				return nil, fmt.Errorf("sched: %s needs two distinct records", m.Op)
			}
			if out[i].Comm1 != out[j].Comm1 || out[i].CollSeq != out[j].CollSeq {
				return nil, fmt.Errorf("sched: %s targets different collective instances", m.Op)
			}
			out[i].Ord, out[j].Ord = out[j].Ord, out[i].Ord
		case OpCrashLater:
			if m.A.Kind == chaos.KindCrash {
				if _, err := find(Key{Kind: chaos.KindCrash, Rank: m.A.Rank}, chaos.KindCrash); err != nil {
					return nil, err
				}
				kept := out[:0]
				for _, r := range out {
					switch {
					case r.Kind == chaos.KindCrash && r.Rank == m.A.Rank:
					case r.Kind == chaos.KindFail && r.DeadRank() == m.A.Rank:
					case r.Kind == chaos.KindAbort && r.Rank == m.A.Rank:
					default:
						kept = append(kept, r)
					}
				}
				out = kept
			} else {
				i, err := find(m.A, chaos.KindFail)
				if err != nil {
					return nil, err
				}
				out = append(out[:i], out[i+1:]...)
			}
		case OpCrashEarlier:
			i, err := find(m.A, chaos.KindFail)
			if err != nil {
				return nil, err
			}
			if out[i].Seq < 2 {
				return nil, fmt.Errorf("sched: %s has no earlier point before %s", m.Op, m.A)
			}
			clone := out[i]
			clone.Seq--
			if _, clash := idx[clone.Key()]; clash {
				return nil, fmt.Errorf("sched: %s collides with existing %s", m.Op, clone.Key())
			}
			out = append(out, clone)
		case OpToggleSend:
			i, err := find(m.A, chaos.KindSend)
			if err != nil {
				return nil, err
			}
			if out[i].Retries == 0 {
				out[i].Retries = 1
				if out[i].BackoffNs == 0 {
					out[i].BackoffNs = 1000
				}
			} else {
				out[i].Retries, out[i].BackoffNs = 0, 0
			}
		default:
			return nil, fmt.Errorf("sched: unknown mutation operator %q", m.Op)
		}
	}
	SortRecords(out)
	if err := ValidateRecords(out); err != nil {
		return nil, err
	}
	return out, nil
}
