// Package msgrace implements a cross-rank message-race analysis, the
// class of MPI nondeterminism the paper's introduction describes
// (citing Netzer et al.) but deliberately scopes out of HOME ("we
// only care about how to detect these thread-safety issues instead of
// pure MPI errors"). It is provided as an extension: the same
// recorded event stream HOME consumes already contains everything a
// wildcard-receive race check needs.
//
// A message race exists when a receive could have been satisfied by
// more than one in-flight message: classically, a wildcard
// (MPI_ANY_SOURCE) receive with two or more concurrent senders, or
// same-signature sends from different ranks racing into one matching
// queue. Most such races are benign nondeterminism; some silently
// corrupt data (the stencil2d example's broken variant). Following
// DAMPI's spirit, the analysis is conservative over a single observed
// run: it flags receive signatures for which multiple candidate
// senders existed, without attempting replay.
package msgrace

import (
	"fmt"
	"sort"

	"home/internal/trace"
)

// Report is one potential message race.
type Report struct {
	// Rank is the receiving process.
	Rank int
	// Wildcard reports whether the receive used MPI_ANY_SOURCE.
	Wildcard bool
	// Tag is the receive tag (-1 for MPI_ANY_TAG).
	Tag int
	// Comm is the communicator.
	Comm int
	// RecvLines are the source lines of the racy receives.
	RecvLines []int
	// Senders are the distinct sender ranks whose messages compete.
	Senders []int
	// Messages counts competing sends observed.
	Messages int
}

func (r Report) String() string {
	kind := "same-signature receives"
	if r.Wildcard {
		kind = "wildcard receive"
	}
	return fmt.Sprintf(
		"message race on rank %d: %s (tag=%d, comm=%d) at lines %v can match %d messages from ranks %v",
		r.Rank, kind, r.Tag, r.Comm, r.RecvLines, r.Messages, r.Senders)
}

// sendKey groups sends by destination-visible signature.
type sendKey struct {
	dest int
	tag  int
	comm int
}

// recvKey groups receives by their selector.
type recvKey struct {
	rank   int
	source int
	tag    int
	comm   int
}

// Analyze scans the recorded call stream for receive signatures with
// multiple competing senders. It needs the instrument-everything
// stream (PMPI-style); with HOME's selective instrumentation it sees
// only parallel-region traffic. The stream may come as consecutive
// chunks, such as trace.Log.Chunks returns.
func Analyze(chunks ...[]trace.Event) []Report {
	// Sends grouped by (dest, tag, comm): which ranks sent, how many
	// messages. The destination is Call.Peer on the send side.
	sends := map[sendKey]map[int]int{} // key -> sender rank -> count
	// Receives grouped by selector; values are source lines.
	recvs := map[recvKey][]int{}

	for _, chunk := range chunks {
		for i := range chunk {
			e := &chunk[i]
			if e.Op != trace.OpMPICall || e.Call == nil {
				continue
			}
			c := e.Call
			switch c.Kind {
			case trace.CallSend, trace.CallIsend:
				k := sendKey{dest: c.Peer, tag: c.Tag, comm: c.Comm}
				if sends[k] == nil {
					sends[k] = map[int]int{}
				}
				sends[k][e.Rank]++
			case trace.CallSendrecv:
				// The send half targets Peer with the *send* tag, which
				// the record does not carry separately; the receive half
				// is handled below. Conservatively skip the send half.
			}
			switch c.Kind {
			case trace.CallRecv, trace.CallIrecv, trace.CallSendrecv:
				k := recvKey{rank: e.Rank, source: c.Peer, tag: c.Tag, comm: c.Comm}
				recvs[k] = append(recvs[k], c.Line)
			}
		}
	}

	var out []Report
	for rk, lines := range recvs {
		// Candidate messages: sends whose signature this receive can
		// match.
		senders := map[int]int{}
		for sk, bySender := range sends {
			if sk.dest != rk.rank || sk.comm != rk.comm {
				continue
			}
			if rk.tag != -1 && sk.tag != rk.tag {
				continue
			}
			for sender, n := range bySender {
				if rk.source != -1 && sender != rk.source {
					continue
				}
				senders[sender] += n
			}
		}
		if len(senders) < 2 {
			// One sender only: order is fixed by non-overtaking unless
			// several receives contend, which the thread-safety
			// checker (ConcurrentRecv) already covers.
			continue
		}
		var ranks []int
		msgs := 0
		for s, n := range senders {
			ranks = append(ranks, s)
			msgs += n
		}
		sort.Ints(ranks)
		sort.Ints(lines)
		out = append(out, Report{
			Rank:      rk.rank,
			Wildcard:  rk.source == -1,
			Tag:       rk.tag,
			Comm:      rk.comm,
			RecvLines: dedupInts(lines),
			Senders:   ranks,
			Messages:  msgs,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		if out[i].Tag != out[j].Tag {
			return out[i].Tag < out[j].Tag
		}
		return out[i].Comm < out[j].Comm
	})
	return out
}

func dedupInts(xs []int) []int {
	out := xs[:0:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}
