package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ErrTruncated reports a trace stream that ends mid-record — the
// signature of a recording cut short by a crash. ReadJSON returns a
// *TruncatedError (unwrapping to this sentinel) together with the
// events salvaged before the cut, so callers can analyze the prefix.
var ErrTruncated = errors.New("trace: truncated stream")

// TruncatedError carries how much of a truncated stream was salvaged.
type TruncatedError struct {
	// Events is the number of complete events decoded before the cut.
	Events int
	// Err is the decoder error at the point of truncation.
	Err error
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("trace: truncated stream after %d events: %v", e.Events, e.Err)
}

// Unwrap makes errors.Is(err, ErrTruncated) match.
func (e *TruncatedError) Unwrap() error { return ErrTruncated }

// The paper notes dynamic analysis may run online (during execution)
// or offline (after it terminates). This codec supports the offline
// mode: event logs serialize to newline-delimited JSON, so a recorded
// run can be re-analyzed later with different analysis options
// (cmd/hometrace).

// jsonEvent is the wire form of an Event: flat, with the call record
// inlined when present.
type jsonEvent struct {
	Seq  uint64 `json:"seq"`
	Rank int    `json:"rank"`
	TID  int    `json:"tid"`
	Time int64  `json:"time"`
	Op   string `json:"op"`

	LocRank int    `json:"locRank,omitempty"`
	LocName string `json:"locName,omitempty"`

	LockRank int    `json:"lockRank,omitempty"`
	LockName string `json:"lockName,omitempty"`

	SyncRank int    `json:"syncRank,omitempty"`
	SyncSeq  uint64 `json:"syncSeq,omitempty"`

	Call *jsonCall `json:"call,omitempty"`
}

type jsonCall struct {
	Kind    string `json:"kind"`
	Peer    int    `json:"peer"`
	Tag     int    `json:"tag"`
	Comm    int    `json:"comm"`
	Request int    `json:"request"`
	Level   int    `json:"level"`
	Win     int    `json:"win"`
	Line    int    `json:"line"`

	// Match-edge tags (zero = untagged); omitted on the wire when
	// absent so pre-tagging recordings decode unchanged.
	SendIx    uint64 `json:"sendIx,omitempty"`
	MatchRank int    `json:"matchRank,omitempty"`
	MatchTID  int    `json:"matchTid,omitempty"`
	MatchIx   uint64 `json:"matchIx,omitempty"`
	CollSeq   int64  `json:"collSeq,omitempty"`
}

// opByName and callByName invert the stringers for decoding.
var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		m[name] = Op(op)
	}
	return m
}()

var callByName = func() map[string]CallKind {
	m := make(map[string]CallKind, len(callNames))
	for k, name := range callNames {
		m[name] = CallKind(k)
	}
	return m
}()

// payload moves the record's location, lock or episode into e, whose
// Op and Rank are set. An event names them within its own rank and
// carries at most one of them, the one its op takes, so a record with
// a payload rank other than its rank, or a payload its op does not
// take, is refused rather than silently changed.
func (je *jsonEvent) payload(e *Event) error {
	want := func(carried bool) int {
		if carried {
			return je.Rank
		}
		return 0
	}
	loc := e.Op == OpRead || e.Op == OpWrite
	lock := e.Op == OpAcquire || e.Op == OpRelease
	sync := e.Op.isSync()
	switch {
	case je.LocRank != want(loc):
		return fmt.Errorf("%s at rank %d has locRank %d", e.Op, je.Rank, je.LocRank)
	case je.LockRank != want(lock):
		return fmt.Errorf("%s at rank %d has lockRank %d", e.Op, je.Rank, je.LockRank)
	case je.SyncRank != want(sync):
		return fmt.Errorf("%s at rank %d has syncRank %d", e.Op, je.Rank, je.SyncRank)
	case je.LocName != "" && !loc:
		return fmt.Errorf("%s has a locName", e.Op)
	case je.LockName != "" && !lock:
		return fmt.Errorf("%s has a lockName", e.Op)
	case je.SyncSeq != 0 && !sync:
		return fmt.Errorf("%s has a syncSeq", e.Op)
	}
	e.Name = je.LocName + je.LockName
	e.SyncSeq = je.SyncSeq
	return nil
}

// WriteJSON serializes events as newline-delimited JSON.
func WriteJSON(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		loc, lock, sync := e.Loc(), e.Lock(), e.Sync()
		je := jsonEvent{
			Seq: e.Seq, Rank: e.Rank, TID: e.TID, Time: e.Time,
			Op:      e.Op.String(),
			LocRank: loc.Rank, LocName: loc.Name,
			LockRank: lock.Rank, LockName: lock.Name,
			SyncRank: sync.Rank, SyncSeq: sync.Seq,
		}
		if e.Call != nil {
			je.Call = &jsonCall{
				Kind: e.Call.Kind.String(), Peer: e.Call.Peer, Tag: e.Call.Tag,
				Comm: e.Call.Comm, Request: e.Call.Request,
				Level: e.Call.Level, Win: e.Call.Win, Line: e.Call.Line,
				SendIx: e.Call.SendIx, MatchRank: e.Call.MatchRank,
				MatchTID: e.Call.MatchTID, MatchIx: e.Call.MatchIx,
				CollSeq: e.Call.CollSeq,
			}
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSON deserializes a newline-delimited JSON event stream. Call
// records shared by several events in the original log are NOT
// re-deduplicated: each event gets its own record with equal contents,
// which the analyses treat identically.
//
// A record whose location, lock or episode is named at another rank
// than its own, or that names one its op does not take, is refused
// with an error naming its index: an Event cannot hold it.
//
// A stream that ends mid-record returns the complete events decoded so
// far together with a *TruncatedError, so a recording cut short by a
// crash can still be replayed as a prefix.
func ReadJSON(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for dec.More() {
		var je jsonEvent
		if err := dec.Decode(&je); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return out, &TruncatedError{Events: len(out), Err: err}
			}
			return nil, fmt.Errorf("trace: decode event %d: %w", len(out), err)
		}
		op, ok := opByName[je.Op]
		if !ok {
			return nil, fmt.Errorf("trace: event %d has unknown op %q", len(out), je.Op)
		}
		e := Event{Seq: je.Seq, Rank: je.Rank, TID: je.TID, Time: je.Time, Op: op}
		if err := je.payload(&e); err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", len(out), err)
		}
		if je.Call != nil {
			kind, ok := callByName[je.Call.Kind]
			if !ok {
				return nil, fmt.Errorf("trace: event %d has unknown call kind %q", len(out), je.Call.Kind)
			}
			e.Call = &MPICall{
				Kind: kind, Peer: je.Call.Peer, Tag: je.Call.Tag,
				Comm: je.Call.Comm, Request: je.Call.Request,
				Level: je.Call.Level, Win: je.Call.Win, Line: je.Call.Line,
				SendIx: je.Call.SendIx, MatchRank: je.Call.MatchRank,
				MatchTID: je.Call.MatchTID, MatchIx: je.Call.MatchIx,
				CollSeq: je.Call.CollSeq,
			}
		}
		out = append(out, e)
	}
	return out, nil
}
