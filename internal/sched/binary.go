package sched

// Binary schedule container (format v3). The JSONL container spends
// most of its bytes on repeated JSON keys and re-stating the (rank,
// tid) lane on every record; v3 stores the canonical record order as
// per-lane streams — one lane header per (rank, tid), then
// delta-encoded schedule points — with varint payloads, typically
// 3-5× smaller and decoded without a JSON parser.
//
// Layout (all integers unsigned varints unless marked zigzag):
//
//	magic "HSB3"
//	baseVersion          semantic version of the records (always 2, the
//	                     JSONL version the stream transcodes to; other
//	                     values are rejected)
//	planLen, planJSON    the embedded chaos plan, verbatim JSON
//	tokens:
//	  0x01 rank tid      lane header; resets the seq delta base to 0
//	  0x10+kind seqΔ …   one record: kind index, seq delta within the
//	                     lane (canonical order never decreases), then
//	                     the kind's payload fields
//	  0x00 count         end marker with the record count (integrity
//	                     check against silent tail loss)
//
// A stream cut mid-token salvages the complete-record prefix and
// returns *TruncatedError, exactly like the JSONL reader; any
// malformed token (unknown kind, varint overflow, count mismatch) is
// a hard typed error. A cut inside the header — before the embedded
// plan is complete — is also a hard error: with no plan a replay
// could only run chaos-free and silently diverge from the recording,
// so there is nothing meaningful to salvage. sched.Read sniffs the
// magic, so every consumer of schedule streams accepts both
// containers transparently.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"home/internal/chaos"
)

// BinaryMagic introduces a v3 binary schedule stream.
const BinaryMagic = "HSB3"

// BinaryVersion is the container version of the binary codec.
const BinaryVersion = 3

// Token bytes.
const (
	tokEnd  = 0x00
	tokLane = 0x01
	tokKind = 0x10
)

// kindIndex fixes the wire order of record kinds. Appending is safe;
// reordering breaks decoding of existing streams.
var kindIndex = []string{
	chaos.KindSend, chaos.KindStall, chaos.KindRMA, chaos.KindFail,
	chaos.KindAbort, chaos.KindMatch, chaos.KindPoll, chaos.KindCrash,
	chaos.KindColl, chaos.KindLock, chaos.KindSingle, chaos.KindChunk,
}

var kindOf = func() map[string]int {
	m := make(map[string]int, len(kindIndex))
	for i, k := range kindIndex {
		m[k] = i
	}
	return m
}()

func zig(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encodeBinary serializes an already-canonical record list.
func encodeBinary(plan chaos.Plan, recs []Record) ([]byte, error) {
	planJSON, err := json.Marshal(plan)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(BinaryMagic)+len(planJSON)+8+len(recs)*8)
	out = append(out, BinaryMagic...)
	out = binary.AppendUvarint(out, Version)
	out = binary.AppendUvarint(out, uint64(len(planJSON)))
	out = append(out, planJSON...)

	laneRank, laneTID := -1, -1
	var prevSeq uint64
	for _, rec := range recs {
		ki, ok := kindOf[rec.Kind]
		if !ok {
			return nil, fmt.Errorf("sched: cannot binary-encode unknown record kind %q", rec.Kind)
		}
		if rec.Rank != laneRank || rec.TID != laneTID || rec.Seq < prevSeq {
			out = append(out, tokLane)
			out = binary.AppendUvarint(out, uint64(rec.Rank))
			out = binary.AppendUvarint(out, uint64(rec.TID))
			laneRank, laneTID, prevSeq = rec.Rank, rec.TID, 0
		}
		out = append(out, byte(tokKind+ki))
		out = binary.AppendUvarint(out, rec.Seq-prevSeq)
		prevSeq = rec.Seq
		out = appendPayload(out, rec)
	}
	out = append(out, tokEnd)
	out = binary.AppendUvarint(out, uint64(len(recs)))
	return out, nil
}

// appendPayload writes the per-kind payload fields. The field lists
// mirror what the Record* constructors populate; fields outside a
// kind's list do not survive the binary round trip (the JSONL codec
// has the same per-kind contract, it just doesn't enforce it).
func appendPayload(out []byte, rec Record) []byte {
	switch rec.Kind {
	case chaos.KindSend:
		out = binary.AppendUvarint(out, zig(rec.DelayNs))
		b := byte(0)
		if rec.Reorder {
			b = 1
		}
		out = append(out, b)
		out = binary.AppendUvarint(out, uint64(rec.Retries))
		out = binary.AppendUvarint(out, zig(rec.BackoffNs))
		out = binary.AppendUvarint(out, zig(rec.JitterNs))
	case chaos.KindStall:
		out = binary.AppendUvarint(out, zig(rec.StallNs))
		out = binary.AppendUvarint(out, zig(rec.StallWallNs))
	case chaos.KindRMA:
		out = binary.AppendUvarint(out, zig(rec.DelayNs))
	case chaos.KindFail:
		out = binary.AppendUvarint(out, uint64(rec.Dead1))
	case chaos.KindAbort, chaos.KindCrash, chaos.KindSingle:
		// key-only records
	case chaos.KindMatch, chaos.KindPoll:
		out = binary.AppendUvarint(out, uint64(rec.Src1))
		out = binary.AppendUvarint(out, uint64(rec.STID1))
		out = binary.AppendUvarint(out, rec.SrcSeq)
	case chaos.KindColl:
		out = binary.AppendUvarint(out, uint64(rec.Comm1))
		out = binary.AppendUvarint(out, zig(rec.CollSeq))
		out = binary.AppendUvarint(out, uint64(rec.Ord))
		out = binary.AppendUvarint(out, uint64(rec.NewComm1))
	case chaos.KindLock:
		out = binary.AppendUvarint(out, rec.Ticket)
	case chaos.KindChunk:
		out = binary.AppendUvarint(out, zig(rec.Base))
		out = binary.AppendUvarint(out, zig(rec.End))
	}
	return out
}

// readBinary decodes a v3 stream whose magic has been consumed (or
// will be — it tolerates either). Truncation salvages the
// complete-record prefix.
func readBinary(br *bufio.Reader) (*Schedule, error) {
	magic := make([]byte, len(BinaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, headerErr(err)
	}
	if string(magic) != BinaryMagic {
		return nil, fmt.Errorf("sched: not a binary schedule stream (magic %q)", magic)
	}
	baseVersion, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, headerErr(err)
	}
	if baseVersion > Version {
		return nil, fmt.Errorf("sched: binary stream base version %d is newer than supported %d", baseVersion, Version)
	}
	if err := checkVersion(int(baseVersion)); err != nil {
		return nil, err
	}
	planLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, headerErr(err)
	}
	const maxPlan = 1 << 20
	if planLen > maxPlan {
		return nil, fmt.Errorf("sched: binary stream plan length %d exceeds limit", planLen)
	}
	planJSON := make([]byte, planLen)
	if _, err := io.ReadFull(br, planJSON); err != nil {
		return nil, headerErr(err)
	}
	var plan chaos.Plan
	if err := json.Unmarshal(planJSON, &plan); err != nil {
		return nil, fmt.Errorf("sched: binary stream embeds malformed plan: %w", err)
	}

	var recs []Record
	laneRank, laneTID := -1, -1
	var prevSeq uint64
	salvage := func(err error) (*Schedule, error) {
		s, serr := newSchedule(plan, recs)
		if serr != nil {
			return nil, serr
		}
		return s, &TruncatedError{Records: len(recs), Err: err}
	}
	for {
		tok, err := br.ReadByte()
		if err != nil {
			return salvage(err)
		}
		switch {
		case tok == tokEnd:
			count, err := binary.ReadUvarint(br)
			if err != nil {
				return salvage(err)
			}
			if count != uint64(len(recs)) {
				return nil, fmt.Errorf("sched: binary stream record count %d does not match %d decoded records", count, len(recs))
			}
			return newSchedule(plan, recs)
		case tok == tokLane:
			r, err := binary.ReadUvarint(br)
			if err != nil {
				return salvage(err)
			}
			t, err := binary.ReadUvarint(br)
			if err != nil {
				return salvage(err)
			}
			laneRank, laneTID, prevSeq = int(r), int(t), 0
		case tok >= tokKind && int(tok-tokKind) < len(kindIndex):
			if laneRank < 0 {
				return nil, fmt.Errorf("sched: binary stream record before any lane header")
			}
			delta, err := binary.ReadUvarint(br)
			if err != nil {
				return salvage(err)
			}
			rec := Record{Kind: kindIndex[tok-tokKind], Rank: laneRank, TID: laneTID, Seq: prevSeq + delta}
			prevSeq = rec.Seq
			if err := readPayload(br, &rec); err != nil {
				return salvage(err)
			}
			recs = append(recs, rec)
		default:
			return nil, fmt.Errorf("sched: binary stream has unknown token 0x%02x after %d records", tok, len(recs))
		}
	}
}

// headerErr wraps any failure before the embedded plan has fully
// decoded. Deliberately NOT a *TruncatedError: the salvage contract
// is "replay the recorded prefix of decisions under the recorded
// plan", and with the plan missing a replay could only run chaos-free
// and silently diverge, so header damage is hard like corruption.
func headerErr(err error) error {
	return fmt.Errorf("sched: binary stream truncated or corrupt in header: %w", err)
}

// readPayload decodes the per-kind payload fields into rec.
func readPayload(br *bufio.Reader, rec *Record) error {
	u := func() (uint64, error) { return binary.ReadUvarint(br) }
	switch rec.Kind {
	case chaos.KindSend:
		v, err := u()
		if err != nil {
			return err
		}
		rec.DelayNs = unzig(v)
		b, err := br.ReadByte()
		if err != nil {
			return err
		}
		rec.Reorder = b != 0
		if v, err = u(); err != nil {
			return err
		}
		rec.Retries = int(v)
		if v, err = u(); err != nil {
			return err
		}
		rec.BackoffNs = unzig(v)
		if v, err = u(); err != nil {
			return err
		}
		rec.JitterNs = unzig(v)
	case chaos.KindStall:
		v, err := u()
		if err != nil {
			return err
		}
		rec.StallNs = unzig(v)
		if v, err = u(); err != nil {
			return err
		}
		rec.StallWallNs = unzig(v)
	case chaos.KindRMA:
		v, err := u()
		if err != nil {
			return err
		}
		rec.DelayNs = unzig(v)
	case chaos.KindFail:
		v, err := u()
		if err != nil {
			return err
		}
		rec.Dead1 = int(v)
	case chaos.KindAbort, chaos.KindCrash, chaos.KindSingle:
	case chaos.KindMatch, chaos.KindPoll:
		v, err := u()
		if err != nil {
			return err
		}
		rec.Src1 = int(v)
		if v, err = u(); err != nil {
			return err
		}
		rec.STID1 = int(v)
		if v, err = u(); err != nil {
			return err
		}
		rec.SrcSeq = v
	case chaos.KindColl:
		v, err := u()
		if err != nil {
			return err
		}
		rec.Comm1 = int(v)
		if v, err = u(); err != nil {
			return err
		}
		rec.CollSeq = unzig(v)
		if v, err = u(); err != nil {
			return err
		}
		rec.Ord = int(v)
		if v, err = u(); err != nil {
			return err
		}
		rec.NewComm1 = int(v)
	case chaos.KindLock:
		v, err := u()
		if err != nil {
			return err
		}
		rec.Ticket = v
	case chaos.KindChunk:
		v, err := u()
		if err != nil {
			return err
		}
		rec.Base = unzig(v)
		if v, err = u(); err != nil {
			return err
		}
		rec.End = unzig(v)
	}
	return nil
}

// WriteBinary serializes the recorded schedule in the v3 binary
// container (record semantics stay at the current JSONL Version).
func (r *Recorder) WriteBinary(w io.Writer) error {
	plan, recs := r.snapshot()
	data, err := encodeBinary(plan, recs)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// BytesBinary serializes the recorded schedule to memory in the v3
// binary container.
func (r *Recorder) BytesBinary() []byte {
	plan, recs := r.snapshot()
	data, err := encodeBinary(plan, recs)
	if err != nil {
		// Recorder-produced records always carry known kinds and the
		// plan marshals (it arrived as a struct); keep the signature
		// allocation-free for callers.
		panic(err)
	}
	return data
}

// WriteFileBinary serializes the recorded schedule to a file in the
// v3 binary container.
func (r *Recorder) WriteFileBinary(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// MarshalBinary re-encodes a decoded schedule in the v3 binary
// container, preserving its record order — one direction of the
// lossless transcode.
func (s *Schedule) MarshalBinary() ([]byte, error) {
	return encodeBinary(s.plan, s.recs)
}

// MarshalJSONL re-encodes a decoded schedule in the JSONL container —
// the other direction of the transcode. A v2→v3→v2 round trip is
// byte-identical.
func (s *Schedule) MarshalJSONL() ([]byte, error) {
	var buf bytes.Buffer
	if err := writeStream(&buf, s.plan, s.recs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Binary reports whether raw bytes look like a v3 binary stream.
func Binary(data []byte) bool {
	return len(data) >= len(BinaryMagic) && string(data[:len(BinaryMagic)]) == BinaryMagic
}
