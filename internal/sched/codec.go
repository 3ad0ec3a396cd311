package sched

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"home/internal/chaos"
)

// Wire format constants. A schedule stream is one header line followed
// by one JSON record per line, sorted by (rank, tid, seq, kind).
//
// Version history:
//
//	1  fault decisions and failure/match/poll resolutions only. No
//	   longer read: Read rejects it with an error naming the version
//	2  adds the order families (coll/lock/single/chunk) — replay
//	   reproduces the report identity and virtual time: Makespan,
//	   event timestamps, timelines
//
// Version 3 is a *container*, not new semantics: the same records in
// the binary per-lane framing of binary.go. It keeps a base-version
// field (always 2) so transcoding is lossless in both directions.
// Read sniffs the container automatically.
const (
	Format  = "home-sched"
	Version = 2
)

// header is the first line of a schedule stream. It embeds the full
// chaos plan (not its spec string: knob values that ParseSpec cannot
// express, like a zero probability overriding a Perturb default, must
// survive the round trip exactly).
type header struct {
	Format  string     `json:"format"`
	Version int        `json:"version"`
	Plan    chaos.Plan `json:"plan"`
}

// checkVersion accepts only the current record version; both
// containers share it.
func checkVersion(v int) error {
	switch {
	case v > Version:
		return fmt.Errorf("sched: schedule version %d is newer than supported %d", v, Version)
	case v < Version:
		return fmt.Errorf("sched: schedule version %d is no longer supported (only version %d replays); re-record the run", v, Version)
	}
	return nil
}

// ErrTruncated reports a schedule stream cut mid-record. Mirrors
// trace.ErrTruncated: the reader still returns the salvaged prefix.
var ErrTruncated = errors.New("sched: schedule stream truncated")

// TruncatedError carries the salvaged-record count of a truncated
// stream; it unwraps to ErrTruncated.
type TruncatedError struct {
	// Records is the number of complete records salvaged.
	Records int
	// Err is the underlying decode error.
	Err error
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("sched: schedule stream truncated after %d records: %v", e.Records, e.Err)
}

func (e *TruncatedError) Unwrap() error { return ErrTruncated }

// Write serializes the recorded schedule: a versioned header line
// carrying the chaos plan, then the records in canonical order.
func (r *Recorder) Write(w io.Writer) error {
	plan, recs := r.snapshot()
	return writeStream(w, plan, recs)
}

// writeStream serializes an already-sorted record list as a schedule
// stream.
func writeStream(w io.Writer, plan chaos.Plan, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Format: Format, Version: Version, Plan: plan}); err != nil {
		return err
	}
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Bytes serializes the recorded schedule to memory.
func (r *Recorder) Bytes() []byte {
	var buf bytes.Buffer
	r.Write(&buf) // cannot fail on a bytes.Buffer
	return buf.Bytes()
}

// Schedule converts the recorded schedule into a replay Source. The
// conversion goes through the wire format, so every replay — even an
// in-memory one — exercises the exact codec a file round trip would.
func (r *Recorder) Schedule() (*Schedule, error) {
	return Read(bytes.NewReader(r.Bytes()))
}

// WriteFile serializes the recorded schedule to a file.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses a schedule stream in either container — it sniffs the
// v3 binary magic and falls back to JSONL. A stream cut mid-record
// returns the salvaged prefix together with a *TruncatedError
// (unwrapping to ErrTruncated), mirroring trace.ReadJSON — a replay
// of a salvaged prefix forces the recorded interleaving as far as it
// goes. A *TruncatedError always comes with a non-nil salvaged
// schedule; a stream cut before its header is complete (including an
// empty stream) is a hard error, because without the embedded plan
// there is no prefix a replay could force.
func Read(rd io.Reader) (*Schedule, error) {
	br := bufio.NewReader(rd)
	if magic, err := br.Peek(len(BinaryMagic)); err == nil && string(magic) == BinaryMagic {
		return readBinary(br)
	}
	dec := json.NewDecoder(br)
	var h header
	if err := dec.Decode(&h); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("sched: schedule stream truncated in header: %w", err)
		}
		return nil, fmt.Errorf("sched: bad schedule header: %w", err)
	}
	if h.Format != Format {
		return nil, fmt.Errorf("sched: not a schedule stream (format %q, want %q)", h.Format, Format)
	}
	if err := checkVersion(h.Version); err != nil {
		return nil, err
	}
	var recs []Record
	for {
		var rec Record
		err := dec.Decode(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				s, serr := newSchedule(h.Plan, recs)
				if serr != nil {
					return nil, serr
				}
				return s, &TruncatedError{Records: len(recs), Err: err}
			}
			return nil, fmt.Errorf("sched: bad schedule record %d: %w", len(recs)+1, err)
		}
		recs = append(recs, rec)
	}
	return newSchedule(h.Plan, recs)
}

// ReadFile parses a schedule file.
func ReadFile(path string) (*Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
