package difftest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"home/internal/sched"
)

// readSchedule decodes a schedule stream, failing the test on error.
func readSchedule(t testing.TB, name string, data []byte) *sched.Schedule {
	t.Helper()
	s, err := sched.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: read: %v", name, err)
	}
	return s
}

// transcodeCases returns every schedule stream the transcode tests
// cover: the corpus cells' recorded schedules plus the two pinned
// fixtures of the harness goldens (the ConcurrentRecv crash-stop and
// the collective-call schedules).
func transcodeCases(t testing.TB) map[string][]byte {
	cases := map[string][]byte{}
	for _, c := range corpus(t) {
		cases[c.name] = c.sched
	}
	for _, pin := range []string{"pinned-sched.jsonl", "pinned-sched-v2.jsonl"} {
		data, err := os.ReadFile(filepath.Join("..", "harness", "testdata", pin))
		if err != nil {
			t.Fatalf("pinned schedule: %v", err)
		}
		cases["pinned/"+pin] = data
	}
	return cases
}

// TestTranscodeRoundTripIdentity proves the v3 container is lossless
// in both directions: JSONL -> binary -> JSONL reproduces the
// original stream byte-for-byte (including its base version), and
// binary -> JSONL -> binary is likewise stable.
func TestTranscodeRoundTripIdentity(t *testing.T) {
	for name, jsonl := range transcodeCases(t) {
		s := readSchedule(t, name, jsonl)
		bin, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal binary: %v", name, err)
		}
		if !sched.Binary(bin) {
			t.Fatalf("%s: binary encoding lacks the v3 magic", name)
		}
		s2 := readSchedule(t, name+" (binary)", bin)
		back, err := s2.MarshalJSONL()
		if err != nil {
			t.Fatalf("%s: marshal jsonl: %v", name, err)
		}
		if !bytes.Equal(back, jsonl) {
			t.Errorf("%s: v2→v3→v2 transcode not identical:\n got %q\nwant %q", name, back, jsonl)
			continue
		}
		bin2, err := s2.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: re-marshal binary: %v", name, err)
		}
		if !bytes.Equal(bin2, bin) {
			t.Errorf("%s: v3→v2→v3 transcode not identical", name)
		}
	}
}

// TestV3StrictlySmaller is the size contract the bench-baseline CI
// job enforces: for every corpus schedule the v3 container is
// strictly smaller than the JSONL container.
func TestV3StrictlySmaller(t *testing.T) {
	for _, c := range corpus(t) {
		s := readSchedule(t, c.name, c.sched)
		bin, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal binary: %v", c.name, err)
		}
		if len(bin) >= len(c.sched) {
			t.Errorf("%s: v3 stream is %d bytes, JSONL is %d — not strictly smaller",
				c.name, len(bin), len(c.sched))
		}
	}
}

// richestBinary returns the corpus cell with the largest binary
// schedule — the most structure for cut-point sweeps.
func richestBinary(t *testing.T) (string, []byte) {
	var name string
	var best []byte
	for _, c := range corpus(t) {
		s := readSchedule(t, c.name, c.sched)
		bin, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal binary: %v", c.name, err)
		}
		if len(bin) > len(best) {
			name, best = c.name, bin
		}
	}
	return name, best
}

// firstTokenOffset returns the byte offset of the first lane/record
// token in a v3 stream — the end of the header (magic, base version,
// plan length, plan JSON).
func firstTokenOffset(b []byte) int {
	off := len(sched.BinaryMagic)
	_, n := binary.Uvarint(b[off:]) // base version
	off += n
	planLen, n := binary.Uvarint(b[off:])
	return off + n + int(planLen)
}

// TestV3TruncationSalvagesPrefix cuts a v3 stream at every byte
// offset: each cut must produce an error (never a silent success —
// the end marker guarantees a complete stream is distinguishable).
// Cuts inside the header are hard errors with no schedule (without
// the embedded plan there is nothing to salvage: a plan-less replay
// would silently run chaos-free); cuts at or past the first token
// salvage, and the salvaged schedule must re-encode to a prefix of
// the full stream's JSONL lines.
func TestV3TruncationSalvagesPrefix(t *testing.T) {
	name, bin := richestBinary(t)
	full := readSchedule(t, name, bin)
	fullJSONL, err := full.MarshalJSONL()
	if err != nil {
		t.Fatal(err)
	}
	fullLines := bytes.Split(fullJSONL, []byte("\n"))
	headerEnd := firstTokenOffset(bin)
	for cut := 0; cut < len(bin); cut++ {
		s, err := sched.Read(bytes.NewReader(bin[:cut]))
		if err == nil {
			t.Fatalf("cut at %d/%d: truncated stream read without error", cut, len(bin))
		}
		if cut < headerEnd {
			if errors.Is(err, sched.ErrTruncated) {
				t.Fatalf("cut at %d (header ends at %d): want hard error, got salvage %v", cut, headerEnd, err)
			}
			if s != nil {
				t.Fatalf("cut at %d: schedule returned alongside hard error %v", cut, err)
			}
			continue
		}
		var te *sched.TruncatedError
		if !errors.As(err, &te) {
			t.Fatalf("cut at %d (header ends at %d): want *TruncatedError, got %v", cut, headerEnd, err)
		}
		if !errors.Is(err, sched.ErrTruncated) {
			t.Fatalf("cut at %d: TruncatedError does not unwrap to ErrTruncated", cut)
		}
		if s == nil {
			t.Fatalf("cut at %d: TruncatedError carried no salvaged schedule", cut)
		}
		salv, err := s.MarshalJSONL()
		if err != nil {
			t.Fatalf("cut at %d: salvaged schedule marshal: %v", cut, err)
		}
		salvLines := bytes.Split(salv, []byte("\n"))
		if len(salvLines) > len(fullLines) {
			t.Fatalf("cut at %d: salvage has more lines than the full stream", cut)
		}
		for i, line := range salvLines {
			if i == len(salvLines)-1 && len(line) == 0 {
				continue // trailing newline
			}
			if !bytes.Equal(line, fullLines[i]) {
				t.Fatalf("cut at %d: salvaged line %d diverges from the full stream:\n got %s\nwant %s",
					cut, i, line, fullLines[i])
			}
		}
	}
}

// TestV3CorruptionIsTyped exercises the hard-error paths: corruption
// that cannot be mistaken for truncation must fail with a descriptive
// error that is NOT ErrTruncated.
func TestV3CorruptionIsTyped(t *testing.T) {
	_, bin := richestBinary(t)
	mutate := func(f func(b []byte) []byte) error {
		_, err := sched.Read(bytes.NewReader(f(append([]byte(nil), bin...))))
		return err
	}

	// Unknown token byte where the first lane or record token belongs.
	if err := mutate(func(b []byte) []byte {
		b[firstTokenOffset(b)] = 0xEE
		return b
	}); err == nil || errors.Is(err, sched.ErrTruncated) {
		t.Errorf("unknown token: want hard error, got %v", err)
	}

	// Record-count mismatch at the end marker.
	if err := mutate(func(b []byte) []byte {
		b[len(b)-1] ^= 0x01
		return b
	}); err == nil || errors.Is(err, sched.ErrTruncated) {
		t.Errorf("count mismatch: want hard error, got %v", err)
	}

	// Unsupported base version.
	if err := mutate(func(b []byte) []byte {
		b[len(sched.BinaryMagic)] = 9
		return b
	}); err == nil || errors.Is(err, sched.ErrTruncated) {
		t.Errorf("bad base version: want hard error, got %v", err)
	}

	// A wrong magic falls through to the JSONL reader and fails there.
	if err := mutate(func(b []byte) []byte {
		b[0] = 'X'
		return b
	}); err == nil || errors.Is(err, sched.ErrTruncated) {
		t.Errorf("bad magic: want hard JSONL error, got %v", err)
	}
}
