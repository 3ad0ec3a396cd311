package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"home/internal/sched"
)

// TestTraceTranscodeRoundTrip converts the pinned v2 schedule to the
// binary container and back through the CLI verb, asserting the round
// trip reproduces the original stream byte-for-byte.
func TestTraceTranscodeRoundTrip(t *testing.T) {
	src := filepath.Join("..", "harness", "testdata", "pinned-sched-v2.jsonl")
	orig, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	binPath := filepath.Join(dir, "sched.bin")
	backPath := filepath.Join(dir, "sched.jsonl")

	var out, errb bytes.Buffer
	if code := HomeTrace([]string{"transcode", "-o", binPath, src}, &out, &errb); code != 0 {
		t.Fatalf("transcode to binary: exit %d: %s", code, errb.String())
	}
	bin, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Binary(bin) {
		t.Fatal("transcode output lacks the v3 magic")
	}
	if len(bin) >= len(orig) {
		t.Fatalf("binary container is %d bytes, JSONL is %d — expected smaller", len(bin), len(orig))
	}

	errb.Reset()
	if code := HomeTrace([]string{"transcode", "-o", backPath, binPath}, &out, &errb); code != 0 {
		t.Fatalf("transcode back to jsonl: exit %d: %s", code, errb.String())
	}
	back, err := os.ReadFile(backPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, orig) {
		t.Fatalf("v2->v3->v2 round trip diverged:\n got %q\nwant %q", back, orig)
	}
}

// TestTraceTranscodeExplicitTarget pins -to handling and the
// stdout-writing path, on the pinned ConcurrentRecv crash-stop
// schedule.
func TestTraceTranscodeExplicitTarget(t *testing.T) {
	src := filepath.Join("..", "harness", "testdata", "pinned-sched.jsonl")
	orig, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := HomeTrace([]string{"transcode", "-to", "v3", src}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !sched.Binary(out.Bytes()) {
		t.Fatal("stdout output lacks the v3 magic")
	}
	// Decoding the binary output and re-encoding it as JSONL must give
	// back the original stream.
	s, err := sched.Read(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	back, err := s.MarshalJSONL()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, orig) {
		t.Fatal("pinned schedule did not survive the binary round trip")
	}

	errb.Reset()
	if code := HomeTrace([]string{"transcode", "-to", "gzip", src}, &out, &errb); code != 2 {
		t.Fatalf("unknown -to: exit %d, want 2", code)
	}
}
