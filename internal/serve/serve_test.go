package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"home"
	"home/internal/faults"
)

// cleanSrc terminates with no violations.
const cleanSrc = `int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  MPI_Barrier(MPI_COMM_WORLD);
  MPI_Finalize();
  return 0;
}`

// slowSrc burns enough interpreter steps to outlive a millisecond
// wall-clock watchdog but finishes fast under its virtual budget.
const slowSrc = `int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  int i;
  int x;
  x = 0;
  for (i = 0; i < 50000000; i = i + 1) { x = x + 1; }
  MPI_Finalize();
  return 0;
}`

// startServer boots a daemon on a free port and tears it down with the
// test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// submit posts a job request and decodes the response body into out
// (a *JobStatus on 202, a map on errors), returning the status code.
func submit(t *testing.T, s *Server, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post("http://"+s.Addr()+"/jobs", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

// getJSON decodes a GET response.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitJob polls a job until it leaves queued/running.
func waitJob(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st JobStatus
		if code := getJSON(t, "http://"+s.Addr()+"/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d", id, code)
		}
		if st.State != StateQueued && st.State != StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchReport reads a finished job's report bytes.
func fetchReport(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + "/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s/report: %d", id, resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.Bytes()
}

// TestJobLifecycle is the end-to-end pin: submit a violating program,
// watch it appear in the mounted live-plane run table, stream its
// phase/verdict events over SSE, and fetch the final report.
func TestJobLifecycle(t *testing.T) {
	s := startServer(t, Config{Workers: 2})

	// Subscribe to SSE before submitting so the full event stream for
	// the job is observed.
	resp, err := http.Get("http://" + s.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sse := make(chan string, 1024)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			sse <- sc.Text()
		}
		close(sse)
	}()

	var st JobStatus
	req := JobRequest{Program: faults.Program(home.ConcurrentRecvViolation), Name: "lifecycle", Procs: 2, Threads: 2, Seed: 1}
	if code := submit(t, s, req, &st); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if st.ID == "" || st.Hash == "" || st.CacheHit {
		t.Fatalf("first submission must be a registered cache miss: %+v", st)
	}

	final := waitJob(t, s, st.ID)
	if final.State != StateDone {
		t.Fatalf("state %s (error %q), want done", final.State, final.Error)
	}
	if !strings.Contains(final.Verdict, "violation") {
		t.Fatalf("verdict %q, want violations", final.Verdict)
	}

	// The run is on the mounted introspection surface, labeled with the
	// job name.
	var runs []map[string]any
	if code := getJSON(t, "http://"+s.Addr()+"/runs", &runs); code != http.StatusOK || len(runs) == 0 {
		t.Fatalf("GET /runs: %d, %d runs", code, len(runs))
	}
	found := false
	for _, r := range runs {
		info := r["info"].(map[string]any)
		if info["program"] == "lifecycle" && r["done"] == true {
			found = true
		}
	}
	if !found {
		t.Fatalf("run labeled with the job name must appear done in /runs: %v", runs)
	}

	// The SSE stream carries the job's phase transitions and verdict.
	types := map[string]bool{}
	deadline := time.After(30 * time.Second)
	for !types["verdict"] {
		select {
		case line, ok := <-sse:
			if !ok {
				t.Fatal("SSE stream ended before the verdict")
			}
			if rest, ok := strings.CutPrefix(line, "event: "); ok {
				types[rest] = true
			}
		case <-deadline:
			t.Fatalf("no verdict event; saw %v", types)
		}
	}
	for _, want := range []string{"run", "phase", "verdict"} {
		if !types[want] {
			t.Fatalf("SSE stream missing %q events; saw %v", want, types)
		}
	}

	rep := fetchReport(t, s, st.ID)
	var doc Report
	if err := json.Unmarshal(rep, &doc); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if doc.Verdict != final.Verdict || len(doc.Violations) == 0 || len(doc.RankCoverage) != 2 {
		t.Fatalf("report document incomplete: %+v", doc)
	}
}

// TestCacheHitByteIdenticalReport pins the acceptance criterion: a
// repeated submission is a cache hit (serve.cache_hits increments, no
// static/instrument phase events for its run) and its report bytes
// match the cold run exactly.
func TestCacheHitByteIdenticalReport(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	src := faults.Program(home.ProbeViolation)

	var cold JobStatus
	if code := submit(t, s, JobRequest{Program: src, Name: "cold", Seed: 7}, &cold); code != http.StatusAccepted {
		t.Fatalf("cold submit: %d", code)
	}
	if cold.CacheHit {
		t.Fatal("first submission cannot be a cache hit")
	}
	if st := waitJob(t, s, cold.ID); st.State != StateDone {
		t.Fatalf("cold job: %+v", st)
	}

	hits0, _ := s.CacheStats()
	var warm JobStatus
	if code := submit(t, s, JobRequest{Program: src, Name: "warm", Seed: 7}, &warm); code != http.StatusAccepted {
		t.Fatalf("warm submit: %d", code)
	}
	if !warm.CacheHit {
		t.Fatal("second submission of the same program must be a cache hit")
	}
	if warm.Hash != cold.Hash {
		t.Fatalf("same program, different hash: %q vs %q", warm.Hash, cold.Hash)
	}
	if hits, _ := s.CacheStats(); hits != hits0+1 {
		t.Fatalf("serve.cache_hits must increment: %d -> %d", hits0, hits)
	}
	if st := waitJob(t, s, warm.ID); st.State != StateDone {
		t.Fatalf("warm job: %+v", st)
	}

	if coldRep, warmRep := fetchReport(t, s, cold.ID), fetchReport(t, s, warm.ID); !bytes.Equal(coldRep, warmRep) {
		t.Fatalf("cache-hit report must be byte-identical to the cold run:\n%s\nvs\n%s", coldRep, warmRep)
	}

	// The warm run skipped the front-end: the SSE backlog shows no
	// static/instrument phase events for its run (the cold one has
	// them) — the acceptance criterion's observable signal.
	runPhases := collectPhases(t, s)
	coldPhases, warmPhases := runPhases["cold"], runPhases["warm"]
	if !coldPhases["static"] || !coldPhases["instrument"] {
		t.Fatalf("cold run must announce front-end phases, saw %v", coldPhases)
	}
	if warmPhases["static"] || warmPhases["instrument"] {
		t.Fatalf("warm run must skip front-end phases, saw %v", warmPhases)
	}
	if !warmPhases["execute"] {
		t.Fatalf("warm run must still execute, saw %v", warmPhases)
	}
}

// TestFinishedJobDropsCompiledHandle: the run is the only reader of a
// job's compiled handle, so a finished job no longer references it,
// and a resubmission of the program still finds it in the cache.
func TestFinishedJobDropsCompiledHandle(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	var first JobStatus
	if code := submit(t, s, JobRequest{Program: cleanSrc, Name: "first"}, &first); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if st := waitJob(t, s, first.ID); st.State != StateDone {
		t.Fatalf("job: %+v", st)
	}
	j := s.job(first.ID)
	j.mu.Lock()
	comp := j.comp
	j.mu.Unlock()
	if comp != nil {
		t.Fatal("a finished job still references its compiled handle")
	}
	var again JobStatus
	if code := submit(t, s, JobRequest{Program: cleanSrc, Name: "again"}, &again); code != http.StatusAccepted {
		t.Fatalf("resubmit: %d", code)
	}
	if !again.CacheHit {
		t.Fatal("resubmitting the program must hit the cache")
	}
	if st := waitJob(t, s, again.ID); st.State != StateDone {
		t.Fatalf("resubmitted job: %+v", st)
	}
}

// collectPhases replays the SSE backlog and groups phase events by the
// run's program label.
func collectPhases(t *testing.T, s *Server) map[string]map[string]bool {
	t.Helper()
	byID := map[string]string{}
	for _, h := range s.Plane().Runs() {
		st := h.Status()
		byID[st.ID] = st.Info.Program
	}
	ch, cancel := s.Plane().Subscribe()
	defer cancel()
	out := map[string]map[string]bool{}
	for {
		select {
		case ev := <-ch:
			if ev.Type == "phase" {
				name := byID[ev.Run]
				if out[name] == nil {
					out[name] = map[string]bool{}
				}
				out[name][ev.Phase] = true
			}
		default:
			return out
		}
	}
}

// TestBudgetExceededJob: a job whose run outlives its wall-clock
// watchdog lands in state budget-exceeded with the stat bumped, and
// its report endpoint explains rather than hangs.
func TestBudgetExceededJob(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	var st JobStatus
	req := JobRequest{Program: slowSrc, Procs: 1, Threads: 1, TimeoutMs: 20, MaxSteps: 3_000_000}
	if code := submit(t, s, req, &st); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitJob(t, s, st.ID)
	if final.State != StateBudgetExceeded || final.Verdict != "budget-exceeded" {
		t.Fatalf("got %+v, want budget-exceeded", final)
	}
	if s.stats.Snapshot().Counters["serve.jobs_budget_exceeded"] != 1 {
		t.Fatal("serve.jobs_budget_exceeded must increment")
	}
	resp, err := http.Get("http://" + s.Addr() + "/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("report of a budget-exceeded job: %d, want 422", resp.StatusCode)
	}
}

// TestSubmitErrors is the table-driven 4xx pin: malformed submissions
// come back as structured JSON {error, kind} with the right status —
// never a bare 500.
func TestSubmitErrors(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	cases := []struct {
		name   string
		body   any
		status int
		kind   string
	}{
		{"bad json", `{"program": `, http.StatusBadRequest, "bad-json"},
		{"unknown field", `{"program": "int main() { return 0; }", "bogus": 1}`, http.StatusBadRequest, "bad-json"},
		{"empty program", JobRequest{}, http.StatusBadRequest, "bad-request"},
		{"unparseable program", JobRequest{Program: "int main( {"}, http.StatusBadRequest, "parse"},
		{"bad mode", JobRequest{Program: cleanSrc, Mode: "psychic"}, http.StatusBadRequest, "bad-request"},
		{"bad chaos spec", JobRequest{Program: cleanSrc, Chaos: "entropy=11"}, http.StatusBadRequest, "bad-chaos"},
		{"procs out of range", JobRequest{Program: cleanSrc, Procs: 10_000}, http.StatusBadRequest, "bad-request"},
		{"threads out of range", JobRequest{Program: cleanSrc, Threads: 10_000}, http.StatusBadRequest, "bad-request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body map[string]string
			code := submit(t, s, tc.body, &body)
			if code != tc.status {
				t.Fatalf("status %d, want %d (body %v)", code, tc.status, body)
			}
			if body["kind"] != tc.kind {
				t.Fatalf("kind %q, want %q (error %q)", body["kind"], tc.kind, body["error"])
			}
			if body["error"] == "" {
				t.Fatal("the typed error message must be carried in the body")
			}
		})
	}
	// The parse rejection carries the typed home.ParseError shape.
	var body map[string]string
	submit(t, s, JobRequest{Program: "int main( {"}, &body)
	if !strings.HasPrefix(body["error"], "parse: ") {
		t.Fatalf("parse rejection must carry the ParseError text, got %q", body["error"])
	}
	if got := s.stats.Snapshot().Counters["serve.jobs_rejected"]; got < int64(len(cases)) {
		t.Fatalf("serve.jobs_rejected = %d, want >= %d", got, len(cases))
	}
	// An unknown job id is a structured 404.
	code := getJSON(t, "http://"+s.Addr()+"/jobs/nope", &body)
	if code != http.StatusNotFound || body["kind"] != "unknown-job" {
		t.Fatalf("unknown job: %d %v", code, body)
	}
}

// TestGracefulShutdownDrains is the shutdown-paths regression: with an
// active /events subscriber and a queued job behind a running one,
// Shutdown must (a) reject new submissions 503, (b) finish both jobs,
// and (c) end the SSE stream with the terminal shutdown event.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 1})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + s.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sseDone := make(chan []string, 1)
	go func() {
		var types []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				types = append(types, rest)
			}
		}
		sseDone <- types
	}()

	// One busy-ish job occupies the single worker; a second queues.
	var a, b JobStatus
	busy := strings.Replace(slowSrc, "50000000", "30000", 1)
	if code := submit(t, s, JobRequest{Program: busy, Name: "a", Procs: 1, Threads: 1}, &a); code != http.StatusAccepted {
		t.Fatalf("submit a: %d", code)
	}
	if code := submit(t, s, JobRequest{Program: cleanSrc, Name: "b"}, &b); code != http.StatusAccepted {
		t.Fatalf("submit b: %d", code)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	// While draining, intake must refuse or accept cleanly — never
	// panic on the closed queue. (Intake API directly: the HTTP
	// listener may already be down, which is its own refusal.)
	if _, apiErr := s.submitJob(JobRequest{Program: cleanSrc, Name: "c"}); apiErr != nil && apiErr.status != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: %+v", apiErr)
	}

	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, j := range []JobStatus{a, b} {
		st := s.job(j.ID).status()
		if st.State != StateDone {
			t.Fatalf("job %s (%s) must drain to done, got %s", j.ID, st.Name, st.State)
		}
	}
	select {
	case types := <-sseDone:
		if len(types) == 0 || types[len(types)-1] != "shutdown" {
			t.Fatalf("SSE stream must end with the terminal shutdown event, got %v", types)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE subscriber still connected after shutdown")
	}
	_, apiErr := s.submitJob(JobRequest{Program: cleanSrc})
	if apiErr == nil || apiErr.status != http.StatusServiceUnavailable || apiErr.kind != "shutting-down" {
		t.Fatalf("post-shutdown submission: %+v, want 503 shutting-down", apiErr)
	}
}

// TestCacheLRUEviction pins the size bound.
func TestCacheLRUEviction(t *testing.T) {
	stats := home.NewStatsRegistry()
	c := NewCache(2, stats)
	srcs := make([]string, 3)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("int main() { int x; x = %d; return 0; }", i)
	}
	for _, src := range srcs {
		if _, hit, err := c.Get(src); err != nil || hit {
			t.Fatalf("cold get: hit=%v err=%v", hit, err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache len %d, want bound 2", c.Len())
	}
	snap := stats.Snapshot()
	if snap.Counters["serve.cache_evictions"] != 1 || snap.Counters["serve.cache_misses"] != 3 {
		t.Fatalf("counters: %v", snap.Counters)
	}
	// srcs[0] was evicted (LRU), srcs[2] is resident.
	if _, hit, _ := c.Get(srcs[2]); !hit {
		t.Fatal("most recent entry must be resident")
	}
	if _, hit, _ := c.Get(srcs[0]); hit {
		t.Fatal("evicted entry must miss")
	}
}
