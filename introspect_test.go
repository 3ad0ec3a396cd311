package home

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"home/internal/obs/live"
	"home/internal/sched"
)

// runArtifacts are the byte-level outputs whose identity the live
// telemetry plane must preserve: the report rendering, the stats
// snapshot, the recorded fault schedule (text and binary codecs), the
// timeline export, and the virtual makespan.
type runArtifacts struct {
	summary     string
	stats       string
	schedText   []byte
	schedBinary []byte
	timeline    []byte
	makespan    int64
	violations  int
}

// introspectedRun executes one Check with recording and Explain on,
// optionally under a live plane with a real HTTP/SSE introspection
// server attached (including a draining /events subscriber, so the
// whole publication path is exercised, not just the hooks).
func introspectedRun(t *testing.T, src string, opts Options, withLive bool) runArtifacts {
	t.Helper()
	opts.Stats = NewStatsRegistry()
	opts.Explain = true
	rec := NewScheduleRecorder()
	opts.RecordSchedule = rec

	if withLive {
		plane := live.NewPlane()
		srv, err := live.Serve("127.0.0.1:0", plane)
		if err != nil {
			t.Fatalf("introspection server: %v", err)
		}
		defer srv.Close()
		resp, err := http.Get("http://" + srv.Addr() + "/events")
		if err != nil {
			t.Fatalf("SSE subscribe: %v", err)
		}
		go io.Copy(io.Discard, resp.Body)
		defer resp.Body.Close()
		opts.Live = plane
		opts.LiveName = "identity-test"
	}

	rep, err := Check(src, opts)
	if err != nil {
		t.Fatalf("check (live=%v): %v", withLive, err)
	}
	var tl bytes.Buffer
	if err := BuildTimeline(rep.Trace).WriteJSON(&tl); err != nil {
		t.Fatalf("timeline (live=%v): %v", withLive, err)
	}
	return runArtifacts{
		summary:     rep.Summary(),
		stats:       rep.Stats.String(),
		schedText:   rec.Bytes(),
		schedBinary: rec.BytesBinary(),
		timeline:    tl.Bytes(),
		makespan:    rep.Makespan,
		violations:  len(rep.Violations),
	}
}

// compareArtifacts asserts byte-identity of every artifact.
func compareArtifacts(t *testing.T, base, lived runArtifacts) {
	t.Helper()
	if base.summary != lived.summary {
		t.Errorf("report summary diverged under introspection:\n--- base\n%s\n--- live\n%s", base.summary, lived.summary)
	}
	if base.stats != lived.stats {
		t.Errorf("stats snapshot diverged under introspection:\n--- base\n%s\n--- live\n%s", base.stats, lived.stats)
	}
	if !bytes.Equal(base.schedText, lived.schedText) {
		t.Error("recorded schedule (text codec) diverged under introspection")
	}
	if !bytes.Equal(base.schedBinary, lived.schedBinary) {
		t.Error("recorded schedule (binary codec) diverged under introspection")
	}
	if !bytes.Equal(base.timeline, lived.timeline) {
		t.Error("timeline export diverged under introspection")
	}
	if base.makespan != lived.makespan {
		t.Errorf("makespan diverged: %d vs %d", base.makespan, lived.makespan)
	}
}

// TestIntrospectReplayIdentity is the PR's acceptance pin: with
// -introspect live publication enabled (plane + HTTP server + SSE
// subscriber), a run produces byte-identical report renderings, stats
// snapshots, schedule streams and timeline exports to the same run
// without it. CI runs this under -race.
//
// Chaos-seeded cells with host-schedule freedom (wildcard matches,
// cross-rank queue pressure) are legitimately nondeterministic across
// *independent* runs, so those compare under forced replay of a
// recorded seed schedule — the repo's established determinism boundary
// (docs/ROBUSTNESS.md). The direct cell, whose program has no such
// freedom, compares two direct runs.
func TestIntrospectReplayIdentity(t *testing.T) {
	scenarios := []struct {
		name string
		src  string
		opts Options
	}{
		{"perturb", statsInvariantSrc, Options{Procs: 1, Threads: 2, Seed: 7, Chaos: ChaosPerturb(3)}},
		{"crash", statsInvariantSrc, Options{Procs: 2, Threads: 2, Seed: 7, Chaos: ChaosCrash(5, 1, 1)}},
		{"rma-perturb", racyRMASrc, Options{Procs: 2, Seed: 7, Chaos: ChaosPerturb(13)}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			// Record the chaos-seeded run once, with introspection ON —
			// so the recording side of the claim is exercised too.
			seed := introspectedRun(t, sc.src, sc.opts, true)
			schedule, err := sched.Read(bytes.NewReader(seed.schedText))
			if err != nil {
				t.Fatalf("parse recorded schedule: %v", err)
			}
			replayOpts := sc.opts
			replayOpts.Chaos = nil
			replayOpts.ReplaySchedule = schedule
			base := introspectedRun(t, sc.src, replayOpts, false)
			lived := introspectedRun(t, sc.src, replayOpts, true)
			compareArtifacts(t, base, lived)
		})
	}

	// The direct cell's program has no host-ordered choice: one rank
	// self-sends, then two threads meet at a barrier, and a barrier
	// completes at its last arrival whichever thread that is. (An omp
	// critical would not do: which thread wins it is host order, and
	// that moves virtual time.) So two direct chaos-seeded runs must be
	// byte-identical with and without the plane — no replay crutch.
	t.Run("direct", func(t *testing.T) {
		direct := Options{Procs: 1, Threads: 2, Seed: 7, Chaos: ChaosPerturb(3)}
		base := introspectedRun(t, barrierOnlySrc, direct, false)
		lived := introspectedRun(t, barrierOnlySrc, direct, true)
		compareArtifacts(t, base, lived)
	})
}

// barrierOnlySrc is statsInvariantSrc without its critical sections:
// the self-send, then a two-thread region whose threads each write
// their own element on both sides of a barrier.
const barrierOnlySrc = `
int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  double buf[2];
  MPI_Send(buf, 2, 0, 9, MPI_COMM_WORLD);
  MPI_Recv(buf, 2, 0, 9, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  #pragma omp parallel num_threads(2)
  {
    int me = omp_get_thread_num();
    buf[me] = me;
    #pragma omp barrier
    buf[me] = buf[me] + 1;
  }
  MPI_Finalize();
  return 0;
}`

// TestIntrospectFlightDumpOnDeadlock is the flight-recorder acceptance
// pin: a run the watchdog declares deadlocked auto-dumps its flight
// recorder, and the dump names the blocked op per (rank, tid).
func TestIntrospectFlightDumpOnDeadlock(t *testing.T) {
	const stuckSrc = `
int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  double buf[1];
  MPI_Recv(buf, 1, MPI_ANY_SOURCE, 3, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  MPI_Finalize();
  return 0;
}`
	plane := live.NewPlane()
	rep, err := Check(stuckSrc, Options{Procs: 2, Seed: 1, Live: plane, LiveName: "stuck"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deadlocked {
		t.Fatal("expected the run to deadlock")
	}
	runs := plane.Runs()
	if len(runs) != 1 {
		t.Fatalf("plane retained %d runs, want 1", len(runs))
	}
	h := runs[0]
	st := h.Status()
	if !st.Done || st.Verdict != "deadlock" {
		t.Fatalf("run status = %+v, want done with deadlock verdict", st)
	}
	dump := h.LastDump()
	if dump == nil {
		t.Fatal("no automatic flight dump after deadlock")
	}
	if dump.Reason != "deadlock" {
		t.Fatalf("dump reason = %q, want deadlock", dump.Reason)
	}
	if len(dump.Blocked) == 0 {
		t.Fatal("flight dump has no blocked-op table")
	}
	seen := map[int]bool{}
	for _, op := range dump.Blocked {
		if op.Detail == "" {
			t.Errorf("blocked op for rank %d tid %d has no description", op.Rank, op.TID)
		}
		seen[op.Rank] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("blocked table covers ranks %v, want both 0 and 1: %+v", seen, dump.Blocked)
	}
	if len(dump.Lanes) == 0 {
		t.Fatal("flight dump has no event lanes")
	}
	for _, ln := range dump.Lanes {
		if len(ln.Entries) == 0 {
			t.Errorf("lane (%d,%d) retained no events", ln.Rank, ln.TID)
		}
	}
	// The rendered form is what the watchdog path prints — it must name
	// the blocked operation.
	if s := dump.String(); s == "" {
		t.Fatal("empty dump rendering")
	}
	// Published snapshot carries the live.* accounting: at least the
	// final verdict delta and the dump.
	snap := h.Snapshot()
	if snap.Counters["live.flight_dumps"] != 1 {
		t.Errorf("live.flight_dumps = %d, want 1", snap.Counters["live.flight_dumps"])
	}
	if snap.Counters["live.events"] <= 0 {
		t.Errorf("live.events = %d, want > 0", snap.Counters["live.events"])
	}
}
