package harness

// Metamorphic record/replay property over the chaos soak corpus: for
// every (program kind, fault plan) cell of the soak sweep, recording a
// run's realized schedule and replaying it must reproduce the
// byte-identical exact identity — verdict signature, Partial,
// Deadlocked, DeadRanks, RankCoverage, EventsAnalyzed AND Makespan —
// plus a byte-identical exported timeline (every event timestamp),
// with the seed-hash fault path disabled during replay. Schedules
// recorded by this build are v2: they pin collective membership and
// lock/election orders, which is what makes virtual time exact.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"home"
	"home/internal/chaos"
	"home/internal/faults"
	"home/internal/minic"
	"home/internal/spec"
)

// soakPlans enumerates the soak sweep's fault plans: the legal
// perturbation plan of every default seed plus the two crash-stop
// plans, matching ChaosSoak's corpus cell grid.
func soakPlans() []*chaos.Plan {
	seeds := DefaultChaosSeeds()
	plans := make([]*chaos.Plan, 0, len(seeds)+2)
	for _, seed := range seeds {
		plans = append(plans, chaos.Perturb(seed))
	}
	plans = append(plans,
		chaos.Crash(seeds[0], 1, 1),
		chaos.Crash(seeds[len(seeds)-1], 0, 1),
	)
	return plans
}

// runArtifacts is everything a run must reproduce under exact replay:
// the exact identity (verdicts, partial contract, Makespan) and the
// rendered timeline bytes (every event timestamp).
type runArtifacts struct {
	exact    ExactIdentity
	timeline []byte
}

// artifactsOf renders a report's comparable artifacts. The report must
// come from an Explain run (the timeline needs the trace).
func artifactsOf(t *testing.T, rep *home.Report) runArtifacts {
	t.Helper()
	tl := home.BuildTimeline(rep.Trace)
	home.OverlayWitnesses(tl, rep.Witnesses)
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return runArtifacts{exact: ExactIdentityOf(rep), timeline: buf.Bytes()}
}

// recordRun runs the program with a recorder attached and returns its
// artifacts plus the recorded schedule (via the wire-format round
// trip).
func recordRun(t *testing.T, prog *minic.Program, opts home.Options) (runArtifacts, *home.Schedule) {
	t.Helper()
	recorder := home.NewScheduleRecorder()
	opts.RecordSchedule = recorder
	opts.Explain = true
	recorded, err := home.CheckProgram(prog, opts)
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	schedule, err := recorder.Schedule()
	if err != nil {
		t.Fatalf("schedule round trip: %v", err)
	}
	return artifactsOf(t, recorded), schedule
}

// replayRun replays a schedule against the program and returns the
// replayed run's artifacts.
func replayRun(t *testing.T, prog *minic.Program, opts home.Options, schedule *home.Schedule) runArtifacts {
	t.Helper()
	opts.Chaos = nil // replay takes its plan from the schedule header
	opts.ReplaySchedule = schedule
	opts.Explain = true
	replayed, err := home.CheckProgram(prog, opts)
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	return artifactsOf(t, replayed)
}

// recordReplay runs the program once with a recorder attached and once
// replaying the recorded schedule, returning both runs' artifacts.
func recordReplay(t *testing.T, prog *minic.Program, opts home.Options) (rec, rep runArtifacts) {
	t.Helper()
	rec, schedule := recordRun(t, prog, opts)
	return rec, replayRun(t, prog, opts, schedule)
}

// checkExact asserts the replayed artifacts equal the recorded ones,
// byte for byte: identity, Makespan and timeline.
func checkExact(t *testing.T, label string, rec, rep runArtifacts) {
	t.Helper()
	if rec.exact.String() != rep.exact.String() {
		t.Errorf("%s: replay diverged\n  recorded: %s\n  replayed: %s",
			label, rec.exact, rep.exact)
	}
	if !bytes.Equal(rec.timeline, rep.timeline) {
		t.Errorf("%s: replayed timeline differs from recorded (%d bytes vs %d)",
			label, len(rep.timeline), len(rec.timeline))
	}
}

// TestReplayDeterminism is the metamorphic property: record → replay
// reproduces the identical report — verdicts, Makespan and timeline
// bytes — for every soak-corpus chaos cell.
func TestReplayDeterminism(t *testing.T) {
	t.Parallel()
	cfg := Config{}.withDefaults()
	plans := soakPlans()
	for _, kind := range faults.AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			prog, err := minic.Parse(faults.Program(kind))
			if err != nil {
				t.Fatalf("parse corpus program: %v", err)
			}
			for _, plan := range plans {
				opts := cfg.homeOptions(cfg.TableProcs)
				opts.Chaos = plan
				rec, rep := recordReplay(t, prog, opts)
				checkExact(t, "plan "+plan.String(), rec, rep)
			}
		})
	}
}

// TestReplayDeterminismChaosFree pins that record/replay also works
// without any fault plan: a chaos-free run's schedule (matches and
// polls only) replays to the identical report.
func TestReplayDeterminismChaosFree(t *testing.T) {
	t.Parallel()
	cfg := Config{}.withDefaults()
	for _, kind := range []spec.Kind{spec.ConcurrentRecvViolation, spec.ProbeViolation} {
		prog, err := minic.Parse(faults.Program(kind))
		if err != nil {
			t.Fatalf("parse corpus program: %v", err)
		}
		opts := cfg.homeOptions(cfg.TableProcs)
		rec, rep := recordReplay(t, prog, opts)
		checkExact(t, kind.String()+" chaos-free", rec, rep)
	}
}

// wildcardSrc makes rank 0's receive order genuinely nondeterministic:
// two MPI_ANY_SOURCE receives racing three senders. Which message each
// wildcard claims is a realized resolution the schedule must force.
const wildcardSrc = `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[1];
  a[0] = rank;
  if (rank > 0) {
    MPI_Send(a, 1, 0, 7, MPI_COMM_WORLD);
  }
  if (rank == 0) {
    MPI_Recv(a, 1, MPI_ANY_SOURCE, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    MPI_Recv(a, 1, MPI_ANY_SOURCE, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    MPI_Recv(a, 1, MPI_ANY_SOURCE, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  }
  MPI_Finalize();
  return 0;
}`

// TestReplayDeterminismWildcard covers what the soak corpus does not:
// wildcard-receive match resolutions, with and without a crash-stop
// racing the senders. Every soak plan must record/replay identically.
func TestReplayDeterminismWildcard(t *testing.T) {
	t.Parallel()
	prog, err := minic.Parse(wildcardSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}.withDefaults()
	plans := soakPlans()
	// A crash of a sender mid-exchange: rank 2 dies on its very first
	// call, so the wildcard receiver observes the failure after having
	// claimed a nondeterministic subset of the other senders' messages.
	plans = append(plans, chaos.Crash(5, 2, 1))
	for _, plan := range plans {
		opts := cfg.homeOptions(cfg.TableProcs)
		opts.Chaos = plan
		rec, rep := recordReplay(t, prog, opts)
		checkExact(t, "wildcard plan "+plan.String(), rec, rep)
	}
	// And chaos-free: wildcard resolutions alone are worth forcing.
	rec, rep := recordReplay(t, prog, cfg.homeOptions(cfg.TableProcs))
	checkExact(t, "wildcard chaos-free", rec, rep)
}

// TestReplayDeterminismGOMAXPROCS replays recorded schedules under
// host parallelism levels 1, 2 and 4 and requires the exact identity
// and timeline bytes to match the recording every time: virtual time
// must not depend on how many OS threads the host grants the run.
// Deliberately not parallel — it mutates the process-wide GOMAXPROCS.
func TestReplayDeterminismGOMAXPROCS(t *testing.T) {
	cfg := Config{}.withDefaults()
	wildcard, err := minic.Parse(wildcardSrc)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := minic.Parse(faults.Program(spec.CollectiveCallViolation))
	if err != nil {
		t.Fatal(err)
	}
	cells := []struct {
		name string
		prog *minic.Program
		plan *chaos.Plan
	}{
		{"perturb", corpus, chaos.Perturb(2)},
		{"crash", corpus, chaos.Crash(1, 1, 1)},
		{"wildcard-crash", wildcard, chaos.Crash(5, 2, 1)},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, cell := range cells {
		opts := cfg.homeOptions(cfg.TableProcs)
		opts.Chaos = cell.plan
		rec, schedule := recordRun(t, cell.prog, opts)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			rep := replayRun(t, cell.prog, opts, schedule)
			checkExact(t, fmt.Sprintf("%s at GOMAXPROCS=%d", cell.name, procs), rec, rep)
		}
	}
}
