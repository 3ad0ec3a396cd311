package explore

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"home"
	"home/internal/chaos"
	"home/internal/faults"
	"home/internal/sched"
	"home/internal/spec"
)

// recordSeed records one seed schedule for the given corpus kind and
// plan.
func recordSeed(t *testing.T, kind spec.Kind, plan *chaos.Plan, procs, threads int) (*home.Program, *sched.Schedule) {
	t.Helper()
	prog, err := home.Parse(faults.Program(kind))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rec := sched.NewRecorder()
	if _, err := home.CheckProgram(prog, home.Options{
		Procs: procs, Threads: threads, Chaos: plan, RecordSchedule: rec,
	}); err != nil {
		t.Fatalf("record: %v", err)
	}
	seed, err := rec.Schedule()
	if err != nil {
		t.Fatalf("seed schedule: %v", err)
	}
	return prog, seed
}

// TestExploreSmokeRediscovery is the acceptance scenario: on the
// collective cell, a crash after rank 1's first call masks the rank-1
// collective-call violation under EVERY seed-rolled chaos plan, and a
// bounded campaign rediscovers it (the crash-later revival) with a
// verified minimal repro.
func TestExploreSmokeRediscovery(t *testing.T) {
	prog, seed := recordSeed(t, spec.CollectiveCallViolation, chaos.Crash(3, 1, 1), 4, 2)

	const masked = "CollectiveCallViolation|1|[10 10]"
	// 60 seed-rolled crash plans: none may surface the masked verdict.
	for s := int64(1); s <= 60; s++ {
		rep, err := home.CheckProgram(prog, home.Options{Procs: 4, Threads: 2, Chaos: chaos.Crash(s, 1, 1)})
		if err != nil {
			t.Fatalf("seed roll %d: %v", s, err)
		}
		for _, sig := range violationSignature(rep) {
			if sig == masked {
				t.Fatalf("seed roll %d already finds %s; the cell no longer masks it", s, masked)
			}
		}
	}

	out := t.TempDir()
	res, err := Run(prog, seed, Config{
		Procs: 4, Threads: 2, Seed: 7, Budget: 48,
		MutantTimeout: 3 * time.Second, OutDir: out,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Tried == 0 || res.Tried > 48 {
		t.Errorf("tried %d mutants, want 1..48", res.Tried)
	}
	found := false
	for _, v := range res.NewVerdicts {
		if v == masked {
			found = true
		}
	}
	if !found {
		t.Fatalf("campaign did not rediscover %s; new verdicts: %v", masked, res.NewVerdicts)
	}
	if res.NewSignatures() <= 0 {
		t.Errorf("campaign grew no coverage: %+v -> %+v", res.CoverageStart, res.CoverageEnd)
	}

	// The emitted minimal repro replays to the same verdict and witness.
	if len(res.Repros) == 0 {
		t.Fatal("no repro emitted for the new verdict")
	}
	repro := res.Repros[0]
	if !repro.Verified {
		t.Fatalf("repro not verified: %+v", repro)
	}
	if len(repro.Mutations) != 1 {
		t.Errorf("minimization left %d mutations, want 1: %v", len(repro.Mutations), repro.Mutations)
	}
	if repro.SchedPath == "" || repro.WitnessPath == "" {
		t.Fatalf("repro artifacts not written: %+v", repro)
	}
	data, err := os.ReadFile(repro.SchedPath)
	if err != nil {
		t.Fatalf("read repro: %v", err)
	}
	if !bytes.Equal(data, repro.Sched) {
		t.Error("emitted .sched differs from the in-memory repro")
	}
	// Independent replay of the artifact: same verdict, same witnesses.
	rs, err := LoadMutant(data)
	if err != nil {
		t.Fatalf("load repro: %v", err)
	}
	rep, err := home.CheckProgram(prog, home.Options{Procs: 4, Threads: 2, ReplaySchedule: rs, Explain: true})
	if err != nil {
		t.Fatalf("replay repro: %v", err)
	}
	gotMasked := false
	for _, sig := range violationSignature(rep) {
		if sig == masked {
			gotMasked = true
		}
	}
	if !gotMasked {
		t.Errorf("repro replay lost the rediscovered verdict; got %v", violationSignature(rep))
	}
	var witness struct {
		Signature []string       `json:"signature"`
		Witnesses []home.Witness `json:"witnesses"`
	}
	wdata, err := os.ReadFile(repro.WitnessPath)
	if err != nil {
		t.Fatalf("read witness: %v", err)
	}
	if err := json.Unmarshal(wdata, &witness); err != nil {
		t.Fatalf("witness json: %v", err)
	}
	a, _ := json.Marshal(witness.Witnesses)
	b, _ := json.Marshal(rep.Witnesses)
	if !bytes.Equal(a, b) {
		t.Error("repro replay produced different witnesses than the emitted artifact")
	}
}

// TestCampaignDeterministic: a campaign is a pure function of
// (program, seed schedule, config) — running it twice yields the
// byte-identical result.
func TestCampaignDeterministic(t *testing.T) {
	prog, seed := recordSeed(t, spec.ProbeViolation, chaos.Crash(5, 1, 1), 4, 2)
	cfg := Config{Procs: 4, Threads: 2, Seed: 11, Budget: 16, MutantTimeout: 3 * time.Second}
	r1, err := Run(prog, seed, cfg)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := Run(prog, seed, cfg)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("campaign not deterministic:\n%s\n%s", b1, b2)
	}
}

// TestMutantDeterministicReplay: every applicable operator's mutant
// replays to a deterministic outcome — the same mutant twice yields
// identical verdict, witness and realized-timeline bytes.
func TestMutantDeterministicReplay(t *testing.T) {
	prog, seed := recordSeed(t, spec.ConcurrentRecvViolation, chaos.Crash(2, 1, 1), 4, 2)
	seedRecs := seed.Records()
	// Collect one concrete mutation per operator family present.
	perOp := map[string]sched.Mutation{}
	for _, r := range seedRecs {
		k := r.Key()
		switch r.Kind {
		case chaos.KindFail:
			if _, ok := perOp[sched.OpCrashLater]; !ok {
				perOp[sched.OpCrashLater] = sched.Mutation{Op: sched.OpCrashLater, A: k}
			}
			if r.Seq >= 2 {
				if _, ok := perOp[sched.OpCrashEarlier]; !ok {
					perOp[sched.OpCrashEarlier] = sched.Mutation{Op: sched.OpCrashEarlier, A: k}
				}
			}
		case chaos.KindSend:
			if _, ok := perOp[sched.OpToggleSend]; !ok {
				perOp[sched.OpToggleSend] = sched.Mutation{Op: sched.OpToggleSend, A: k}
			}
		case chaos.KindCrash:
			perOp["revive"] = sched.Mutation{Op: sched.OpCrashLater, A: k}
		}
	}
	// Match flips need two same-rank matches; find them explicitly.
	byRank := map[int][]sched.Key{}
	for _, r := range seedRecs {
		if r.Kind == chaos.KindMatch && r.SrcSeq > 0 {
			byRank[r.Rank] = append(byRank[r.Rank], r.Key())
		}
	}
	for _, ks := range byRank {
		if len(ks) >= 2 {
			perOp[sched.OpFlipMatch] = sched.Mutation{Op: sched.OpFlipMatch, A: ks[0], B: ks[1]}
			break
		}
	}
	if len(perOp) < 3 {
		t.Fatalf("seed schedule exercises too few operator families: %v", perOp)
	}

	e := &engine{
		cfg:      Config{Procs: 4, Threads: 2, MutantTimeout: 5 * time.Second}.withDefaults(),
		prog:     prog,
		seed:     seed,
		seedRecs: seedRecs,
	}
	for op, m := range perOp {
		t.Run(op, func(t *testing.T) {
			r1, err := e.tryMinimizeCandidate([]sched.Mutation{m})
			if err != nil {
				t.Fatalf("replay 1: %v", err)
			}
			r2, err := e.tryMinimizeCandidate([]sched.Mutation{m})
			if err != nil {
				t.Fatalf("replay 2: %v", err)
			}
			if r1.outcome != r2.outcome {
				t.Fatalf("outcome differs: %s vs %s", r1.outcome, r2.outcome)
			}
			if strings.Join(r1.sig, ";") != strings.Join(r2.sig, ";") {
				t.Errorf("verdict differs:\n%v\n%v", r1.sig, r2.sig)
			}
			if strings.Join(r1.wkeys, ";") != strings.Join(r2.wkeys, ";") {
				t.Errorf("witnesses differ:\n%v\n%v", r1.wkeys, r2.wkeys)
			}
			if r1.realized != nil && r2.realized != nil {
				if !bytes.Equal(r1.realized.Bytes(), r2.realized.Bytes()) {
					t.Error("realized schedule bytes differ between identical replays")
				}
			}
		})
	}
}

// orderProg exercises every v2 order family plus wildcard matching:
// contended locks, a single election, collectives, and wildcard
// receives — the families TestMutantDeterministicReplay's corpus cell
// does not record.
const orderProg = `int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  int size = MPI_Comm_size(MPI_COMM_WORLD);
  double buf[1];
  int peer;
  if (rank % 2 == 0) { peer = rank + 1; } else { peer = rank - 1; }
  int lck;
  int n = 0;
  omp_init_lock(&lck);
  #pragma omp parallel num_threads(2)
  {
    omp_set_lock(&lck);
    n = n + 1;
    omp_unset_lock(&lck);
    #pragma omp single
    { n = n + 1; }
  }
  omp_destroy_lock(&lck);
  MPI_Send(buf, 1, peer, 1, MPI_COMM_WORLD);
  MPI_Send(buf, 1, peer, 2, MPI_COMM_WORLD);
  MPI_Recv(buf, 1, MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  MPI_Recv(buf, 1, MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  MPI_Barrier(MPI_COMM_WORLD);
  MPI_Finalize();
  return 0;
}`

// TestOrderFamilyDeterministicReplay: the order-family operators
// (swap-locks, reassign-single, permute-coll, flip-match) also replay
// deterministically — same mutant twice, identical verdict and
// realized bytes.
func TestOrderFamilyDeterministicReplay(t *testing.T) {
	prog, err := home.Parse(orderProg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rec := sched.NewRecorder()
	if _, err := home.CheckProgram(prog, home.Options{Procs: 2, Threads: 2, RecordSchedule: rec}); err != nil {
		t.Fatalf("record: %v", err)
	}
	seed, err := rec.Schedule()
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	seedRecs := seed.Records()
	perOp := map[string]sched.Mutation{}
	var locks, singles []sched.Key
	collByInst := map[[2]int64][]sched.Key{}
	matchByRank := map[int][]sched.Key{}
	for _, r := range seedRecs {
		k := r.Key()
		switch r.Kind {
		case chaos.KindLock:
			locks = append(locks, k)
		case chaos.KindSingle:
			singles = append(singles, k)
		case chaos.KindColl:
			g := [2]int64{int64(r.Comm1), r.CollSeq}
			collByInst[g] = append(collByInst[g], k)
		case chaos.KindMatch:
			if r.SrcSeq > 0 {
				matchByRank[r.Rank] = append(matchByRank[r.Rank], k)
			}
		}
	}
	if len(locks) >= 2 {
		perOp[sched.OpSwapLocks] = sched.Mutation{Op: sched.OpSwapLocks, A: locks[0], B: locks[1]}
	}
	for _, k := range singles {
		perOp[sched.OpReassignSingle] = sched.Mutation{Op: sched.OpReassignSingle, A: k, Arg: 1 - k.TID}
		break
	}
	for _, ks := range collByInst {
		if len(ks) >= 2 {
			perOp[sched.OpPermuteColl] = sched.Mutation{Op: sched.OpPermuteColl, A: ks[0], B: ks[1]}
			break
		}
	}
	for _, ks := range matchByRank {
		if len(ks) >= 2 {
			perOp[sched.OpFlipMatch] = sched.Mutation{Op: sched.OpFlipMatch, A: ks[0], B: ks[1]}
			break
		}
	}
	for _, op := range []string{sched.OpSwapLocks, sched.OpReassignSingle, sched.OpPermuteColl, sched.OpFlipMatch} {
		if _, ok := perOp[op]; !ok {
			t.Errorf("seed schedule offers no %s target (recorded kinds changed?)", op)
		}
	}
	e := &engine{
		cfg:      Config{Procs: 2, Threads: 2, MutantTimeout: 5 * time.Second}.withDefaults(),
		prog:     prog,
		seed:     seed,
		seedRecs: seedRecs,
	}
	for op, m := range perOp {
		t.Run(op, func(t *testing.T) {
			r1, err := e.tryMinimizeCandidate([]sched.Mutation{m})
			if err != nil {
				t.Fatalf("replay 1: %v", err)
			}
			r2, err := e.tryMinimizeCandidate([]sched.Mutation{m})
			if err != nil {
				t.Fatalf("replay 2: %v", err)
			}
			if r1.outcome != r2.outcome || strings.Join(r1.sig, ";") != strings.Join(r2.sig, ";") {
				t.Fatalf("nondeterministic: %s %v vs %s %v", r1.outcome, r1.sig, r2.outcome, r2.sig)
			}
			if r1.realized != nil && r2.realized != nil && !bytes.Equal(r1.realized.Bytes(), r2.realized.Bytes()) {
				t.Error("realized schedule bytes differ between identical replays")
			}
		})
	}
}

// TestLoadMutantSalvage: a truncated mutant stream is an error (the
// campaign classifies it Infeasible with the decode error attached),
// and replaying a salvaged truncated stream never panics.
func TestLoadMutantSalvage(t *testing.T) {
	prog, seed := recordSeed(t, spec.CollectiveCallViolation, chaos.Crash(3, 1, 1), 4, 2)
	data := sched.EncodeRecords(seed.Plan(), seed.Records())

	// Cut the stream mid-record.
	cut := bytes.LastIndexByte(data[:len(data)-2], '\n') + 4
	truncated := data[:cut]
	if _, err := LoadMutant(truncated); err == nil {
		t.Fatal("truncated mutant loaded without error")
	}

	// The engine books it as Infeasible, not a crash.
	e := &engine{
		cfg:   Config{Procs: 4, Threads: 2}.withDefaults(),
		prog:  prog,
		seed:  seed,
		dedup: map[[32]byte]struct{}{},
		res:   &Result{},
	}
	run := func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("salvage path panicked: %v", r)
			}
		}()
		// Read salvages the prefix: the schedule comes back alongside
		// the typed error.
		salvaged, rerr := sched.Read(bytes.NewReader(truncated))
		var te *sched.TruncatedError
		if !errors.As(rerr, &te) {
			t.Fatalf("expected TruncatedError, got %v", rerr)
		}
		if salvaged == nil {
			t.Fatal("no salvaged schedule")
		}
		if salvaged.Len() >= seed.Len() {
			t.Fatalf("salvage did not truncate: %d >= %d", salvaged.Len(), seed.Len())
		}
		// Replaying the salvaged prefix through the full pipeline must
		// degrade gracefully (diverge or deadlock), never panic.
		out := e.runSchedule(salvaged)
		t.Logf("salvaged replay outcome: %s (%s)", out.outcome, out.note)
	}
	run()
}

// TestCheckBoundedTimeout: a wedged run reports timedOut instead of
// blocking, and a panicking run surfaces as an error.
func TestCheckBoundedTimeout(t *testing.T) {
	prog, err := home.Parse("int main() { while (1) { } return 0; }")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err, timedOut := CheckBounded(prog, home.Options{Procs: 2, Threads: 1}, 50*time.Millisecond)
	if !timedOut {
		t.Fatalf("spin loop did not time out (err=%v)", err)
	}
	// Zero timeout disables the bound; the statement budget still ends
	// the run with a typed error rather than a hang.
	rep, err, timedOut := CheckBounded(prog, home.Options{Procs: 2, Threads: 1, MaxSteps: 10_000}, 0)
	if timedOut {
		t.Fatal("unbounded run reported timeout")
	}
	if err != nil {
		t.Fatalf("step-budget run errored at the harness level: %v", err)
	}
	if rep == nil {
		t.Fatal("no report from step-budget run")
	}
}

// TestBudgetExceededOutcome: a mutant that exhausts the statement
// budget classifies as BudgetExceeded, not an error.
func TestBudgetExceededOutcome(t *testing.T) {
	prog, seed := recordSeed(t, spec.CollectiveCallViolation, chaos.Crash(3, 1, 1), 4, 2)
	e := &engine{
		cfg:      Config{Procs: 4, Threads: 2, MaxSteps: 1, MutantTimeout: 5 * time.Second}.withDefaults(),
		prog:     prog,
		seed:     seed,
		seedRecs: seed.Records(),
	}
	e.cfg.MaxSteps = 1 // withDefaults keeps explicit values
	out := e.runSchedule(seed)
	if out.outcome != OutcomeBudget {
		t.Fatalf("outcome = %s (%s), want %s", out.outcome, out.note, OutcomeBudget)
	}
}

// TestReproArtifactsOnDisk: OutDir receives one .sched/.witness pair
// per repro and the paths round-trip.
func TestReproArtifactsOnDisk(t *testing.T) {
	prog, seed := recordSeed(t, spec.InitializationViolation, chaos.Crash(4, 1, 1), 4, 2)
	out := t.TempDir()
	res, err := Run(prog, seed, Config{
		Procs: 4, Threads: 2, Seed: 3, Budget: 24,
		MutantTimeout: 3 * time.Second, OutDir: out,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	entries, err := filepath.Glob(filepath.Join(out, "repro-*.sched"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(res.Repros) {
		t.Errorf("%d .sched artifacts for %d repros", len(entries), len(res.Repros))
	}
	for _, rp := range res.Repros {
		if _, err := os.Stat(rp.WitnessPath); err != nil {
			t.Errorf("witness artifact missing: %v", err)
		}
	}
}
