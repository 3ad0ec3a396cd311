package home

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"home/internal/faults"
	"home/internal/mpi"
	"home/internal/spec"
)

// TestCheckChaosCrashPartial exercises graceful degradation end to
// end: a crash-stop plan yields a partial report naming the dead rank
// with per-rank coverage, never an error or a panic.
func TestCheckChaosCrashPartial(t *testing.T) {
	rep, err := Check(cleanHybrid, Options{
		Procs: 4, Seed: 1,
		Chaos: ChaosCrash(3, 1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Fatal("crash-stop run not marked Partial")
	}
	if len(rep.DeadRanks) != 1 || rep.DeadRanks[0] != 1 {
		t.Fatalf("DeadRanks = %v, want [1]", rep.DeadRanks)
	}
	if len(rep.RankCoverage) != 4 {
		t.Fatalf("RankCoverage has %d entries, want 4", len(rep.RankCoverage))
	}
	for _, c := range rep.RankCoverage {
		if c.Failed != (c.Rank == 1) {
			t.Fatalf("rank %d Failed=%v", c.Rank, c.Failed)
		}
	}
	if !strings.Contains(rep.Summary(), "partial report") {
		t.Fatalf("Summary missing partial note:\n%s", rep.Summary())
	}
}

// TestCheckChaosLegalPlanIsClean asserts a legal-only plan neither
// kills ranks nor invents violations on a correct program.
func TestCheckChaosLegalPlanIsClean(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rep, err := Check(cleanHybrid, Options{Procs: 4, Seed: 1, Chaos: ChaosPerturb(seed)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Partial || len(rep.DeadRanks) != 0 {
			t.Fatalf("seed %d: legal plan produced a partial report", seed)
		}
		if rep.Deadlocked {
			t.Fatalf("seed %d: legal plan deadlocked a clean program", seed)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("seed %d: false positives under perturbation: %v", seed, rep.Violations)
		}
	}
}

// TestChaosStallNoFalseDeadlock pins that injected slow-thread stalls
// never trip the deadlock watchdog, however long they last: a stalled
// thread sleeps, it is not blocked. The 300ms case outlives any
// wall-clock grace a watchdog could reasonably grant.
func TestChaosStallNoFalseDeadlock(t *testing.T) {
	base, err := Check(cleanHybrid, Options{Procs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, wall := range []time.Duration{5 * time.Millisecond, 300 * time.Millisecond} {
		plan := ChaosPerturb(11)
		plan.StallProb = 1 // stall at every decision point
		plan.StallWall = wall
		rep, err := Check(cleanHybrid, Options{Procs: 2, Seed: 1, Chaos: plan})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Deadlocked {
			t.Fatalf("stall %v: watchdog tripped on injected stalls", wall)
		}
		for _, rerr := range rep.RunErrors {
			if errors.Is(rerr, mpi.ErrDeadlock) {
				t.Fatalf("stall %v: false-positive DeadlockError: %v", wall, rerr)
			}
		}
		if rep.EventsAnalyzed != base.EventsAnalyzed {
			t.Fatalf("stall %v: analyzed %d events, want %d", wall, rep.EventsAnalyzed, base.EventsAnalyzed)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("stall %v: stall plan changed verdicts: %v", wall, rep.Violations)
		}
	}
}

// TestCheckChaosVerdictStability spot-checks the metamorphic property
// the harness soak sweeps in full: legal perturbations leave the
// confirmed violation set of a racy program unchanged.
func TestCheckChaosVerdictStability(t *testing.T) {
	racy := faults.Program(spec.ConcurrentRecvViolation)
	base, err := Check(racy, Options{Procs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := signatureOf(base)
	if len(want) == 0 {
		t.Fatal("baseline found no violations; the stability check is vacuous")
	}
	for seed := int64(1); seed <= 3; seed++ {
		rep, err := Check(racy, Options{Procs: 2, Seed: 1, Chaos: ChaosPerturb(seed)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := signatureOf(rep)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: verdict drift: baseline %v, perturbed %v", seed, want, got)
		}
	}
}

func signatureOf(rep *Report) []string {
	var sig []string
	for _, v := range rep.Violations {
		sig = append(sig, fmt.Sprintf("%s|%d|%v", v.Kind, v.Rank, v.Lines))
	}
	sort.Strings(sig)
	return sig
}
