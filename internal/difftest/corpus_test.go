package difftest

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"home"
	"home/internal/chaos"
	"home/internal/faults"
	"home/internal/harness"
	"home/internal/minic"
	"home/internal/sched"
	"home/internal/spec"
	"home/internal/trace"
)

// cell is one frozen corpus run: the retained event log and the
// realized schedule (JSONL container) of a (fault-kind, chaos-plan)
// cell.
type cell struct {
	name   string
	events []trace.Event
	sched  []byte
}

var (
	corpusOnce  sync.Once
	corpusCells []cell
	corpusErr   error
)

// corpus replays the chaos-soak recipe — per fault kind one
// unperturbed baseline, eight legal-perturbation plans, two
// crash-stop plans — plus the explorer acceptance cell, retaining
// each run's event log and realized schedule. Built once per test
// binary and shared read-only by every test.
func corpus(t testing.TB) []cell {
	corpusOnce.Do(func() { corpusCells, corpusErr = buildCorpus() })
	if corpusErr != nil {
		t.Fatalf("difftest corpus: %v", corpusErr)
	}
	return corpusCells
}

func buildCorpus() ([]cell, error) {
	var cells []cell
	run := func(name string, prog *minic.Program, plan *chaos.Plan) error {
		rec := sched.NewRecorder()
		rep, err := home.CheckProgram(prog, home.Options{
			Procs: 4, Threads: 2, Seed: 3,
			Chaos:          plan,
			RecordSchedule: rec,
			Explain:        true,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		cells = append(cells, cell{name: name, events: rep.Trace, sched: rec.Bytes()})
		return nil
	}
	seeds := harness.DefaultChaosSeeds()
	for _, kind := range faults.AllKinds() {
		prog, err := minic.Parse(faults.Program(kind))
		if err != nil {
			return nil, fmt.Errorf("%v corpus program: %w", kind, err)
		}
		if err := run(fmt.Sprintf("%v/baseline", kind), prog, nil); err != nil {
			return nil, err
		}
		for _, seed := range seeds {
			if err := run(fmt.Sprintf("%v/perturb-%d", kind, seed), prog, chaos.Perturb(seed)); err != nil {
				return nil, err
			}
		}
		crashes := []*chaos.Plan{
			chaos.Crash(seeds[0], 1, 1),
			chaos.Crash(seeds[len(seeds)-1], 0, 1),
		}
		for i, plan := range crashes {
			if err := run(fmt.Sprintf("%v/crash-%d", kind, i), prog, plan); err != nil {
				return nil, err
			}
		}
	}
	// The explorer acceptance cell (internal/explore's rediscovery
	// smoke): a crash plan the coverage-guided search must reproduce.
	prog, err := minic.Parse(faults.Program(spec.CollectiveCallViolation))
	if err != nil {
		return nil, err
	}
	if err := run("explorer/collective-crash", prog, chaos.Crash(3, 1, 1)); err != nil {
		return nil, err
	}
	return cells, nil
}

// withGOMAXPROCS runs f as subtests at GOMAXPROCS 1, 2 and 4,
// mirroring the replay-determinism matrix.
func withGOMAXPROCS(t *testing.T, f func(t *testing.T)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), f)
	}
}

func TestCorpusShape(t *testing.T) {
	cells := corpus(t)
	// 6 kinds x (1 baseline + 8 perturb + 2 crash) + the explorer cell.
	if want := len(faults.AllKinds())*11 + 1; len(cells) != want {
		t.Fatalf("corpus has %d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if len(c.events) == 0 {
			t.Errorf("%s: empty event log", c.name)
		}
		if len(c.sched) == 0 {
			t.Errorf("%s: empty schedule", c.name)
		}
	}
}
