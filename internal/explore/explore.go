// Package explore is the coverage-guided schedule-space explorer: it
// takes a recorded v2 schedule — in which every nondeterministic
// decision of the run is a pinned, mutable record — applies targeted
// mutation operators, replays each mutant under virtual and wall-clock
// budgets, and uses verdict deltas plus sched.Coverage signature-set
// growth to decide what to mutate next (novelty-first frontier,
// dedup by serialized mutant identity).
//
// Mutants that force an interleaving the program cannot actually take
// degrade to typed outcomes, never hangs or panics: a stream that
// fails to decode or a run that deadlocks-by-construction is
// Infeasible, a run that exhausts its statement or wall budget is
// BudgetExceeded, a run that consumed only part of its forced
// decisions Diverged. Divergence is not failure — the run past the
// forced prefix resolves live and is re-recorded through the echo
// source (home.Options.RecordSchedule + ReplaySchedule), so every
// mutant yields a complete realized schedule.
//
// Every *new* verdict — a violation signature or witness pair the
// campaign has not seen — triggers greedy delta-debug minimization of
// the mutation list back toward the seed schedule, and the minimized
// mutant's realized schedule is emitted as a minimal reproducing
// .sched plus its witness. The engine then verifies the repro: the
// realized schedule is replayed once more and must reproduce the
// byte-identical verdict signature and witness set.
package explore

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"home"
	"home/internal/interp"
	"home/internal/obs"
	"home/internal/obs/live"
	"home/internal/sched"
)

// Outcome classifies one mutant replay.
type Outcome string

const (
	// OutcomeOK: the mutant replayed to completion consuming its whole
	// forced schedule.
	OutcomeOK Outcome = "ok"
	// OutcomeDiverged: execution left the forced schedule before
	// consuming it (the edit steered the run elsewhere); the realized
	// suffix was resolved live and re-recorded.
	OutcomeDiverged Outcome = "diverged"
	// OutcomeInfeasible: the mutant could not load (decode/validation
	// error) or forced an interleaving that deadlocks by construction.
	OutcomeInfeasible Outcome = "infeasible"
	// OutcomeBudget: the mutant exhausted its statement or wall-clock
	// budget.
	OutcomeBudget Outcome = "budget-exceeded"
)

// Config parameterizes a campaign.
type Config struct {
	// Procs/Threads must match the seed schedule's recording run.
	Procs   int
	Threads int
	// Seed drives the mutation RNG (campaigns are deterministic for a
	// fixed seed schedule + config).
	Seed int64
	// Budget is the number of mutants to execute (default 64).
	Budget int
	// MutantTimeout is the per-mutant wall-clock budget (default 10s).
	MutantTimeout time.Duration
	// MaxSteps is the per-mutant virtual statement budget (default
	// 2e6; the typed interp.ErrStepBudget becomes BudgetExceeded).
	MaxSteps int64
	// MinimizeBudget caps replays spent minimizing one new verdict
	// (default 24).
	MinimizeBudget int
	// Stats receives the explore.* campaign counters (nil-safe).
	Stats *obs.Registry
	// OutDir receives repro-NNN.sched / repro-NNN.witness.json pairs
	// ("" = keep repros in memory only).
	OutDir string
	// Live, when non-nil, registers every mutant replay on the
	// telemetry plane (internal/obs/live), so a long campaign is
	// observable over -introspect while it runs.
	Live *live.Plane
}

func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 2
	}
	if c.Threads <= 0 {
		c.Threads = 2
	}
	if c.Budget <= 0 {
		c.Budget = 64
	}
	if c.MutantTimeout <= 0 {
		c.MutantTimeout = 10 * time.Second
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 2_000_000
	}
	if c.MinimizeBudget <= 0 {
		c.MinimizeBudget = 24
	}
	return c
}

// OutcomeCounts is the campaign's outcome histogram.
type OutcomeCounts struct {
	OK         int `json:"ok"`
	Diverged   int `json:"diverged"`
	Infeasible int `json:"infeasible"`
	Budget     int `json:"budgetExceeded"`
}

// MutantResult summarizes one executed mutant.
type MutantResult struct {
	Mutations   []sched.Mutation `json:"mutations"`
	Outcome     Outcome          `json:"outcome"`
	Note        string           `json:"note,omitempty"`
	Signature   []string         `json:"signature,omitempty"`
	NewVerdicts []string         `json:"newVerdicts,omitempty"`
	NewCoverage int              `json:"newCoverage"`
}

// Repro is one minimal reproducing schedule for a new verdict.
type Repro struct {
	// NewVerdicts are the verdict keys this repro reproduces (violation
	// signatures and witness identities unseen before this mutant).
	NewVerdicts []string `json:"newVerdicts"`
	// Mutations is the minimized mutation list (relative to the seed).
	Mutations []sched.Mutation `json:"mutations"`
	// Signature is the repro's full violation signature.
	Signature []string `json:"signature"`
	// Sched is the realized schedule of the minimized mutant — a
	// complete recording that replays deterministically.
	Sched []byte `json:"-"`
	// WitnessJSON is the verdict evidence: the violation signature and
	// the witnesses of the minimized run.
	WitnessJSON []byte `json:"-"`
	// SchedPath/WitnessPath are the emitted artifacts (when
	// Config.OutDir is set).
	SchedPath   string `json:"schedPath,omitempty"`
	WitnessPath string `json:"witnessPath,omitempty"`
	// Verified: replaying Sched reproduced the byte-identical verdict
	// signature and witness set.
	Verified bool `json:"verified"`
}

// Result is a campaign's outcome.
type Result struct {
	// BaselineSignature is the seed schedule replay's verdict.
	BaselineSignature []string `json:"baselineSignature"`
	// Tried counts executed mutants (including infeasible ones).
	Tried    int            `json:"tried"`
	Outcomes OutcomeCounts  `json:"outcomes"`
	Mutants  []MutantResult `json:"mutants,omitempty"`
	// NewVerdicts lists every verdict key the campaign discovered that
	// the baseline did not produce.
	NewVerdicts []string `json:"newVerdicts,omitempty"`
	Repros      []Repro  `json:"repros,omitempty"`
	// CoverageStart/End are the schedule-space coverage cardinalities
	// before and after the campaign; Coverage is the final union.
	CoverageStart sched.CoverageCounts `json:"coverageStart"`
	CoverageEnd   sched.CoverageCounts `json:"coverageEnd"`
	Coverage      sched.Coverage       `json:"coverage"`
}

// NewSignatures returns how many distinct scheduling decisions the
// campaign added over the seed schedule.
func (r *Result) NewSignatures() int {
	return r.CoverageEnd.Matches + r.CoverageEnd.Collectives + r.CoverageEnd.LockOrders + r.CoverageEnd.CrashPoints -
		r.CoverageStart.Matches - r.CoverageStart.Collectives - r.CoverageStart.LockOrders - r.CoverageStart.CrashPoints
}

// compiled returns the campaign's compiled handle, building one on
// first use. Run compiles eagerly; the fallback keeps directly
// constructed engines (the white-box tests) working. The campaign
// loop is single-threaded, so the lazy init is unsynchronized.
func (e *engine) compiled() *home.Compiled {
	if e.comp == nil {
		e.comp = home.CompileProgram(e.prog)
	}
	return e.comp
}

// engine is one campaign's state.
type engine struct {
	cfg      Config
	prog     *home.Program
	comp     *home.Compiled // front-end compiled once per campaign
	seed     *sched.Schedule
	seedRecs []sched.Record
	rng      *rand.Rand
	seen     map[string]struct{} // verdict keys (violations + witnesses)
	dedup    map[[32]byte]struct{}
	union    sched.Coverage
	res      *Result
}

// frontierEntry is one mutation list worth extending, with its
// novelty score.
type frontierEntry struct {
	muts  []sched.Mutation
	score int
	tie   int
}

// mutantRun is one bounded replay's harvest.
type mutantRun struct {
	rep      *home.Report
	realized *sched.Recorder
	outcome  Outcome
	note     string
	sig      []string
	wkeys    []string
	cov      sched.Coverage
}

// StatNames is the campaign counter inventory; every name is
// documented in docs/ROBUSTNESS.md (gated by TestExploreStatDocDrift)
// and pre-registered on Config.Stats so snapshots always carry the
// full histogram, zeros included.
var StatNames = []string{
	"explore.mutants",
	"explore.ok",
	"explore.diverged",
	"explore.infeasible",
	"explore.budget_exceeded",
	"explore.new_verdicts",
	"explore.new_signatures",
	"explore.minimize_runs",
	"explore.repros",
}

// GaugeNames is the campaign gauge inventory, pre-registered like
// StatNames and documented alongside them:
//
//	explore.frontier_size    high-water frontier population (how many
//	                         mutation lists were worth extending)
//	explore.mutants_per_min  campaign throughput, wall-clock derived —
//	                         advisory only, never byte-compared
var GaugeNames = []string{
	"explore.frontier_size",
	"explore.mutants_per_min",
}

// Run executes a campaign over the seed schedule. The seed must have
// been recorded from the same program with the same Procs/Threads.
func Run(prog *home.Program, seedSched *sched.Schedule, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if seedSched == nil {
		return nil, errors.New("explore: nil seed schedule")
	}
	for _, name := range StatNames {
		cfg.Stats.Counter(name)
	}
	for _, name := range GaugeNames {
		cfg.Stats.Gauge(name)
	}
	campaignStart := time.Now()
	if cfg.OutDir != "" {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return nil, fmt.Errorf("explore: out dir: %w", err)
		}
	}
	e := &engine{
		cfg:      cfg,
		prog:     prog,
		comp:     home.CompileProgram(prog),
		seed:     seedSched,
		seedRecs: seedSched.Records(),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		seen:     map[string]struct{}{},
		dedup:    map[[32]byte]struct{}{},
		union:    seedSched.Coverage(),
		res:      &Result{},
	}

	// Baseline: replay the seed schedule itself. Its verdict and
	// witness set seed the novelty filter.
	base := e.runSchedule(seedSched)
	if base.rep == nil {
		return nil, fmt.Errorf("explore: seed schedule replay failed: %s", base.note)
	}
	e.res.BaselineSignature = base.sig
	for _, k := range base.sig {
		e.seen["v:"+k] = struct{}{}
	}
	for _, k := range base.wkeys {
		e.seen["w:"+k] = struct{}{}
	}
	e.union = e.union.Merge(base.cov)
	e.res.CoverageStart = e.union.Counts()

	frontier := []*frontierEntry{{}}
	nextTie := 1
	attempts := 0
	for e.res.Tried < cfg.Budget && attempts < cfg.Budget*8+16 && len(frontier) > 0 {
		attempts++
		cfg.Stats.Gauge("explore.frontier_size").Observe(int64(len(frontier)))
		pi := popBest(frontier)
		parent := frontier[pi]
		parent.tie = nextTie
		nextTie++

		baseRecs, err := sched.ApplyMutations(e.seedRecs, parent.muts)
		if err != nil {
			// A frontier entry is only pushed after a successful apply;
			// defensive, not a code path.
			frontier = append(frontier[:pi], frontier[pi+1:]...)
			continue
		}
		mut, ok := pickMutation(e.rng, baseRecs, cfg.Threads)
		if !ok {
			// Sterile entry — no mutable records left (e.g. a revival
			// deleted every failure record). Retire it; the campaign
			// continues from the rest of the frontier.
			frontier = append(frontier[:pi], frontier[pi+1:]...)
			continue
		}
		muts := append(append([]sched.Mutation{}, parent.muts...), mut)
		if parent.score > 0 {
			parent.score--
		}

		run, applyErr := e.tryMutant(muts)
		if applyErr != nil {
			// Structurally invalid edit: a typed Infeasible outcome.
			e.record(MutantResult{Mutations: muts, Outcome: OutcomeInfeasible, Note: applyErr.Error()})
			continue
		}
		if run == nil {
			continue // duplicate of an already-executed mutant
		}

		newKeys := e.unseenKeys(*run)
		gain := coverageGain(e.union, run.cov)
		e.union = e.union.Merge(run.cov)
		e.record(MutantResult{
			Mutations:   muts,
			Outcome:     run.outcome,
			Note:        run.note,
			Signature:   run.sig,
			NewVerdicts: newKeys,
			NewCoverage: gain,
		})
		if len(newKeys) > 0 {
			e.markSeen(*run)
			e.res.NewVerdicts = append(e.res.NewVerdicts, newKeys...)
			e.cfg.Stats.Counter("explore.new_verdicts").Add(int64(len(newKeys)))
			e.emitRepro(muts, newKeys, *run)
		}
		if len(newKeys) > 0 || gain > 0 {
			frontier = append(frontier, &frontierEntry{
				muts:  muts,
				score: gain + 8*len(newKeys),
				tie:   nextTie,
			})
			nextTie++
		}
	}

	e.res.CoverageEnd = e.union.Counts()
	e.res.Coverage = e.union
	e.cfg.Stats.Counter("explore.new_signatures").Add(int64(e.res.NewSignatures()))
	// Campaign throughput — wall-clock derived, so advisory only: it is
	// never part of a byte-compared artifact (no snapshot-equality test
	// covers explorer gauges; the frozen harness goldens are on disk).
	if mins := time.Since(campaignStart).Minutes(); mins > 0 {
		cfg.Stats.Gauge("explore.mutants_per_min").Observe(int64(float64(e.res.Tried) / mins))
	}
	return e.res, nil
}

// popBest picks the index of the frontier entry with the highest
// score (FIFO on ties). Entries stay on the frontier when picked —
// their score decays instead — and are removed only when sterile.
func popBest(frontier []*frontierEntry) int {
	best := 0
	for i, f := range frontier[1:] {
		if f.score > frontier[best].score || (f.score == frontier[best].score && f.tie < frontier[best].tie) {
			best = i + 1
		}
	}
	return best
}

// record books one executed mutant into the result and the stats.
func (e *engine) record(m MutantResult) {
	e.res.Tried++
	e.res.Mutants = append(e.res.Mutants, m)
	e.cfg.Stats.Counter("explore.mutants").Inc()
	switch m.Outcome {
	case OutcomeOK:
		e.res.Outcomes.OK++
		e.cfg.Stats.Counter("explore.ok").Inc()
	case OutcomeDiverged:
		e.res.Outcomes.Diverged++
		e.cfg.Stats.Counter("explore.diverged").Inc()
	case OutcomeInfeasible:
		e.res.Outcomes.Infeasible++
		e.cfg.Stats.Counter("explore.infeasible").Inc()
	case OutcomeBudget:
		e.res.Outcomes.Budget++
		e.cfg.Stats.Counter("explore.budget_exceeded").Inc()
	}
}

// tryMutant applies a mutation list, round-trips the mutant through
// the wire codec and replays it. A nil run with nil error means the
// mutant was a duplicate. An apply/validation error is returned for
// Infeasible classification; a decode error is classified here.
func (e *engine) tryMutant(muts []sched.Mutation) (*mutantRun, error) {
	recs, err := sched.ApplyMutations(e.seedRecs, muts)
	if err != nil {
		return nil, err
	}
	data := sched.EncodeRecords(e.seed.Plan(), recs)
	h := sha256.Sum256(data)
	if _, dup := e.dedup[h]; dup {
		return nil, nil
	}
	e.dedup[h] = struct{}{}
	ms, err := LoadMutant(data)
	if err != nil {
		run := &mutantRun{outcome: OutcomeInfeasible, note: "decode: " + err.Error()}
		return run, nil
	}
	run := e.runSchedule(ms)
	return &run, nil
}

// runSchedule replays one schedule under the campaign budgets with
// the echo recorder attached, harvesting verdicts, witnesses and
// realized coverage.
func (e *engine) runSchedule(ms *sched.Schedule) mutantRun {
	rec := sched.NewRecorder()
	opts := home.Options{
		Procs:          e.cfg.Procs,
		Threads:        e.cfg.Threads,
		MaxSteps:       e.cfg.MaxSteps,
		ReplaySchedule: ms,
		RecordSchedule: rec,
		Explain:        true,
		Live:           e.cfg.Live,
		LiveName:       "explore-mutant",
	}
	forced0 := ms.Forced()
	rep, err, timedOut := CheckCompiledBounded(e.compiled(), opts, e.cfg.MutantTimeout)
	run := mutantRun{rep: rep, realized: rec}
	switch {
	case timedOut:
		run.outcome, run.note = OutcomeBudget, "wall-clock budget exceeded"
		run.realized = nil // the abandoned run still writes into rec
		return run
	case err != nil:
		run.outcome, run.note = OutcomeInfeasible, err.Error()
		return run
	}
	run.sig = violationSignature(rep)
	run.wkeys = witnessKeys(rep.Witnesses)
	run.cov = rec.Coverage()
	for _, re := range rep.RunErrors {
		if errors.Is(re, interp.ErrStepBudget) {
			run.outcome, run.note = OutcomeBudget, "statement budget exceeded"
			return run
		}
	}
	if rep.Deadlocked {
		run.outcome, run.note = OutcomeInfeasible, "deadlock by construction"
		return run
	}
	if ms.Forced()-forced0 < int64(ms.Len()-len(ms.Crashes())) {
		run.outcome = OutcomeDiverged
		return run
	}
	run.outcome = OutcomeOK
	return run
}

// unseenKeys lists the run's verdict keys the campaign has not seen.
func (e *engine) unseenKeys(run mutantRun) []string {
	var out []string
	for _, k := range run.sig {
		if _, ok := e.seen["v:"+k]; !ok {
			out = append(out, k)
		}
	}
	for _, k := range run.wkeys {
		if _, ok := e.seen["w:"+k]; !ok {
			out = append(out, "witness:"+k)
		}
	}
	sort.Strings(out)
	return out
}

func (e *engine) markSeen(run mutantRun) {
	for _, k := range run.sig {
		e.seen["v:"+k] = struct{}{}
	}
	for _, k := range run.wkeys {
		e.seen["w:"+k] = struct{}{}
	}
}

// reproduces reports whether the run still exhibits every target
// verdict key.
func reproduces(run mutantRun, targets []string) bool {
	have := make(map[string]struct{}, len(run.sig)+len(run.wkeys))
	for _, k := range run.sig {
		have[k] = struct{}{}
	}
	for _, k := range run.wkeys {
		have["witness:"+k] = struct{}{}
	}
	for _, t := range targets {
		if _, ok := have[t]; !ok {
			return false
		}
	}
	return true
}

// emitRepro minimizes the mutation list behind a new verdict and
// emits the minimal reproducing schedule plus its witness, verifying
// that the realized schedule replays to the identical evidence.
func (e *engine) emitRepro(muts []sched.Mutation, targets []string, found mutantRun) {
	cur, best := e.minimize(muts, targets, found)
	if best.realized == nil {
		return // budget-exceeded runs carry no readable recording
	}
	repro := Repro{
		NewVerdicts: targets,
		Mutations:   cur,
		Signature:   best.sig,
		Sched:       best.realized.Bytes(),
	}
	witness := struct {
		Signature []string       `json:"signature"`
		Witnesses []home.Witness `json:"witnesses"`
	}{Signature: best.sig, Witnesses: best.rep.Witnesses}
	repro.WitnessJSON, _ = json.MarshalIndent(witness, "", "  ")
	repro.Verified = e.verify(best)
	if e.cfg.OutDir != "" {
		n := len(e.res.Repros)
		repro.SchedPath = filepath.Join(e.cfg.OutDir, fmt.Sprintf("repro-%03d.sched", n))
		repro.WitnessPath = filepath.Join(e.cfg.OutDir, fmt.Sprintf("repro-%03d.witness.json", n))
		if err := os.WriteFile(repro.SchedPath, repro.Sched, 0o644); err != nil {
			repro.SchedPath = ""
		}
		if err := os.WriteFile(repro.WitnessPath, repro.WitnessJSON, 0o644); err != nil {
			repro.WitnessPath = ""
		}
	}
	e.res.Repros = append(e.res.Repros, repro)
	e.cfg.Stats.Counter("explore.repros").Inc()
}

// minimize greedily delta-debugs the mutation list: drop one mutation
// at a time, keep the drop whenever the target verdicts still
// reproduce, until a fixpoint or the minimization budget runs out.
func (e *engine) minimize(muts []sched.Mutation, targets []string, found mutantRun) ([]sched.Mutation, mutantRun) {
	cur, best := muts, found
	budget := e.cfg.MinimizeBudget
	improved := true
	for improved && len(cur) > 1 && budget > 0 {
		improved = false
		for i := 0; i < len(cur) && budget > 0; i++ {
			cand := append(append([]sched.Mutation{}, cur[:i]...), cur[i+1:]...)
			budget--
			e.cfg.Stats.Counter("explore.minimize_runs").Inc()
			run, err := e.tryMinimizeCandidate(cand)
			if err != nil || run == nil {
				continue
			}
			if reproduces(*run, targets) {
				cur, best = cand, *run
				improved = true
				break
			}
		}
	}
	return cur, best
}

// tryMinimizeCandidate replays a minimization candidate without
// touching the campaign dedup set (the candidate may legitimately
// equal an earlier mutant).
func (e *engine) tryMinimizeCandidate(muts []sched.Mutation) (*mutantRun, error) {
	recs, err := sched.ApplyMutations(e.seedRecs, muts)
	if err != nil {
		return nil, err
	}
	ms, err := LoadMutant(sched.EncodeRecords(e.seed.Plan(), recs))
	if err != nil {
		return nil, err
	}
	run := e.runSchedule(ms)
	return &run, nil
}

// verify replays the repro's realized schedule and checks it
// reproduces the byte-identical verdict signature and witness set.
func (e *engine) verify(best mutantRun) bool {
	rs, err := best.realized.Schedule()
	if err != nil {
		return false
	}
	again := e.runSchedule(rs)
	if again.rep == nil || !sameStrings(again.sig, best.sig) {
		return false
	}
	a, _ := json.Marshal(best.rep.Witnesses)
	b, _ := json.Marshal(again.rep.Witnesses)
	return string(a) == string(b)
}

// violationSignature is the order-independent identity of a report's
// violation set (sorted "kind|rank|lines", matching the chaos-soak
// signature).
func violationSignature(rep *home.Report) []string {
	sig := make([]string, 0, len(rep.Violations))
	for _, v := range rep.Violations {
		sig = append(sig, fmt.Sprintf("%s|%d|%v", v.Kind, v.Rank, v.Lines))
	}
	sort.Strings(sig)
	return sig
}

// witnessKeys renders each witness as its schedule-stable identity:
// kind, rank, variable and the site coordinates of the conflicting
// pair.
func witnessKeys(ws []home.Witness) []string {
	keys := make([]string, 0, len(ws))
	for _, w := range ws {
		k := fmt.Sprintf("%s|%d|%s", w.Kind, w.Rank, w.Var)
		for _, s := range w.Sites {
			k += fmt.Sprintf("|p%d.t%d#%d:%s", s.Rank, s.TID, s.Ix, s.Op)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// coverageGain counts the signatures of cov not yet in union.
func coverageGain(union, cov sched.Coverage) int {
	return union.Merge(cov).Total() - union.Total()
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
