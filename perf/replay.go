package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"home"
	"home/internal/explore"
	"home/internal/faults"
	"home/internal/sched"
	"home/internal/spec"
)

// recording is one schedule recorded at set-up, kept in both codecs,
// with the identity of the report the recording run produced.
type recording struct {
	cfg       config
	kind      spec.Kind // the corpus program's violation kind
	jsonl, v3 []byte
	wantIdent string
}

// identity is what a replay must reproduce of its recording: the sorted
// (kind, rank, lines) violation set, the partial flag, the dead ranks
// and the number of events analyzed.
func identity(rep *home.Report) string {
	sig := make([]string, 0, len(rep.Violations))
	for _, v := range rep.Violations {
		sig = append(sig, fmt.Sprintf("%v|%d|%v", v.Kind, v.Rank, v.Lines))
	}
	sort.Strings(sig)
	return fmt.Sprintf("%v partial=%v dead=%v events=%d", sig, rep.Partial, rep.DeadRanks, rep.EventsAnalyzed)
}

// checkKindSet checks that a corpus program's report names exactly its
// own violation kind.
func checkKindSet(rep *home.Report, kind spec.Kind) error {
	got := rep.CountByKind()
	if len(got) != 1 || got[kind] == 0 {
		return fmt.Errorf("violation kinds %v, want exactly %v", got, kind)
	}
	return nil
}

// chaosPlans are the fault plans recorded for one seed: legal
// perturbation, and perturbation plus a crash-stop of rank 1 after its
// third MPI call.
func chaosPlans(s int64) []*home.ChaosPlan {
	return []*home.ChaosPlan{home.ChaosPerturb(s), home.ChaosCrash(s, 1, 3)}
}

// chaosSeed is the i-th fault-plan seed of a benchmark seed.
func chaosSeed(seed int64, i int) int64 { return seed*100 + int64(i) }

// record runs one recorded check.
func record(comp *home.Compiled, opts home.Options) (*home.Report, *home.ScheduleRecorder, error) {
	rec := home.NewScheduleRecorder()
	opts.RecordSchedule = rec
	rep, err := home.CheckCompiled(comp, opts)
	return rep, rec, err
}

// replayBench is chaos-replay: one op decodes a recorded schedule, in
// the JSONL and the HSB3 binary codec alternately, and replays it.
type replayBench struct {
	*closedLoop
	seed  int64
	class byte // NPB conformance class, 0 = none
	recs  []recording
	n     int // replays so far, selecting the codec
}

func (b *replayBench) configs() []config {
	out := make([]config, len(b.recs))
	for i, r := range b.recs {
		out[i] = r.cfg
	}
	return out
}

func (b *replayBench) close() error { return nil }

// setupReplay records 6 corpus programs x procs x {perturb, crash} x
// seeds schedules. Replays take well under a millisecond, so per-run
// fixed cost (world and goroutine set-up, forced-decision lookup, the
// codec) dominates, where npb-check amortizes it.
func setupReplay(seed int64, sz sizes) (bench, error) {
	b := &replayBench{closedLoop: &closedLoop{rng: rand.New(rand.NewSource(seed))}, seed: seed, class: sz.conformance}
	for _, kind := range spec.AllKinds() {
		comp, err := home.Compile(faults.Program(kind))
		if err != nil {
			return nil, fmt.Errorf("%v: %w", kind, err)
		}
		for _, procs := range sz.chaosProcs {
			for i := 0; i < sz.chaosSeeds; i++ {
				s := chaosSeed(seed, i)
				for _, plan := range chaosPlans(s) {
					c := config{
						name: fmt.Sprintf("%v/p%d/%v", kind, procs, plan),
						comp: comp,
						opts: home.Options{Procs: procs, Threads: 2, Seed: s, Chaos: plan},
					}
					rep, rec, err := record(comp, c.opts)
					if err != nil {
						return nil, fmt.Errorf("record %s: %w", c.name, err)
					}
					if err := checkKindSet(rep, kind); err != nil {
						return nil, fmt.Errorf("record %s: %w", c.name, err)
					}
					b.recs = append(b.recs, recording{
						cfg: c, kind: kind, jsonl: rec.Bytes(), v3: rec.BytesBinary(), wantIdent: identity(rep),
					})
				}
			}
		}
	}
	for i := range b.recs {
		r := &b.recs[i]
		b.ops = append(b.ops, op{name: r.cfg.name, run: func(ot opTrace, t *tally) (int, error) { return b.replay(ot, r, t) }})
	}
	var t tally
	for _, o := range b.ops {
		if _, err := o.run(opTrace{}, &t); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", o.name, err)
		}
	}
	return b, nil
}

// replay decodes and replays one recording and checks the report
// against the recording's.
func (b *replayBench) replay(ot opTrace, r *recording, t *tally) (int, error) {
	b.n++
	name, data := "sched.decode.jsonl", r.jsonl
	if b.n%2 == 0 {
		name, data = "sched.decode.v3", r.v3
	}
	s := ot.begin(name)
	sc, err := sched.Read(bytes.NewReader(data))
	ot.end(s)
	if err != nil {
		return 0, err
	}
	opts := r.cfg.opts
	opts.Chaos = nil
	opts.ReplaySchedule = sc
	rep, err := traceCheck(ot, "home.replay", r.cfg.comp, opts)
	if err != nil {
		return 0, err
	}
	if got := identity(rep); got != r.wantIdent {
		return 0, fmt.Errorf("replay gave %s, recording %s", got, r.wantIdent)
	}
	if err := checkKindSet(rep, r.kind); err != nil {
		return 0, err
	}
	t.makespan(r.cfg.name, rep.Makespan)
	return rep.EventsAnalyzed, nil
}

// conformanceTimeout bounds each run of the NPB conformance pass and of
// the ledger's replays: a diverging replay can wedge, and both must end.
const conformanceTimeout = 10 * time.Second

// boundedCheck is home.CheckCompiled under conformanceTimeout.
func boundedCheck(comp *home.Compiled, opts home.Options) (*home.Report, error) {
	rep, err, timedOut := explore.CheckCompiledBounded(comp, opts, conformanceTimeout)
	if timedOut {
		return nil, fmt.Errorf("run wedged past %v", conformanceTimeout)
	}
	return rep, err
}

// diagnose runs the untimed NPB replay conformance pass: LU/BT/SP-MZ at
// 4 processes under both plans for every seed, each recording decoded
// and replayed. Its counts are reported, not checked: at this commit
// some NPB recordings fail their own decoder and crash-plan replays
// diverge, which is what the counts track.
func (b *replayBench) diagnose() {
	if b.class == 0 {
		return
	}
	progs, err := compileNPB(b.class)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf: chaos-replay: NPB conformance: %v\n", err)
		return
	}
	n, decodeErrs, mismatches := 0, 0, 0
	for _, p := range progs {
		for i := 0; i < 8; i++ {
			s := chaosSeed(b.seed, i)
			for _, plan := range chaosPlans(s) {
				n++
				rec := home.NewScheduleRecorder()
				opts := home.Options{Procs: tableIProcs, Threads: 2, Seed: s, Chaos: plan, RecordSchedule: rec}
				rep, err := boundedCheck(p.comp, opts)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perf: chaos-replay: NPB %v %v: record: %v\n", p.bench, plan, err)
					mismatches++
					continue
				}
				sc, err := sched.Read(bytes.NewReader(rec.Bytes()))
				if err != nil {
					if decodeErrs == 0 || i == 0 {
						fmt.Fprintf(os.Stderr, "perf: chaos-replay: NPB %v %v: %v\n", p.bench, plan, err)
					}
					decodeErrs++
					continue
				}
				opts.Chaos, opts.RecordSchedule, opts.ReplaySchedule = nil, nil, sc
				again, err := boundedCheck(p.comp, opts)
				if err != nil || identity(again) != identity(rep) {
					mismatches++
				}
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perf: chaos-replay: NPB class %c replay conformance over %d recordings: replay.npb_decode_errors=%d replay.npb_verdict_mismatches=%d\n",
		b.class, n, decodeErrs, mismatches)
}
