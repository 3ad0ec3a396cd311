package harness

// Record/replay support for the chaos soak: the replay-stable identity
// of a report, and the auto-dump of schedules for diverging plans so a
// verdict-drift failure ships with the exact interleaving that
// produced it (replayable via `homecheck -replay-sched` or
// `hometrace replay`).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"home"
	"home/internal/minic"
	"home/internal/spec"
)

// ReplayIdentity is the part of a Report that record/replay guarantees
// to reproduce exactly for every schedule version: the verdicts and
// the partial-report contract fields. Error strings are outside the
// guarantee. Virtual-time fields (Makespan, event timestamps) are
// guaranteed only by v2+ schedules, which additionally pin collective
// membership and lock/election orders — see ExactIdentity.
type ReplayIdentity struct {
	Signature      []string            `json:"signature"`
	Partial        bool                `json:"partial"`
	Deadlocked     bool                `json:"deadlocked"`
	DeadRanks      []int               `json:"deadRanks,omitempty"`
	RankCoverage   []home.RankCoverage `json:"rankCoverage,omitempty"`
	EventsAnalyzed int                 `json:"eventsAnalyzed"`
}

// IdentityOf extracts the replay-stable identity of a report.
func IdentityOf(rep *home.Report) ReplayIdentity {
	return ReplayIdentity{
		Signature:      violationSignature(rep),
		Partial:        rep.Partial,
		Deadlocked:     rep.Deadlocked,
		DeadRanks:      rep.DeadRanks,
		RankCoverage:   rep.RankCoverage,
		EventsAnalyzed: rep.EventsAnalyzed,
	}
}

// String renders the identity canonically (JSON), so two identities
// are equal iff their strings are byte-identical.
func (id ReplayIdentity) String() string {
	b, _ := json.Marshal(id)
	return string(b)
}

// ExactIdentity is the part of a Report that a schedule replay
// guarantees to reproduce exactly: the replay-stable identity plus
// virtual time. Pinning collective membership and lock-acquisition
// order makes every thread's clock arithmetic deterministic, so
// Makespan (and with it every event timestamp and the exported
// timeline) replays byte-identically.
type ExactIdentity struct {
	ReplayIdentity
	Makespan int64 `json:"makespan"`
}

// ExactIdentityOf extracts the virtual-time-exact identity of a report.
func ExactIdentityOf(rep *home.Report) ExactIdentity {
	return ExactIdentity{ReplayIdentity: IdentityOf(rep), Makespan: rep.Makespan}
}

// String renders the exact identity canonically (JSON).
func (id ExactIdentity) String() string {
	b, _ := json.Marshal(id)
	return string(b)
}

// dumpSchedule re-runs a diverged plan with a schedule recorder
// attached and writes the realized schedule next to the soak output,
// returning the file path. The re-run realizes the same fault
// decisions (they are keyed by seed and thread progress, not host
// time); its nondeterministic resolutions are whatever the dump run
// observed, which is exactly what a replay will reproduce.
func dumpSchedule(dir string, kind spec.Kind, prog *minic.Program, opts home.Options) (string, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	rec := home.NewScheduleRecorder()
	opts.RecordSchedule = rec
	if _, err := home.CheckProgram(prog, opts); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("home-sched-%s-%s.jsonl", kind, sanitizePlan(opts.Chaos.String())))
	if err := rec.WriteFile(path); err != nil {
		return "", err
	}
	return path, nil
}

// sanitizePlan turns a plan spec into a filename-safe token.
func sanitizePlan(spec string) string {
	out := make([]rune, 0, len(spec))
	for _, r := range spec {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '.':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
