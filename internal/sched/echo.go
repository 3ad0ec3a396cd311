package sched

// Echo source: replay a schedule while re-recording the run's
// *realized* schedule. A mutant schedule usually replays only
// partially — execution diverges past the edited decision and the
// runtime falls back to live resolution, which the attached recorder
// captures through the ordinary Observe* hooks. The forced decisions,
// however, never reach those hooks (replay branches re-apply records
// instead of observing fresh ones), so the echo source copies every
// lookup hit verbatim into the recorder. The union — echoed forced
// prefix plus live-observed suffix — is a complete recording of the
// run that actually happened, and replaying it reproduces that run
// under the usual record/replay guarantee. That is how the explorer
// turns a diverging mutant into a deterministic minimal repro.

import (
	"sync"

	"home/internal/chaos"
)

// echoSource wraps a Schedule so every hit is re-recorded. Hits are
// deduplicated by key: a replay path may consult the same record more
// than once, but the realized schedule must stay canonical.
type echoSource struct {
	s   *Schedule
	rec *Recorder
	mu  sync.Mutex
	out map[Key]struct{}
}

// Echo returns a chaos.Source that replays s and echoes every record
// it forces into rec. Attach rec as the run's recorder too, so live
// fallback decisions past the forced prefix are captured alongside.
func Echo(s *Schedule, rec *Recorder) chaos.Source {
	return &echoSource{s: s, rec: rec, out: make(map[Key]struct{})}
}

// Lookup implements chaos.Source.
func (e *echoSource) Lookup(kind string, rank, tid int, seq uint64) (Record, bool) {
	rec, ok := e.s.Lookup(kind, rank, tid, seq)
	if ok {
		e.echo(rec)
	}
	return rec, ok
}

// Crashes implements chaos.Source. The world pre-marks replayed
// crashes without any Observe hook firing, so the echo emits the crash
// records here.
func (e *echoSource) Crashes() []int {
	ranks := e.s.Crashes()
	for _, r := range ranks {
		e.echo(Record{Kind: chaos.KindCrash, Rank: r})
	}
	return ranks
}

func (e *echoSource) echo(rec Record) {
	k := rec.Key()
	e.mu.Lock()
	if _, dup := e.out[k]; !dup {
		e.out[k] = struct{}{}
		e.rec.Record(rec)
	}
	e.mu.Unlock()
}
