package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"home"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	name       string
	op         int // the op or ledger configuration the call served
	id, parent int // parent 0 = a root span
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced and traced runs share one code path.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, id: len(t.spans) + 1, parent: parent, start: now, end: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// since records a span that began at t0 and ends now.
func (t *tracer) since(name string, op, parent int, t0 time.Time) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, id: len(t.spans) + 1, parent: parent, start: t0.Sub(t.t0), end: now})
}

// profile returns a phase profile to pass in home.Options.Profile, or
// nil on a nil tracer.
func (t *tracer) profile() *home.Profile {
	if t == nil {
		return nil
	}
	return home.NewProfile()
}

// addProfile records the pipeline phases of p (execute, analyze, match;
// a cold handle adds static and instrument) as children of span parent,
// named "home.<phase>". p must have been created just before the call
// parent times, so its offsets are relative to the parent's start.
func (t *tracer) addProfile(parent int, p *home.Profile) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ps := t.spans[parent-1]
	for _, ph := range p.Spans() {
		start := ps.start + time.Duration(ph.StartWallNs)
		t.spans = append(t.spans, span{
			name: "home." + ph.Name, op: ps.op, id: len(t.spans) + 1, parent: parent,
			start: start, end: start + time.Duration(ph.WallNs),
		})
	}
}

// layerTimes sums, per span name, the total duration and the self time
// (duration minus the part of it that child spans cover).
func layerTimes(spans []span) (total, self map[string]time.Duration) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	for _, s := range spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		total[s.name] += d
		self[s.name] += d - covered(s, children[s.id])
	}
	return total, self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if k.end >= 0 && hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return sum + curHi - curLo
}

// writeChrome writes the spans as Chrome trace_event JSON: one complete
// event per span, one track per op, with the parent and self time in
// args.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range spans {
		children[s.parent] = append(children[s.parent], s)
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		if s.end < 0 {
			continue
		}
		self := s.end - s.start - covered(s, children[s.id])
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.op,
			Args: map[string]any{"id": s.id, "parent": s.parent, "self_us": float64(self.Nanoseconds()) / 1e3},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
