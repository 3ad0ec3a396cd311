// Package obs is the per-run observability layer of the HOME
// pipeline: counters, gauges and histograms collected in a Registry,
// plus wall/virtual-time phase spans (span.go) exportable as Chrome
// trace_event JSON.
//
// Design constraints, in order:
//
//   - Per-run, no globals. A Registry belongs to one Check (or one
//     experiment run); two concurrent runs never share state.
//   - Nil is off. Every handle method and Registry method is safe on a
//     nil receiver and does nothing, so the substrate packages
//     (mpi/omp/interp/detect) instrument unconditionally and a run
//     without a Registry pays a nil check per hook, nothing more.
//   - Deterministic output. Snapshots render in sorted name order, and
//     none of the collected values involves wall-clock time — virtual
//     time, counts and sizes only — so identical seeds produce
//     identical snapshots wherever the underlying quantity is itself
//     schedule-independent.
//
// See docs/OBSERVABILITY.md for the stat-name inventory.
package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing sum. The zero value is not
// usable; obtain handles from a Registry. A nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current sum (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge tracks a high-water mark: Observe keeps the maximum value
// seen. A nil *Gauge is a no-op.
type Gauge struct {
	max atomic.Int64
}

// Observe records v, retaining it if it exceeds the current maximum.
func (g *Gauge) Observe(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.max.Load()
		if v <= cur || g.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the maximum observed (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Histogram aggregates a distribution of non-negative values into
// power-of-two buckets (bucket i counts values v with bits.Len64(v)
// == i, i.e. 0, 1, 2-3, 4-7, ...). It keeps count, sum, min and max
// exactly; buckets give the shape. A nil *Histogram is a no-op.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [65]int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v at once, as n calls of Observe
// would; n <= 0 records nothing.
func (h *Histogram) ObserveN(v, n int64) {
	if h == nil || n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += v * n
	h.buckets[bits.Len64(uint64(v))] += n
	h.mu.Unlock()
}

// Stat returns the histogram's aggregate view.
func (h *Histogram) Stat() HistogramStat {
	if h == nil {
		return HistogramStat{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramStat{
		Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		Buckets: h.buckets,
	}
	s.P50 = quantile(50, s.Count, s.Min, s.Max, &s.Buckets)
	s.P95 = quantile(95, s.Count, s.Min, s.Max, &s.Buckets)
	return s
}

// quantile estimates the q-th percentile (q in [0,100]) from
// power-of-two buckets: it finds the bucket holding the ceil(q%·count)
// ranked sample and reports that bucket's upper bound, clamped to the
// exact [min, max] envelope. The estimate therefore never exceeds the
// true quantile's bucket and is exact whenever the bucket holds a
// single distinct value (counts of 0 and 1, in particular). It is
// shared by live histograms and by HistogramStat merging, so a merged
// corpus stat answers quantile queries at the same resolution as the
// runs it folded.
func quantile(q, count, min, max int64, buckets *[65]int64) int64 {
	if count == 0 {
		return 0
	}
	need := (count*q + 99) / 100
	if need < 1 {
		need = 1
	}
	var cum int64
	for i, n := range buckets {
		cum += n
		if cum >= need {
			hi := int64(uint64(1)<<uint(i) - 1)
			if hi < min {
				hi = min
			}
			if hi > max {
				hi = max
			}
			return hi
		}
	}
	return max
}

// HistogramStat is the exported aggregate of a Histogram. P50 and P95
// are bucket-resolution estimates (see quantile). It carries the full
// bucket array, so stats from different runs merge exactly (Merge)
// and a merged stat re-derives its quantiles at the same resolution.
// The struct stays comparable with == (the bucket field is an array)
// so Snapshot.Equal keeps working; JSON carries the buckets sparsely
// (see MarshalJSON).
type HistogramStat struct {
	Count   int64     `json:"count"`
	Sum     int64     `json:"sum"`
	Min     int64     `json:"min"`
	Max     int64     `json:"max"`
	P50     int64     `json:"p50"`
	P95     int64     `json:"p95"`
	Buckets [65]int64 `json:"-"`
}

// Mean returns Sum/Count (0 when empty).
func (s HistogramStat) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// histogramStatWire is the JSON shape of HistogramStat: the scalar
// aggregates plus a sparse bucket map (decimal bucket index → count),
// omitted entirely when every bucket is zero. The sparse form keeps
// per-run JSON small — a typical stat populates two or three of the
// 65 buckets.
type histogramStatWire struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Min     int64            `json:"min"`
	Max     int64            `json:"max"`
	P50     int64            `json:"p50"`
	P95     int64            `json:"p95"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// MarshalJSON emits the sparse wire form.
func (s HistogramStat) MarshalJSON() ([]byte, error) {
	w := histogramStatWire{
		Count: s.Count, Sum: s.Sum, Min: s.Min, Max: s.Max,
		P50: s.P50, P95: s.P95,
	}
	for i, n := range s.Buckets {
		if n != 0 {
			if w.Buckets == nil {
				w.Buckets = make(map[string]int64)
			}
			w.Buckets[strconv.Itoa(i)] = n
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON accepts the sparse wire form. Streams written before
// buckets existed decode with a zero bucket array; Merge handles that
// by synthesizing a single bucket at Max (a max-clamped estimate).
func (s *HistogramStat) UnmarshalJSON(data []byte) error {
	var w histogramStatWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*s = HistogramStat{
		Count: w.Count, Sum: w.Sum, Min: w.Min, Max: w.Max,
		P50: w.P50, P95: w.P95,
	}
	for k, n := range w.Buckets {
		i, err := strconv.Atoi(k)
		if err != nil || i < 0 || i >= len(s.Buckets) {
			return fmt.Errorf("obs: bad histogram bucket index %q", k)
		}
		s.Buckets[i] = n
	}
	return nil
}

// Registry vends named counters, gauges and histograms for one run.
// Handles are created on first use; asking for the same name twice
// returns the same handle. All methods are safe on a nil *Registry
// (they return nil handles, whose methods are no-ops) and safe to
// call concurrently with Snapshot — hook installation and snapshot
// iteration share r.mu, and the maps are lazily initialized under it,
// so a zero-value Registry works too (the live plane snapshots
// registries while other goroutines are still installing hooks).
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty per-run registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		if r.counts == nil {
			r.counts = make(map[string]*Counter)
		}
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		if r.gauges == nil {
			r.gauges = make(map[string]*Gauge)
		}
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if r.hists == nil {
			r.hists = make(map[string]*Histogram)
		}
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Add is shorthand for Counter(name).Add(d).
func (r *Registry) Add(name string, d int64) { r.Counter(name).Add(d) }

// Snapshot captures the registry's current values. Maps are freshly
// allocated; the snapshot does not change as the run continues.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramStat{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Stat()
	}
	return s
}

// Snapshot is a point-in-time view of a Registry, JSON-serializable
// for the harness and renderable for the CLI.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]int64         `json:"gauges,omitempty"`
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
}

// Get returns the named counter value (0 when absent) — a test and
// report convenience.
func (s Snapshot) Get(name string) int64 { return s.Counters[name] }

// Equal reports whether two snapshots carry identical values — the
// determinism check.
func (s Snapshot) Equal(o Snapshot) bool {
	if len(s.Counters) != len(o.Counters) || len(s.Gauges) != len(o.Gauges) ||
		len(s.Histograms) != len(o.Histograms) {
		return false
	}
	for k, v := range s.Counters {
		if o.Counters[k] != v {
			return false
		}
	}
	for k, v := range s.Gauges {
		if o.Gauges[k] != v {
			return false
		}
	}
	for k, v := range s.Histograms {
		if o.Histograms[k] != v {
			return false
		}
	}
	return true
}

// String renders the snapshot as sorted "name value" lines grouped by
// kind, suitable for the homecheck -stats block.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "%-36s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "%-36s %d (max)\n", name, s.Gauges[name])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "%-36s count=%d sum=%d min=%d max=%d mean=%.1f p50=%d p95=%d\n",
			name, h.Count, h.Sum, h.Min, h.Max, h.Mean(), h.P50, h.P95)
	}
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
