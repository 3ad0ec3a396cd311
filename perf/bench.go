package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"home"
)

// config is one distinct check a workload performs: a compiled program
// under run options (procs, threads, seed and, for chaos workloads, a
// fault plan). The ledger measures every layer on each config once.
type config struct {
	name string
	comp *home.Compiled
	opts home.Options
}

// bench is a workload after set-up, ready to measure.
type bench interface {
	// measure runs ops for at least d, in whole rounds where the workload
	// has rounds, recording them in t. A non-nil tr traces every op; a
	// non-nil m samples the host's speed along the way.
	measure(d time.Duration, tr *tracer, t *tally, m *hostMeter)
	// configs lists the distinct checks the ops perform.
	configs() []config
	// cpu is the CPU time used so far by the process doing the checks.
	cpu() time.Duration
	// rss is that process's peak resident set size in bytes.
	rss() (int64, error)
	// diagnose prints workload-specific, untimed diagnostics to stderr.
	diagnose()
	// close releases the workload (stops the daemon of serve-mixed).
	close() error
}

// sizes scales the workloads. fullSizes is the benchmark; the tests
// use smallSizes to stay within a few seconds.
type sizes struct {
	setups      int     // set-up repetitions; setup_s is their median
	checkClass  byte    // npb-check NPB class
	checkProcs  []int   // npb-check process counts
	figureClass byte    // paper-figures NPB class
	figureProcs []int   // paper-figures process counts
	warmFigure  []int   // paper-figures warm-up process counts
	serveRate   float64 // serve-mixed offered load, jobs per second
	serveWarm   int     // serve-mixed warm-up jobs
	chaosProcs  []int   // chaos-replay process counts
	chaosSeeds  int     // chaos-replay seeds per (program, procs, plan)
	conformance byte    // chaos-replay NPB conformance class (0 = skip)
}

var fullSizes = sizes{
	setups:      5,
	checkClass:  'B',
	checkProcs:  []int{4, 16, 64},
	figureClass: 'A',
	figureProcs: []int{2, 4, 8, 16, 32},
	warmFigure:  []int{2, 4},
	// Well below the daemon's capacity even when the host runs slow: at
	// 250 jobs/s a host slowdown saturated both CPUs and jobs queued
	// for seconds.
	serveRate: 100,
	// Past the daemon's 1024-job retention cap, so the job-table
	// eviction scan every submission pays is in steady state.
	serveWarm:   1100,
	chaosProcs:  []int{4, 8},
	chaosSeeds:  8,
	conformance: 'S',
}

var smallSizes = sizes{
	setups:      1,
	checkClass:  'S',
	checkProcs:  []int{2, 4},
	figureClass: 'S',
	figureProcs: []int{2, 4},
	warmFigure:  []int{2},
	serveRate:   100,
	serveWarm:   20,
	chaosProcs:  []int{4},
	chaosSeeds:  1,
}

// workload is one named benchmark workload.
type workload struct {
	name  string
	setup func(seed int64, sz sizes) (bench, error)
}

var workloads = []workload{
	{"npb-check", setupNPBCheck},
	{"paper-figures", setupFigures},
	{"serve-mixed", setupServe},
	{"chaos-replay", setupReplay},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one closed-loop operation: it performs one unit of work,
// checks its output against known answers and reports the events it
// analyzed. It records virtual makespans in t.
type op struct {
	name string
	run  func(ot opTrace, t *tally) (events int, err error)
}

// opTrace is where one op records the calls it makes into layers.
type opTrace struct {
	tr         *tracer
	op, parent int
}

func (o opTrace) begin(name string) int { return o.tr.begin(name, o.op, o.parent) }
func (o opTrace) end(id int)            { o.tr.end(id) }

// closedLoop runs its ops one after another, each round in a fresh
// seeded order, starting rounds until the measuring time is used up.
type closedLoop struct {
	rng *rand.Rand
	ops []op
	ids int // ops run so far: the op id of the next one
}

func (c *closedLoop) measure(d time.Duration, tr *tracer, t *tally, m *hostMeter) {
	order := make([]int, len(c.ops))
	for i := range order {
		order[i] = i
	}
	start := time.Now()
	for rounds := 0; rounds == 0 || time.Since(start) < d; rounds++ {
		c.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			if m.due() {
				m.sample()
			}
			c.ids++
			root := tr.begin("op", c.ids, 0)
			t0 := time.Now()
			events, err := c.ops[i].run(opTrace{tr, c.ids, root}, t)
			lat := time.Since(t0)
			tr.end(root)
			if err != nil {
				err = fmt.Errorf("%s: %w", c.ops[i].name, err)
			}
			t.add(lat, events, err)
		}
	}
}

func (c *closedLoop) cpu() time.Duration  { return selfCPU() }
func (c *closedLoop) rss() (int64, error) { return peakRSS("self") }

// setupTimed runs the workload's set-up sz.setups times and returns the
// last instance with the median set-up time in seconds, unscaled and
// scaled to the reference host's speed by the meter samples taken on
// either side of each set-up. Each repetition starts from scratch,
// closing the previous instance.
func setupTimed(w workload, seed int64, sz sizes, m *hostMeter) (b bench, raw, scaled float64, err error) {
	var times []float64
	var ends []time.Time
	m.sample()
	for i := 0; i < max(1, sz.setups); i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, 0, 0, err
			}
			// Each set-up starts from a collected heap, so the peak RSS
			// holds one set-up's garbage, not several.
			runtime.GC()
		}
		t0 := time.Now()
		b, err = w.setup(seed, sz)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		ends = append(ends, time.Now())
		m.sample()
	}
	scaledTimes := make([]float64, len(times))
	for i, s := range times {
		scaledTimes[i] = s / m.slowdownAt(ends[i])
	}
	return b, quantile(times, 0.5), quantile(scaledTimes, 0.5), nil
}

// runWorkload sets the workload up, measures it for d and returns the
// result line. An untraced run reports the end-to-end metrics; a
// traced one reports the per-layer metrics and writes the spans as
// Chrome trace JSON to traceOut.
func runWorkload(w workload, seed int64, d time.Duration, traced bool, traceOut string, sz sizes) (*result, error) {
	if traced {
		return runTraced(w, seed, d, traceOut, sz)
	}
	m, err := startHostMeter()
	if err != nil {
		return nil, err
	}
	r, err := runUntraced(w, seed, d, sz, m)
	if cerr := m.close(); err == nil && cerr != nil {
		return nil, cerr
	}
	return r, err
}

// runUntraced measures the end-to-end metrics, with timings scaled to
// the reference host's speed.
func runUntraced(w workload, seed int64, d time.Duration, sz sizes, m *hostMeter) (*result, error) {
	b, setupRaw, setupS, err := setupTimed(w, seed, sz, m)
	if err != nil {
		return nil, err
	}
	// The measured stretch is scaled by its own samples.
	m.reset()
	var t tally
	cpu0, t0 := b.cpu(), time.Now()
	b.measure(d, nil, &t, m)
	wall := time.Since(t0)
	cpu := b.cpu() - cpu0
	rss, err := b.rss()
	if err != nil {
		b.close()
		return nil, err
	}
	if m.err != nil {
		b.close()
		return nil, m.err
	}
	// Each op is scaled by the host's speed around it; CPU time by the
	// run's mean slowdown, weighted by op time.
	scaled := make([]float64, len(t.lat))
	for i, lat := range t.lat {
		scaled[i] = lat / m.slowdownAt(t.ends[i])
	}
	slow := sum(t.lat) / sum(scaled)
	cpuMs := float64(cpu.Nanoseconds()) / 1e6 / float64(max(1, t.attempted))
	vals := map[string]float64{
		"op_ms.p50":     quantile(scaled, 0.5) / 1e6,
		"op_ms.p90":     quantile(scaled, 0.9) / 1e6,
		"events_per_s":  float64(t.events) / (sum(scaled) / 1e9),
		"cpu_ms_per_op": cpuMs / slow,
		"setup_s":       setupS,
		"peak_rss_mb":   float64(rss) / (1 << 20),
	}
	fmt.Fprintf(os.Stderr, "perf: %s: %d ops (%d failed) in %.1fs; %d latency samples\n",
		w.name, t.attempted, t.failed, wall.Seconds(), len(t.lat))
	fmt.Fprintf(os.Stderr, "perf: %s: ops ran %.3fx slower than at the reference speed (kernel %.3f-%.3fx the reference over %d samples); unscaled op_ms.p50=%.4f op_ms.p90=%.4f events_per_s=%.1f cpu_ms_per_op=%.4f setup_s=%.4f\n",
		w.name, slow, quantile(m.samples, 0)/refKernelNs, quantile(m.samples, 1)/refKernelNs, len(m.samples),
		quantile(t.lat, 0.5)/1e6, quantile(t.lat, 0.9)/1e6, float64(t.events)/(sum(t.lat)/1e9), cpuMs, setupRaw)
	return finishRun(w, b, &t, endToEnd, vals)
}

// runTraced is the traced pass: the per-layer metrics and the Chrome
// trace.
func runTraced(w workload, seed int64, d time.Duration, traceOut string, sz sizes) (*result, error) {
	b, _, _, err := setupTimed(w, seed, sz, nil)
	if err != nil {
		return nil, err
	}
	var t tally
	vals := map[string]float64{}
	if err := traceRun(b, d, traceOut, &t, vals); err != nil {
		b.close()
		return nil, err
	}
	return finishRun(w, b, &t, perLayer, vals)
}

// finishRun prints the workload's diagnostics, closes it and makes the
// result line.
func finishRun(w workload, b bench, t *tally, defs []metricDef, vals map[string]float64) (*result, error) {
	b.diagnose()
	if err := b.close(); err != nil {
		return nil, err
	}
	if len(t.lat) == 0 {
		return nil, fmt.Errorf("%s: no op succeeded: %v", w.name, t.errs)
	}
	for _, e := range t.errs {
		fmt.Fprintf(os.Stderr, "perf: %s: failed op: %s\n", w.name, e)
	}
	r := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if err := r.fill(defs, vals); err != nil {
		return nil, err
	}
	return r, nil
}

// traceRun is the traced pass. Untraced and traced stretches of the
// same ops alternate, twice each, a twelfth of d apiece (at least one
// round): the untraced ones give the process metrics, and the two
// medians the tracing overhead. Then the ledger times every layer on
// each distinct config.
func traceRun(b bench, d time.Duration, traceOut string, t *tally, vals map[string]float64) error {
	tr := newTracer()
	var plain, traced tally
	var alloc, gcs uint64
	var wall, cpu time.Duration
	for i := 0; i < 2; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0, t0 := b.cpu(), time.Now()
		b.measure(d/12, nil, &plain, nil)
		wall, cpu = wall+time.Since(t0), cpu+b.cpu()-cpu0
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		gcs += uint64(m1.NumGC - m0.NumGC)
		b.measure(d/12, tr, &traced, nil)
	}
	ops := float64(max(1, plain.attempted))
	vals["go.alloc_mb_per_op"] = float64(alloc) / (1 << 20) / ops
	vals["go.gc_per_op"] = float64(gcs) / ops
	vals["proc.cpu_util"] = cpu.Seconds() / wall.Seconds()
	vals["trace_overhead"] = quantile(traced.lat, 0.5)/quantile(plain.lat, 0.5) - 1
	t.merge(&plain)
	t.merge(&traced)
	vals["sim.makespan_spread"] = t.makespanSpread()

	if err := runLedger(tr, b.configs(), t, vals); err != nil {
		return err
	}
	printLayers(tr)
	if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
		return err
	}
	f, err := os.Create(traceOut)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "perf: wrote %d spans to %s\n", len(tr.spans), traceOut)
	return f.Close()
}

// printLayers writes the per-layer total and self times to stderr.
func printLayers(tr *tracer) {
	total, self := layerTimes(tr.spans)
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(os.Stderr, "perf: %-24s %12s %12s\n", "layer span", "total ms", "self ms")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perf: %-24s %12.3f %12.3f\n", n,
			float64(total[n].Nanoseconds())/1e6, float64(self[n].Nanoseconds())/1e6)
	}
}
