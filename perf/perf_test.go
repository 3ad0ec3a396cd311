package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"
	"time"

	"home/internal/npb"
)

func TestMain(m *testing.M) {
	// The daemon and the host meter re-execute the running binary; under
	// test that binary is this one.
	if code, ok := roleMain(); ok {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSONListsTheMetrics checks that BENCHMARK.json names the
// workloads and metrics this package measures, with the same units.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	doc := readBenchmarkDoc(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	var e2e, layer []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end %v, benchmark measures %v", e2e, endToEnd)
	}
	if fmt.Sprint(layer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer %v, benchmark measures %v", layer, perLayer)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", doc.RunSeconds, defaultSeconds)
	}
}

// TestBoundsFollowSpreads checks BENCHMARK.json's end-to-end bounds
// against the spreads recorded in spreads.json by `perf -spreads 10`:
// each bound is what boundFor makes of the metric's largest spread over
// the workloads and both sets; setup_s, whose spread a comparison does
// not judge, has the widest bound; and no median moved between the two
// sets by more than its metric's bound.
func TestBoundsFollowSpreads(t *testing.T) {
	doc := readBenchmarkDoc(t)
	data, err := os.ReadFile("spreads.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec spreadRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.RunSeconds != doc.RunSeconds || rec.Runs < 10 || len(rec.Sets) != 2 {
		t.Fatalf("spreads.json: %d runs of %d s in %d sets; want two sets of at least 10 runs of run_seconds (%d s)",
			rec.Runs, rec.RunSeconds, len(rec.Sets), doc.RunSeconds)
	}
	widest := 0.0
	for _, m := range doc.EndToEnd {
		widest = math.Max(widest, m.Bound)
	}
	for _, m := range doc.EndToEnd {
		worst := 0.0
		for _, w := range workloads {
			a, okA := rec.Sets[0][w.name][m.Name]
			b, okB := rec.Sets[1][w.name][m.Name]
			if !okA || !okB {
				t.Errorf("spreads.json has no %s @ %s", m.Name, w.name)
				continue
			}
			worst = math.Max(worst, math.Max(a.Spread, b.Spread))
			if shift := math.Abs(b.Median-a.Median) / a.Median; shift > m.Bound {
				t.Errorf("%s @ %s: median moved by %.3f between the sets, more than its bound %.2f", m.Name, w.name, shift, m.Bound)
			}
		}
		switch {
		case m.Name == "setup_s":
			if m.Bound != widest {
				t.Errorf("setup_s bound %.2f, not the widest (%.2f)", m.Bound, widest)
			}
		case m.Bound != boundFor(worst):
			t.Errorf("%s: bound %.2f, its largest spread %.3f calls for %.2f", m.Name, m.Bound, worst, boundFor(worst))
		case worst >= m.Bound:
			t.Errorf("%s: largest spread %.3f is not within its bound %.2f", m.Name, worst, m.Bound)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) gives these.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10.5}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	for _, c := range []struct{ spread, bound float64 }{{0, 0.10}, {0.02, 0.10}, {0.034, 0.15}, {0.05, 0.15}, {0.07, 0.25}, {0.2, 0.25}} {
		if got := boundFor(c.spread); got != c.bound {
			t.Errorf("boundFor(%v) = %v, want %v", c.spread, got, c.bound)
		}
	}
}

// TestEveryMetricEmitted runs every workload, untraced and traced, at
// small sizes and checks that each run reports exactly the metrics
// BENCHMARK.json lists, with their units, and that every op passed its
// checks.
func TestEveryMetricEmitted(t *testing.T) {
	doc := readBenchmarkDoc(t)
	units := func(traced bool) map[string]string {
		m := map[string]string{}
		if traced {
			for _, d := range doc.PerLayer {
				m[d.Name] = d.Unit
			}
		} else {
			for _, d := range doc.EndToEnd {
				m[d.Name] = d.Unit
			}
		}
		return m
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out := filepath.Join(t.TempDir(), "trace.json")
			r, err := runWorkload(w, 1, 200*time.Millisecond, traced, out, smallSizes)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, r.Correct, r.Failed, r.Attempted)
			}
			want := units(traced)
			for name, m := range r.Metrics {
				if u, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: emits %s, which BENCHMARK.json does not list", w.name, traced, name)
				} else if u != m.Unit {
					t.Errorf("%s traced=%v: %s in %s, BENCHMARK.json says %s", w.name, traced, name, m.Unit, u)
				}
			}
			for name := range want {
				if _, ok := r.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: does not emit %s", w.name, traced, name)
				}
			}
			if traced {
				if _, err := os.Stat(out); err != nil {
					t.Errorf("%s: no Chrome trace: %v", w.name, err)
				}
			}
		}
	}
}

// inputs renders what the workloads generate from a seed: the NPB
// sources, the closed-loop op order, the chaos configurations and the
// serving load's arrivals.
func inputs(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	progs, err := compileNPB(smallSizes.checkClass)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		buf.WriteString(p.src.Text)
	}
	cl := &closedLoop{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 9; i++ {
		name := fmt.Sprint(i)
		cl.ops = append(cl.ops, op{name: name, run: func(opTrace, *tally) (int, error) {
			buf.WriteString(name)
			return 0, nil
		}})
	}
	var tl tally
	cl.measure(0, nil, &tl, nil)
	rb, err := setupReplay(seed, smallSizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rb.configs() {
		fmt.Fprintln(&buf, c.name, c.opts.Seed)
	}
	corpus, heavy, err := serveMix(seed)
	if err != nil {
		t.Fatal(err)
	}
	sb := &serveBench{seed: seed, rate: fullSizes.serveRate, rng: rand.New(rand.NewSource(seed)), corpus: corpus, heavy: heavy}
	for _, j := range sb.arrivals(2 * time.Second) {
		fmt.Fprintf(&buf, "%d %s\n", j.due, j.body)
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputs(t, 7), inputs(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	if bytes.Equal(a, inputs(t, 8)) {
		t.Fatal("seeds 7 and 8 generated the same inputs")
	}
}

// TestPlantedWrongExpectationFails plants a wrong known answer and
// checks that the ops it governs count as failed.
func TestPlantedWrongExpectationFails(t *testing.T) {
	b, err := setupNPBCheck(1, smallSizes)
	if err != nil {
		t.Fatal(err)
	}
	saved := tableI[npb.LU]
	defer func() { tableI[npb.LU] = saved }()
	planted := saved
	planted.home = 5
	tableI[npb.LU] = planted
	var tl tally
	b.measure(0, nil, &tl, nil)
	if want := len(smallSizes.checkProcs); tl.failed != want || tl.attempted != 3*want {
		t.Errorf("npb-check with a wrong LU answer: %d/%d ops failed, want %d/%d", tl.failed, tl.attempted, want, 3*want)
	}

	rb, err := setupReplay(1, smallSizes)
	if err != nil {
		t.Fatal(err)
	}
	r := rb.(*replayBench)
	r.recs[0].wantIdent = "planted"
	tl = tally{}
	r.measure(0, nil, &tl, nil)
	if tl.failed != 1 || tl.attempted != len(r.recs) {
		t.Errorf("chaos-replay with one wrong recording identity: %d/%d ops failed, want 1/%d", tl.failed, tl.attempted, len(r.recs))
	}
}

func TestDaemonExitsZeroOnSIGTERM(t *testing.T) {
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	corpus, _, err := serveMix(1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newClient(d.addr)
	if err != nil {
		t.Fatal(err)
	}
	sb := &serveBench{seed: 1}
	j := sb.newJob(0, corpus[0], corpus[0].src)
	var tl tally
	c.drive([]*job{j}, 1, nil, &tl)
	if tl.failed != 0 || tl.attempted != 1 || j.lat <= 0 {
		t.Errorf("one job: %d/%d failed %v, latency %v", tl.failed, tl.attempted, tl.errs, j.lat)
	}
	c.close()
	if err := d.stop(); err != nil {
		t.Fatalf("daemon on SIGTERM: %v", err)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "op", id: 1, start: 0, end: 10 * ms},
		{name: "a", id: 2, parent: 1, start: 1 * ms, end: 3 * ms},
		{name: "b", id: 3, parent: 1, start: 2 * ms, end: 5 * ms},
		{name: "a", id: 4, parent: 1, start: 7 * ms, end: 8 * ms},
		{name: "c", id: 5, parent: 4, start: 7 * ms, end: 12 * ms},
	}
	total, self := layerTimes(spans)
	if total["op"] != 10*ms || self["op"] != 5*ms {
		t.Errorf("op: total %v self %v, want 10ms and 5ms", total["op"], self["op"])
	}
	if total["a"] != 3*ms || self["a"] != 2*ms {
		t.Errorf("a: total %v self %v, want 3ms and 2ms", total["a"], self["a"])
	}
}

func TestHostMeter(t *testing.T) {
	var none *hostMeter
	none.sample()
	if none.due() || none.slowdownAt(time.Now()) != 1 || none.close() != nil {
		t.Error("a nil meter samples")
	}
	m, err := startHostMeter()
	if err != nil {
		t.Fatal(err)
	}
	if !m.due() {
		t.Error("a fresh meter has no sample yet but is not due")
	}
	m.sample()
	m.sample()
	if m.due() || len(m.samples) != 2 || m.slowdownAt(time.Now()) <= 0 {
		t.Errorf("after two samples: due=%v samples=%d slowdown=%v", m.due(), len(m.samples), m.slowdownAt(time.Now()))
	}
	if err := m.close(); err != nil {
		t.Errorf("meter child: %v", err)
	}
}

// TestSlowdownAt checks that an op is scaled by the mean of the samples
// on either side of it.
func TestSlowdownAt(t *testing.T) {
	t0 := time.Now()
	sec := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	m := &hostMeter{samples: []float64{refKernelNs, 3 * refKernelNs}, at: []time.Time{sec(1), sec(3)}}
	for _, c := range []struct {
		at   int
		want float64
	}{{0, 1}, {2, 2}, {3, 3}, {4, 3}} {
		if got, want := m.slowdownAt(sec(c.at)), math.Pow(c.want, hostSensitivity); got != want {
			t.Errorf("slowdown at %ds: %v, want %v", c.at, got, want)
		}
	}
}

func TestKernelAllocatesNothing(t *testing.T) {
	k := newKernel()
	if n := testing.AllocsPerRun(5, func() { refKernel(k.tree, k.envs[0], 20) }); n != 0 {
		t.Errorf("the reference kernel allocates %v times a run", n)
	}
}

// retained keeps the planted heap of TestMeterIgnoresCheckerHeap live.
var retained []*[8]*int

// TestMeterIgnoresCheckerHeap plants a large pointer-rich live heap in
// the checking process, allocated under a low GOGC so that collections
// of it run one after another and one is usually in flight when the
// sample starts, and checks that the meter's samples do not slow down:
// a checker change that keeps more memory or collects more often must
// not be divided away by the scaling.
func TestMeterIgnoresCheckerHeap(t *testing.T) {
	m, err := startHostMeter()
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	// Clean and planted samples alternate, so host drift hits both alike.
	var clean, planted []float64
	for round := 0; round < 12; round++ {
		m.sample()
		clean = append(clean, m.samples[len(m.samples)-1])
		retained = make([]*[8]*int, 1<<19)
		for i := range retained {
			retained[i] = new([8]*int) // 64 B each: 32 MB live
		}
		// Garbage beyond it, so collections follow each other closely.
		for i := 0; i < 1<<18; i++ {
			retained[i%len(retained)] = new([8]*int)
		}
		m.sample()
		planted = append(planted, m.samples[len(m.samples)-1])
		retained = nil
	}
	ratio := quantile(planted, 0.5) / quantile(clean, 0.5)
	t.Logf("median sample: clean %.2f ms, planted heap %.2f ms (ratio %.3f)", quantile(clean, 0.5)/1e6, quantile(planted, 0.5)/1e6, ratio)
	// The host alone moves the ratio by up to 10%; a kernel inside the
	// checking process, with no hold on its collector, read 30-110% slow.
	if ratio > 1.2 {
		t.Errorf("a 32 MB live heap in the checker slows the meter by %.0f%%", (ratio-1)*100)
	}
}
