package harness

// Perf baseline: a canonical, schema-versioned measurement of the
// checker over the NPB workloads, committed as BENCH_NPB.json so
// every perf PR has a number to beat. Virtual metrics (makespan,
// events, clock-comparison and join counts) are properties of the
// simulation and gate the comparison under a relative tolerance;
// wall-clock metrics (wallNs, events/sec) depend on the host and ride
// along advisory-only — they chart the trajectory without failing CI
// on machine variance.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"home"
	"home/internal/npb"
)

// Bench wire format constants.
//
// Schema history:
//
//	2  detector counters keyed by their registry names
//	   (detect.vc_comparisons, detect.vc_joins), so a baseline row and
//	   the stats snapshot it came from agree on spelling
const (
	BenchFormat = "home-bench"
	BenchSchema = 2
)

// BenchWorkload is one (benchmark, procs) measurement.
type BenchWorkload struct {
	Benchmark string `json:"benchmark"`
	Procs     int    `json:"procs"`

	// Gated metrics: deterministic functions of the simulation. The
	// counter fields carry their obs registry names.
	MakespanNs    int64 `json:"makespanNs"`
	Events        int   `json:"events"`
	VCComparisons int64 `json:"detect.vc_comparisons"`
	VCJoins       int64 `json:"detect.vc_joins"`

	// Advisory metrics: host-dependent, never gate the comparison.
	WallNs       int64   `json:"wallNs"`
	EventsPerSec float64 `json:"eventsPerSec"`
}

// BenchBaseline is the committed perf baseline. The config header
// pins the measurement conditions; a comparison re-runs under the
// baseline's own header so the workloads match one-to-one.
type BenchBaseline struct {
	Format  string `json:"format"`
	Schema  int    `json:"schema"`
	Class   string `json:"class"`
	Seed    int64  `json:"seed"`
	Threads int    `json:"threads"`
	Procs   []int  `json:"procs"`

	Workloads []BenchWorkload `json:"workloads"`
	// PeakVCComparisons is the largest per-workload clock-comparison
	// count — the detector hot-spot headline.
	PeakVCComparisons int64 `json:"peakVcComparisons"`
	TotalEvents       int   `json:"totalEvents"`
}

// DefaultBenchConfig is the canonical baseline configuration: small
// enough for CI, large enough that the detector counters are in the
// thousands.
func DefaultBenchConfig() Config {
	return Config{Class: 'W', Procs: []int{2, 4, 8}, TableProcs: 4, Seed: 3, Threads: 2, CollectStats: true}
}

// BenchConfig reconstructs the measurement config from a baseline's
// header, so -compare reproduces the committed conditions exactly.
func (b *BenchBaseline) BenchConfig() Config {
	cfg := DefaultBenchConfig()
	if len(b.Class) == 1 {
		cfg.Class = npb.Class(b.Class[0])
	}
	cfg.Seed = b.Seed
	if b.Threads != 0 {
		cfg.Threads = b.Threads
	}
	if len(b.Procs) != 0 {
		cfg.Procs = append([]int(nil), b.Procs...)
	}
	return cfg
}

// RunBench measures the NPB workload matrix (every benchmark at every
// cfg.Procs count, with the paper's injected violations) and returns
// a fresh baseline.
func RunBench(cfg Config) (*BenchBaseline, error) {
	cfg = cfg.withDefaults()
	cfg.CollectStats = true
	out := &BenchBaseline{
		Format: BenchFormat, Schema: BenchSchema,
		Class: string(rune(cfg.Class)), Seed: cfg.Seed, Threads: cfg.Threads,
		Procs: append([]int(nil), cfg.Procs...),
	}
	for _, bench := range npb.All() {
		o := npb.PaperInjections(bench)
		o.Class = cfg.Class
		src := npb.Generate(bench, o)
		comp, err := cfg.compileSource(src.Text)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", bench, err)
		}
		for _, procs := range cfg.Procs {
			start := time.Now()
			rep, err := home.CheckCompiled(comp, cfg.homeOptions(procs))
			if err != nil {
				return nil, fmt.Errorf("%v procs=%d: %w", bench, procs, err)
			}
			wall := time.Since(start).Nanoseconds()
			w := BenchWorkload{
				Benchmark:  bench.String(),
				Procs:      procs,
				MakespanNs: rep.Makespan,
				Events:     rep.EventsAnalyzed,
				WallNs:     wall,
			}
			if rep.Stats != nil {
				w.VCComparisons = rep.Stats.Get("detect.vc_comparisons")
				w.VCJoins = rep.Stats.Get("detect.vc_joins")
			}
			if wall > 0 {
				w.EventsPerSec = float64(w.Events) / (float64(wall) / 1e9)
			}
			if w.VCComparisons > out.PeakVCComparisons {
				out.PeakVCComparisons = w.VCComparisons
			}
			out.TotalEvents += w.Events
			out.Workloads = append(out.Workloads, w)
		}
	}
	return out, nil
}

// CompareBench checks a fresh measurement against a baseline: every
// baseline workload must be present, and every gated metric must stay
// within the relative tolerance. Returns the list of regressions
// (empty = within tolerance). Wall-clock fields never appear here.
func CompareBench(base, fresh *BenchBaseline, tolerance float64) []string {
	var fails []string
	index := map[string]BenchWorkload{}
	for _, w := range fresh.Workloads {
		index[w.Benchmark+"/"+fmt.Sprint(w.Procs)] = w
	}
	for _, bw := range base.Workloads {
		key := bw.Benchmark + "/" + fmt.Sprint(bw.Procs)
		fw, ok := index[key]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: missing from fresh measurement", key))
			continue
		}
		check := func(metric string, baseV, freshV int64) {
			if outsideTolerance(baseV, freshV, tolerance) {
				fails = append(fails, fmt.Sprintf("%s: %s drifted beyond %.1f%%: baseline %d, fresh %d",
					key, metric, 100*tolerance, baseV, freshV))
			}
		}
		check("makespanNs", bw.MakespanNs, fw.MakespanNs)
		check("events", int64(bw.Events), int64(fw.Events))
		check("detect.vc_comparisons", bw.VCComparisons, fw.VCComparisons)
		check("detect.vc_joins", bw.VCJoins, fw.VCJoins)
	}
	if len(base.Workloads) != len(fresh.Workloads) {
		fails = append(fails, fmt.Sprintf("workload count: baseline %d, fresh %d",
			len(base.Workloads), len(fresh.Workloads)))
	}
	return fails
}

// outsideTolerance reports whether fresh drifted from base by more
// than the relative tolerance (absolute when base is 0).
func outsideTolerance(base, fresh int64, tol float64) bool {
	if base == fresh {
		return false
	}
	if base == 0 {
		return fresh != 0
	}
	return math.Abs(float64(fresh-base))/math.Abs(float64(base)) > tol
}

// WriteBenchFile serializes a baseline with stable indentation (the
// committed artifact must diff cleanly).
func WriteBenchFile(path string, b *BenchBaseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchFile parses a baseline file.
func ReadBenchFile(path string) (*BenchBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b BenchBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("harness: bad bench baseline %s: %w", path, err)
	}
	if b.Format != BenchFormat {
		return nil, fmt.Errorf("harness: %s is not a bench baseline (format %q)", path, b.Format)
	}
	if b.Schema != BenchSchema {
		return nil, fmt.Errorf("harness: bench schema %d is not the supported %d", b.Schema, BenchSchema)
	}
	return &b, nil
}

// RenderBenchRatios summarizes how a fresh measurement moved against a
// baseline on the detector counters: baseline/fresh per workload (>1 is
// an improvement). Advisory context for -compare output — the
// tolerance gate, not the ratio, decides pass/fail.
func RenderBenchRatios(base, fresh *BenchBaseline) string {
	index := map[string]BenchWorkload{}
	for _, w := range fresh.Workloads {
		index[w.Benchmark+"/"+fmt.Sprint(w.Procs)] = w
	}
	ratio := func(b, f int64) string {
		if b == f {
			return "1.00x"
		}
		if f == 0 {
			return "inf"
		}
		return fmt.Sprintf("%.2fx", float64(b)/float64(f))
	}
	out := fmt.Sprintf("%-12s %18s %18s\n", "workload", "vc-compare ratio", "vc-join ratio")
	for _, bw := range base.Workloads {
		key := bw.Benchmark + "/" + fmt.Sprint(bw.Procs)
		fw, ok := index[key]
		if !ok {
			continue
		}
		out += fmt.Sprintf("%-12s %18s %18s\n",
			key, ratio(bw.VCComparisons, fw.VCComparisons), ratio(bw.VCJoins, fw.VCJoins))
	}
	return out
}

// RenderBench summarizes a baseline for terminal output.
func RenderBench(b *BenchBaseline) string {
	out := fmt.Sprintf("NPB bench (class %s, seed %d, %d threads)\n", b.Class, b.Seed, b.Threads)
	out += fmt.Sprintf("%-6s %6s %14s %10s %14s %10s %14s\n",
		"bench", "procs", "makespan(ms)", "events", "vc compares", "vc joins", "events/sec")
	for _, w := range b.Workloads {
		out += fmt.Sprintf("%-6s %6d %14.3f %10d %14d %10d %14.0f\n",
			w.Benchmark, w.Procs, millis(w.MakespanNs), w.Events, w.VCComparisons, w.VCJoins, w.EventsPerSec)
	}
	out += fmt.Sprintf("peak vc comparisons: %d; total events: %d\n", b.PeakVCComparisons, b.TotalEvents)
	return out
}
