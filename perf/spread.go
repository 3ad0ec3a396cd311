package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// The spread check. A regression bound only means something when the
// benchmark's own run-to-run noise is well inside it, so each bound in
// BENCHMARK.json is derived from measured spreads: -spreads N runs
// every workload N times, each with another seed, twice over, and
// records per metric and workload the median and the quartile spread
// (the distance between the first and third quartile over the median).
// perf_test.go checks BENCHMARK.json's bounds against the record.

// spreadRecord is what spreads.json holds.
type spreadRecord struct {
	RunSeconds int `json:"run_seconds"`
	Runs       int `json:"runs"` // per workload and set, seeds 1..Runs
	// Sets are the two sets of runs: workload -> metric -> stats.
	Sets []map[string]map[string]spreadStat `json:"sets"`
}

type spreadStat struct {
	Median float64   `json:"median"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"` // by seed
}

// quartiles are the first and third quartile of xs, as Python's
// statistics.quantiles(xs, n=4) gives them (its default, exclusive
// method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadOf is the quartile spread of xs over its median.
func spreadOf(xs []float64) spreadStat {
	q1, q3 := quartiles(xs)
	med := quantile(xs, 0.5)
	return spreadStat{Median: med, Spread: (q3 - q1) / med, Values: xs}
}

// boundFor is the regression bound the spreads of a metric call for: 3
// times its largest spread, rounded up to a multiple of 0.05, at least
// 0.10 and at most 0.25, the widest a bound may be. A bound narrower
// than three spreads flags a run-to-run wobble as a regression; one
// wider lets a real regression through.
func boundFor(maxSpread float64) float64 {
	b := math.Ceil(3*maxSpread*20-1e-9) / 20
	return math.Min(math.Max(b, 0.10), 0.25)
}

// runSpreads runs the spread check and writes the record to out.
func runSpreads(runs, seconds int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	rec := spreadRecord{RunSeconds: seconds, Runs: runs}
	for set := 0; set < 2; set++ {
		vals := map[string]map[string][]float64{}
		for seed := 1; seed <= runs; seed++ {
			for _, w := range workloads {
				cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.Itoa(seed),
					"--seconds", strconv.Itoa(seconds), "--trace", "0")
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				stdout, err := cmd.Output()
				var res result
				if err == nil {
					err = json.Unmarshal(lastLine(stdout), &res)
				}
				if err == nil && !res.Correct {
					err = fmt.Errorf("%d/%d ops failed", res.Failed, res.Attempted)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "perf: set %d %s seed %d: %v\n%s", set+1, w.name, seed, err, stderr.Bytes())
					return 1
				}
				if vals[w.name] == nil {
					vals[w.name] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					vals[w.name][name] = append(vals[w.name][name], m.Value)
				}
				// The run's host-speed line, for the log.
				for _, line := range bytes.Split(stderr.Bytes(), []byte("\n")) {
					if bytes.Contains(line, []byte("reference speed")) {
						fmt.Fprintf(os.Stderr, "set %d seed %d %s\n", set+1, seed, line)
					}
				}
			}
		}
		stats := map[string]map[string]spreadStat{}
		for wl, byMetric := range vals {
			stats[wl] = map[string]spreadStat{}
			for name, xs := range byMetric {
				stats[wl][name] = spreadOf(xs)
			}
		}
		rec.Sets = append(rec.Sets, stats)
	}
	printSpreads(rec)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	return 0
}

// printSpreads prints each end-to-end metric's spreads per workload and
// set, and the bound they call for.
func printSpreads(rec spreadRecord) {
	fmt.Printf("%-14s %-14s %s\n", "metric", "workload", "median / spread per set")
	for _, d := range endToEnd {
		worst := 0.0
		for _, w := range workloads {
			fmt.Printf("%-14s %-14s", d.name, w.name)
			for _, set := range rec.Sets {
				s := set[w.name][d.name]
				worst = math.Max(worst, s.Spread)
				fmt.Printf("  %12.4f / %.3f", s.Median, s.Spread)
			}
			fmt.Println()
		}
		fmt.Printf("%-14s %-14s largest spread %.3f: bound %.2f\n", d.name, "", worst, boundFor(worst))
	}
}
