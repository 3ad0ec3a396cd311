// Command perf is the repository's benchmark. It measures HOME end to
// end on four workloads and, in a traced pass, layer by layer; see
// README.md for the workloads, the metrics and how to compare two
// commits.
//
// From the repository root:
//
//	bash perf/run.sh --workload npb-check --seed 1 --seconds 20 --trace 0
//
// builds the benchmark and runs one workload, printing diagnostics on
// stderr and, as the last line of stdout, one JSON object with the
// keys correct, attempted, failed and metrics. Without --workload it
// runs every workload, each in its own child process, and prints a
// table of every metric.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// defaultSeconds is how long one run measures unless told otherwise;
// BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// runLimit bounds one workload run, set-up and diagnostics included.
const runLimit = 170 * time.Second

func main() {
	if code, ok := roleMain(); ok {
		os.Exit(code)
	}
	os.Exit(run(os.Args[1:]))
}

// roleMain runs the child role PERF_ROLE names, if it names one: the
// benchmark re-executes itself as its serving daemon and its host
// meter.
func roleMain() (int, bool) {
	switch os.Getenv("PERF_ROLE") {
	case daemonRole:
		return daemonMain(), true
	case meterRole:
		return meterMain(), true
	}
	return 0, false
}

func run(args []string) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all, each in a child process)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", defaultSeconds, "how long one run measures")
	traced := fs.Int("trace", 0, "1 = traced pass: per-layer metrics and a Chrome trace")
	traceOut := fs.String("trace-out", "", "Chrome trace JSON path of a traced pass (default: perf-trace-<workload>.json in $PERF_OUT or .bench_build)")
	spreads := fs.Int("spreads", 0, "spread check: run every workload this many times (seeds 1..n), twice over, and record the spreads")
	spreadOut := fs.String("spread-out", "spreads.json", "where the spread check writes its record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) || *spreads < 0 || *spreads == 1 {
		fmt.Fprintln(os.Stderr, "usage: perf [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--trace-out path] [--spreads n --spread-out path]")
		return 2
	}
	if *spreads > 0 {
		return runSpreads(*spreads, *seconds, *spreadOut)
	}
	if *name == "" {
		return runAll(*seed, *seconds, *traced)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perf: unknown workload %q\n", *name)
		return 2
	}
	out := *traceOut
	if out == "" {
		dir := os.Getenv("PERF_OUT")
		if dir == "" {
			dir = ".bench_build"
		}
		out = filepath.Join(dir, fmt.Sprintf("perf-trace-%s.json", w.name))
	}
	// A wedged run must not outlive runLimit; exiting also kills the
	// daemon child (its parent-death signal).
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perf: %s did not finish within %v\n", w.name, runLimit)
		os.Exit(1)
	})
	defer watchdog.Stop()
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, out, fullSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runAll runs every workload in a child process of its own, so each
// reports its own peak memory, and prints every metric by name with
// its unit.
func runAll(seed int64, seconds, traced int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	status := 0
	fmt.Printf("%-14s %-30s %16s %s\n", "workload", "metric", "value", "unit")
	for _, w := range workloads {
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perf: %s: %v\n", w.name, err)
			status = 1
			continue
		}
		var res result
		if err := json.Unmarshal(lastLine(stdout), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perf: %s: bad result: %v\n", w.name, err)
			status = 1
			continue
		}
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := res.Metrics[n]
			fmt.Printf("%-14s %-30s %16.4f %s\n", w.name, n, m.Value, m.Unit)
		}
		fmt.Printf("%-14s %-30s %16d/%d ops failed, correct=%v\n", w.name, "(checks)", res.Failed, res.Attempted, res.Correct)
		if !res.Correct {
			status = 1
		}
	}
	return status
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
