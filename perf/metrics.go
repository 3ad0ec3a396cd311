package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// exactly these names and units; perf_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload.
// An "op" is the workload's unit of user-visible work: one NPB check,
// one figure point, one served job, one schedule replay.
var endToEnd = []metricDef{
	{"op_ms.p50", "ms"},
	{"op_ms.p90", "ms"},
	{"events_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports on every workload. The
// ledger measures each layer in isolation on the workload's distinct
// configurations (see ledger.go); values are means per configuration.
var perLayer = []metricDef{
	{"minic.parse_us", "us"},
	{"minic.sema_us", "us"},
	{"static.plan_us", "us"},
	{"home.execute_ms", "ms"},
	{"home.analyze_ms", "ms"},
	{"home.match_ms", "ms"},
	{"interp.run_ms", "ms"},
	{"interp.ns_per_stmt", "ns"},
	{"interp.statements", "count"},
	{"mpi.sends", "count"},
	{"mpi.collective_rounds", "count"},
	{"omp.parallel_regions", "count"},
	{"omp.lock_acquires", "count"},
	{"trace.emit_ms", "ms"},
	{"trace.events", "count"},
	{"detect.analyze_ms", "ms"},
	{"detect.ns_per_event", "ns"},
	{"detect.online_ms", "ms"},
	{"detect.itc_analyze_ms", "ms"},
	{"detect.vc_comparisons", "count"},
	{"detect.vc_joins", "count"},
	{"detect.epoch_hits", "count"},
	{"detect.epoch_hit_ratio", "ratio"},
	{"detect.confirmed_races", "count"},
	{"spec.match_ms", "ms"},
	{"baseline.base_ms", "ms"},
	{"baseline.home_ms", "ms"},
	{"baseline.marmot_ms", "ms"},
	{"baseline.itc_ms", "ms"},
	{"sched.decode_us.jsonl", "us"},
	{"sched.decode_us.v3", "us"},
	{"sched.bytes_jsonl", "bytes"},
	{"sched.bytes_v3", "bytes"},
	{"sched.decode_errors", "count"},
	{"sched.replay_forced", "count"},
	{"replay.report_identity_ratio", "ratio"},
	{"serve.submit_ms.miss", "ms"},
	{"serve.submit_ms.hit", "ms"},
	{"serve.overhead_ms", "ms"},
	{"sim.makespan_spread", "ratio"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_per_op", "count"},
	{"proc.cpu_util", "ratio"},
	{"trace_overhead", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill copies the named values into r.Metrics with the units of defs.
// A value defs names but vals lacks is a bug in the benchmark.
func (r *result) fill(defs []metricDef, vals map[string]float64) error {
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return nil
}

// tally accumulates the ops of one measured stretch.
type tally struct {
	lat       []float64   // latency of each successful op, ns
	ends      []time.Time // when each successful op ended
	events    int64       // instrumentation events the successful ops analyzed
	attempted int
	failed    int
	errs      []string // the first few failure messages

	// span of virtual makespans per configuration key, for determinism
	mkMin, mkMax map[string]int64
}

// add records one op, which ended just now. A failed op (error,
// refusal or wrong verdict) counts in failed and contributes no latency
// sample.
func (t *tally) add(lat time.Duration, events int, err error) {
	if t.count(err) != nil {
		return
	}
	t.lat = append(t.lat, float64(lat.Nanoseconds()))
	t.ends = append(t.ends, time.Now())
	t.events += int64(events)
}

// count records an attempted op that has no latency sample of its own
// (a ledger configuration) and returns err.
func (t *tally) count(err error) error {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
	return err
}

// makespan records one run's virtual makespan under its config key.
func (t *tally) makespan(key string, ns int64) {
	if t.mkMin == nil {
		t.mkMin, t.mkMax = map[string]int64{}, map[string]int64{}
	}
	if lo, ok := t.mkMin[key]; !ok || ns < lo {
		t.mkMin[key] = ns
	}
	if ns > t.mkMax[key] {
		t.mkMax[key] = ns
	}
}

// makespanSpread is the largest relative spread of one configuration's
// virtual makespan across its runs: 0 when every rerun was exact.
func (t *tally) makespanSpread() float64 {
	worst := 0.0
	for k, lo := range t.mkMin {
		if lo > 0 {
			worst = math.Max(worst, float64(t.mkMax[k]-lo)/float64(lo))
		}
	}
	return worst
}

// merge folds o into t.
func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.ends = append(t.ends, o.ends...)
	t.events += o.events
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
	for k, lo := range o.mkMin {
		t.makespan(k, lo)
		t.makespan(k, o.mkMax[k])
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// sum adds xs.
func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// selfCPU is the CPU time (user + system) this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU is the CPU time (user + system) process pid has used.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS returns the VmHWM of process pid ("self" for this one) in
// bytes.
func peakRSS(pid string) (int64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) < 2 {
				break
			}
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
