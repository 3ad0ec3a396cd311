package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host meter. On a shared host the CPU's speed changes from one
// second to the next, and every timing of a run changes with it. The
// meter times a reference kernel between the ops of the workload, and
// the benchmark scales each op's time to the speed at which the kernel
// takes refKernelNs, by the samples on either side of the op. The
// kernel is a tiny tree-walking evaluator — node dispatch and
// string-keyed variable lookups, the shape of the checker's
// interpreter — written here and calling nothing of the checker's.
//
// The kernel runs in a child process of its own and allocates nothing,
// so the checker's heap, collector and goroutines cannot slow it down
// or speed it up: while it runs, the checking process waits, with any
// collection in flight finished and the next one held off.

// meterRole is the PERF_ROLE value that makes the benchmark binary (or
// its test binary) serve host-meter samples on stdin/stdout.
const meterRole = "meter"

// refKernelNs is one sample's time on the reference host (2 CPUs,
// otherwise idle); timings are reported at that speed.
const refKernelNs = 3.8e6

// kernelRounds is how many times one kernel run evaluates the tree, and
// kernelRepeats how many runs one sample takes the fastest of: a short
// burst of background work on the host (the checking process's
// sweeper, say) then costs one run, not the sample.
const (
	kernelRounds  = 400
	kernelRepeats = 3
)

type refNode struct {
	op   byte // 'k' constant, 'v' variable, '+', '*', '-'
	k    float64
	name string
	l, r *refNode
}

// refNames are the kernel's variable names.
var refNames = func() (names [16]string) {
	for i := range names {
		names[i] = "v" + strconv.Itoa(i)
	}
	return names
}()

// refTree builds a fixed expression tree of the given depth.
func refTree(depth, i int) *refNode {
	if depth == 0 {
		if i%3 == 0 {
			return &refNode{op: 'k', k: float64(i%7) + 0.5}
		}
		return &refNode{op: 'v', name: refNames[i%16]}
	}
	return &refNode{op: "+*-"[i%3], l: refTree(depth-1, 2*i+1), r: refTree(depth-1, 2*i+2)}
}

func (n *refNode) eval(env map[string]float64) float64 {
	switch n.op {
	case 'k':
		return n.k
	case 'v':
		return env[n.name]
	}
	a, b := n.l.eval(env), n.r.eval(env)
	switch n.op {
	case '+':
		return a + b
	case '*':
		return a * b * 0.5
	}
	return a - b
}

// refKernel resets env's variables, then evaluates the tree rounds
// times, writing each result back into a variable. It allocates
// nothing: env holds every name already.
func refKernel(tree *refNode, env map[string]float64, rounds int) float64 {
	for i, name := range refNames {
		env[name] = float64(i) / 16
	}
	var x float64
	for r := 0; r < rounds; r++ {
		x = tree.eval(env)
		env[refNames[r%16]] = x / (1 + x*x)
	}
	return x
}

// kernel is the meter child's state: the tree and one variable
// environment per CPU.
type kernel struct {
	tree *refNode
	envs []map[string]float64
}

func newKernel() *kernel {
	k := &kernel{tree: refTree(10, 0), envs: make([]map[string]float64, runtime.GOMAXPROCS(0))}
	for i := range k.envs {
		k.envs[i] = map[string]float64{}
		refKernel(k.tree, k.envs[i], 1)
	}
	return k
}

// time runs the kernel on every CPU at once, so a slow core shows, and
// returns the fastest of kernelRepeats runs.
func (k *kernel) time() time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < kernelRepeats; i++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, env := range k.envs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				refKernel(k.tree, env, kernelRounds)
			}()
		}
		wg.Wait()
		best = min(best, time.Since(t0))
	}
	return best
}

// meterMain is the meter child: for every byte read on stdin it times
// the kernel and writes the nanoseconds as a line on stdout. It exits
// 0 at the end of stdin.
func meterMain() int {
	k := newKernel()
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadByte(); err != nil {
			return 0
		}
		if _, err := fmt.Println(k.time().Nanoseconds()); err != nil {
			return 1
		}
	}
}

// hostMeter samples the reference kernel's time from a meter child. A
// nil *hostMeter samples nothing.
type hostMeter struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	samples []float64   // ns
	at      []time.Time // when each sample was taken
	err     error       // the first failed sample; no sample is taken after it
}

// startHostMeter starts the meter child.
func startHostMeter() (*hostMeter, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "PERF_ROLE="+meterRole)
	cmd.Stderr = os.Stderr
	// The meter must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &hostMeter{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// meterEvery is the least time between two samples between the ops of
// a closed loop. The host's speed changes state about once a second.
const meterEvery = 250 * time.Millisecond

// sampleTries bounds how many times sample asks for a sample while this
// process is busy.
const sampleTries = 4

// sample has the child time the kernel once. Meanwhile this process
// does nothing: SetGCPercent(-1) waits for a collection in flight to
// finish and keeps the next from starting until the sample is in. The
// sweeping that follows a collection still runs in the background, so
// a sample during which this process used more than a twentieth of a
// CPU is taken again.
func (h *hostMeter) sample() {
	if h == nil || h.err != nil {
		return
	}
	gogc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gogc)
	var ns float64
	for try := 0; try < sampleTries; try++ {
		c0 := processCPU()
		var err error
		if ns, err = h.ask(); err != nil {
			h.err = fmt.Errorf("host meter: %w", err)
			return
		}
		if busy := processCPU() - c0; float64(busy) <= ns/20 {
			break
		}
	}
	h.samples = append(h.samples, ns)
	h.at = append(h.at, time.Now())
}

// processCPU is the CPU time all of this process's threads have used,
// to the nanosecond.
func processCPU() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// reset forgets the samples taken so far.
func (h *hostMeter) reset() { h.samples, h.at = nil, nil }

func (h *hostMeter) ask() (float64, error) {
	if _, err := h.in.Write([]byte{'s'}); err != nil {
		return 0, err
	}
	line, err := h.out.ReadString('\n')
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(line), 64)
}

// due reports whether meterEvery has passed since the last sample.
func (h *hostMeter) due() bool {
	return h != nil && (len(h.at) == 0 || time.Since(h.at[len(h.at)-1]) >= meterEvery)
}

// hostSensitivity is how strongly the workloads' times follow the
// kernel's: on the reference host an op that ran while the kernel took
// k times refKernelNs took about k^0.75 times as long as at the
// reference speed. Over 11 runs of each workload, exponents of 0.7 to
// 0.8 gave the smallest run-to-run spreads on every workload; 1 gave
// two to four times wider ones (README.md).
const hostSensitivity = 0.75

// slowdownAt is how much slower than at the reference host's speed the
// workload ran at t: the kernel time over the reference time, averaged
// over the last sample before t and the first after it, to the power
// hostSensitivity. The workloads sample only between ops and set-ups,
// so for one that ended at t these bracket it. It is 1 when the meter
// took no sample.
func (h *hostMeter) slowdownAt(t time.Time) float64 {
	if h == nil || len(h.samples) == 0 {
		return 1
	}
	i := sort.Search(len(h.at), func(i int) bool { return h.at[i].After(t) })
	k := 0.0
	switch i {
	case 0:
		k = h.samples[0]
	case len(h.at):
		k = h.samples[i-1]
	default:
		k = (h.samples[i-1] + h.samples[i]) / 2
	}
	return math.Pow(k/refKernelNs, hostSensitivity)
}

// close ends the child and waits for it; it returns the first failed
// sample's error, if any.
func (h *hostMeter) close() error {
	if h == nil {
		return nil
	}
	h.in.Close()
	return errors.Join(h.err, h.cmd.Wait())
}
