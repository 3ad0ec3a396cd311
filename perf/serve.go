package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"home"
	"home/internal/cli"
	"home/internal/faults"
	"home/internal/npb"
	"home/internal/serve"
	"home/internal/spec"
)

// daemonRole is the PERF_ROLE value that makes the benchmark binary
// (or its test binary) run the homeserve daemon instead.
const daemonRole = "daemon"

// daemonMain runs the homeserve daemon on a free local port with two
// workers, one per CPU of the 2-CPU reference host.
func daemonMain() int {
	return cli.HomeServe([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, os.Stdout, os.Stderr)
}

// daemon is a homeserve child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once the child's stderr is at EOF
	mu      sync.Mutex
	tail    []string // last stderr lines, for error messages
}

// startDaemon starts the daemon as a child of this process and waits
// for it to report its address.
func startDaemon() (*daemon, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "PERF_ROLE="+daemonRole)
	// The daemon must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addrs := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if addr, ok := strings.CutPrefix(line, "homeserve: serving on "); ok {
				select {
				case addrs <- addr:
				default:
				}
			}
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 5 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
	}()
	select {
	case d.addr = <-addrs:
		return d, nil
	case <-d.drained:
	case <-time.After(30 * time.Second):
	}
	cmd.Process.Kill()
	<-d.drained
	cmd.Wait()
	return nil, fmt.Errorf("daemon did not start: %s", d.stderrTail())
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// stop sends SIGTERM and waits for the daemon to drain and exit; a
// non-zero exit is an error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() {
		<-d.drained
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("daemon exit: %w (%s)", err, d.stderrTail())
		}
		return nil
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-exited
		return errors.New("daemon did not exit within 60s of SIGTERM")
	}
}

// lane is one keep-alive HTTP connection to a daemon.
type lane struct {
	base string
	hc   *http.Client
}

func newLane(addr string) *lane {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &lane{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (l *lane) close() { l.hc.CloseIdleConnections() }

// do makes one request and returns the status code and body.
func (l *lane) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, l.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := l.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// call makes one request and decodes a 2xx JSON answer into out.
func (l *lane) call(method, path string, body []byte, out any) error {
	status, data, err := l.do(method, path, body)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: %d: %s", method, path, status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (l *lane) submit(body []byte) (st serve.JobStatus, err error) {
	err = l.call("POST", "/jobs", body, &st)
	return st, err
}

func (l *lane) status(id string) (st serve.JobStatus, err error) {
	err = l.call("GET", "/jobs/"+id, nil, &st)
	return st, err
}

// runName is the name of a run on the daemon's telemetry plane: the
// name of the job it runs.
func (l *lane) runName(run string) (string, error) {
	var rs struct {
		Status struct{ Info struct{ Program string } }
	}
	err := l.call("GET", "/runs/"+run+"/stats", nil, &rs)
	return rs.Status.Info.Program, err
}

// reportWait bounds how long a report fetch retries a job the daemon
// has not yet marked finished.
const reportWait = 5 * time.Second

// report fetches a finished job's report. A run's verdict event comes
// just before the daemon marks its job finished, so "not finished"
// (409) is retried; it returns how many times.
func (l *lane) report(id string) (rep serve.Report, retries int, err error) {
	deadline := time.Now().Add(reportWait)
	for {
		status, data, err := l.do("GET", "/jobs/"+id+"/report", nil)
		if err != nil {
			return rep, retries, err
		}
		if status == http.StatusConflict && time.Now().Before(deadline) {
			retries++
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if status != http.StatusOK {
			return rep, retries, fmt.Errorf("job %s: %d: %s", id, status, bytes.TrimSpace(data))
		}
		return rep, retries, json.Unmarshal(data, &rep)
	}
}

func (l *lane) counters() (map[string]int64, error) {
	var snap struct{ Counters map[string]int64 }
	err := l.call("GET", "/stats", nil, &snap)
	return snap.Counters, err
}

// runEvent is a run registration or, with verdict set, a run's verdict,
// from the daemon's event stream.
type runEvent struct {
	verdict bool
	run     string
}

// stream is the daemon's SSE event feed (GET /events), read on a
// connection of its own.
type stream struct {
	body   io.ReadCloser
	events chan runEvent // closed when the feed ends
}

func openStream(addr string) (*stream, error) {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	resp, err := hc.Get("http://" + addr + "/events")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /events: %s", resp.Status)
	}
	// The buffer is large enough that the reader never stalls the feed:
	// the daemon drops events for a subscriber that falls behind.
	s := &stream{body: resp.Body, events: make(chan runEvent, 1<<16)}
	go s.read()
	return s, nil
}

// read forwards the feed's run and verdict events, skipping the rest.
func (s *stream) read() {
	defer close(s.events)
	sc := bufio.NewScanner(s.body)
	sc.Buffer(make([]byte, 64<<10), 16<<20) // a delta event carries a stats snapshot
	typ := ""
	for sc.Scan() {
		line := sc.Bytes()
		if t, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
			typ = string(t)
			continue
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok || (typ != "run" && typ != "verdict") {
			continue
		}
		var ev struct{ Run string }
		if json.Unmarshal(data, &ev) == nil {
			s.events <- runEvent{verdict: typ == "verdict", run: ev.Run}
		}
	}
}

// close ends the feed and waits for the reader.
func (s *stream) close() {
	s.body.Close()
	for range s.events {
	}
}

// client is the load generator. Requests go over one keep-alive
// connection, and the daemon's event stream, on a second, says when
// each job's run has finished: every job is named, and the daemon
// labels the job's run with that name.
type client struct {
	lane     *lane
	stream   *stream
	byName   map[string]*job // submitted; its run not yet seen
	byRun    map[string]*job // its run seen; no verdict yet
	late     []float64       // how late each submission was sent, ns
	retries  int             // report fetches that found the job unfinished
	rescued  int             // jobs finished by polling: the stream lost their events
	finished int             // jobs finished
}

func newClient(addr string) (*client, error) {
	s, err := openStream(addr)
	if err != nil {
		return nil, err
	}
	return &client{lane: newLane(addr), stream: s, byName: map[string]*job{}, byRun: map[string]*job{}}, nil
}

func (c *client) close() {
	c.stream.close()
	c.lane.close()
}

// job is one submission of the load generator.
type job struct {
	due    time.Duration // when it is due, from the start of its stretch
	prog   *serveProg    // what the report must say; nil: only that the job succeeded
	name   string        // unique among unfinished jobs
	body   []byte        // the JSON request, named
	op     int           // the job's op id
	parent int           // span the job's span belongs under (0: the job is an op)
	id     string        // the daemon's job id
	root   int           // the job's span
	sent   time.Duration // when submitted
	submit time.Duration // the submission's round trip
	lat    time.Duration // from due until the report arrived
}

// newJob makes a job of a request, naming it.
func newJob(name string, op int, due time.Duration, p *serveProg, req serve.JobRequest) *job {
	req.Name = name
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return &job{due: due, prog: p, name: name, body: body, op: op}
}

// stallAfter is how long a job may go without its verdict before the
// client polls its status, in case the stream lost an event.
const stallAfter = 2 * time.Second

// drive submits the jobs as they fall due, keeping at most inflight
// unfinished (0: no limit), and finishes each when the stream reports
// its run's verdict: it fetches and checks the report. A job's latency
// runs from when it was due until its report arrived, so a stalled
// generator is charged to the jobs it delays.
func (c *client) drive(pending []*job, inflight int, tr *tracer, t *tally) {
	start := time.Now()
	for len(pending) > 0 || len(c.byName)+len(c.byRun) > 0 {
		now := time.Since(start)
		open := inflight == 0 || len(c.byName)+len(c.byRun) < inflight
		if len(pending) > 0 && open && pending[0].due <= now {
			j := pending[0]
			pending = pending[1:]
			c.late = append(c.late, float64((now - j.due).Nanoseconds()))
			c.send(start, j, tr, t)
			continue
		}
		wait := stallAfter / 4
		if len(pending) > 0 && open {
			wait = min(wait, pending[0].due-now)
		}
		timer := time.NewTimer(wait)
		select {
		case ev, ok := <-c.stream.events:
			timer.Stop()
			if !ok {
				c.abandon(errors.New("event stream ended"), tr, t)
				return
			}
			c.handle(start, ev, tr, t)
		case <-timer.C:
			c.rescue(start, tr, t)
		}
	}
}

// send submits one job.
func (c *client) send(start time.Time, j *job, tr *tracer, t *tally) {
	name := "op"
	if j.parent != 0 {
		name = "serve.job"
	}
	j.root = tr.begin(name, j.op, j.parent)
	s := tr.begin("serve.submit", j.op, j.root)
	t0 := time.Now()
	st, err := c.lane.submit(j.body)
	j.submit = time.Since(t0)
	tr.end(s)
	if err != nil {
		tr.end(j.root)
		t.add(0, 0, err)
		return
	}
	j.id, j.sent = st.ID, time.Since(start)
	c.byName[j.name] = j
}

// handle books a run registration against its job, or finishes the job
// a verdict is for. Events of other runs are ignored.
func (c *client) handle(start time.Time, ev runEvent, tr *tracer, t *tally) {
	if ev.verdict {
		if j := c.byRun[ev.run]; j != nil {
			delete(c.byRun, ev.run)
			c.finish(start, j, tr, t)
		}
		return
	}
	if len(c.byName) == 0 {
		return
	}
	t0 := time.Now()
	name, err := c.lane.runName(ev.run)
	if j := c.byName[name]; err == nil && j != nil {
		delete(c.byName, name)
		c.byRun[ev.run] = j
		tr.since("serve.run_lookup", j.op, j.root, t0)
	}
}

// finish fetches a finished job's report and checks it.
func (c *client) finish(start time.Time, j *job, tr *tracer, t *tally) {
	s := tr.begin("serve.report", j.op, j.root)
	rep, retries, err := c.lane.report(j.id)
	j.lat = time.Since(start) - j.due
	tr.end(s)
	tr.end(j.root)
	c.retries += retries
	c.finished++
	if err == nil && j.prog != nil {
		err = checkServed(j.prog, j.id, rep)
	}
	if err == nil && j.prog != nil {
		t.makespan(j.prog.cfg.name, rep.MakespanNs)
	}
	t.add(j.lat, rep.EventsAnalyzed, err)
}

// rescue polls the jobs that have waited stallAfter for their verdict
// and finishes those the daemon has finished.
func (c *client) rescue(start time.Time, tr *tracer, t *tally) {
	for _, m := range []map[string]*job{c.byName, c.byRun} {
		for k, j := range m {
			if time.Since(start)-j.sent < stallAfter {
				continue
			}
			st, err := c.lane.status(j.id)
			if err == nil && !terminal(st.State) {
				continue
			}
			delete(m, k)
			c.rescued++
			c.finish(start, j, tr, t)
		}
	}
}

// abandon fails every unfinished job.
func (c *client) abandon(err error, tr *tracer, t *tally) {
	for _, m := range []map[string]*job{c.byName, c.byRun} {
		for k, j := range m {
			delete(m, k)
			tr.end(j.root)
			t.add(0, 0, fmt.Errorf("job %s: %w", j.id, err))
		}
	}
}

func terminal(state string) bool {
	return state == serve.StateDone || state == serve.StateFailed || state == serve.StateBudgetExceeded
}

// serveProg is one program of the serving mix.
type serveProg struct {
	cfg  config
	src  string
	want []string // the violation kinds its report must name, sorted
}

// checkServed checks a finished job's report: the run neither failed
// nor deadlocked, and the report names exactly the program's violation
// kinds.
func checkServed(p *serveProg, id string, rep serve.Report) error {
	if len(rep.RunErrors) > 0 || rep.Deadlocked {
		return fmt.Errorf("job %s: run errors %v, deadlocked %v", id, rep.RunErrors, rep.Deadlocked)
	}
	kinds := map[string]bool{}
	for _, v := range rep.Violations {
		kinds[strings.SplitN(v, " on rank ", 2)[0]] = true
	}
	got := make([]string, 0, len(kinds))
	for k := range kinds {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(p.want, ",") {
		return fmt.Errorf("job %s (%s): violation kinds %v, want %v", id, p.cfg.name, got, p.want)
	}
	return nil
}

// serveMix builds the serving mix: the six corpus programs at 2 and 4
// processes, and the three injected NPB-MZ benchmarks at class W and 4
// processes.
func serveMix(seed int64) (corpus, heavy []*serveProg, err error) {
	for _, kind := range spec.AllKinds() {
		src := faults.Program(kind)
		comp, err := home.Compile(src)
		if err != nil {
			return nil, nil, err
		}
		for _, procs := range []int{2, 4} {
			corpus = append(corpus, &serveProg{
				cfg:  config{name: fmt.Sprintf("%v/p%d", kind, procs), comp: comp, opts: home.Options{Procs: procs, Threads: 2, Seed: seed}},
				src:  src,
				want: []string{kind.String()},
			})
		}
	}
	var all []string
	for _, k := range spec.AllKinds() {
		all = append(all, k.String())
	}
	sort.Strings(all)
	for _, b := range npb.All() {
		o := npb.PaperInjections(b)
		o.Class = 'W'
		src := npb.Generate(b, o).Text
		comp, err := home.Compile(src)
		if err != nil {
			return nil, nil, err
		}
		heavy = append(heavy, &serveProg{
			cfg:  config{name: fmt.Sprintf("%v/W/p4", b), comp: comp, opts: home.Options{Procs: 4, Threads: 2, Seed: seed}},
			src:  src,
			want: all,
		})
	}
	return corpus, heavy, nil
}

// serveBench is serve-mixed: an open loop of seeded Poisson arrivals to
// a homeserve child.
type serveBench struct {
	seed          int64
	rate          float64
	rng           *rand.Rand
	corpus, heavy []*serveProg
	d             *daemon
	c             *client
	uniq          int // unique-comment submissions so far
	ids           int
	jobs          int
	before, after map[string]int64 // daemon counters around the last measure
}

// setupServe starts the daemon and warms it: every mix program once,
// then cheap corpus jobs past the daemon's job-retention cap, two at a
// time (one per worker).
func setupServe(seed int64, sz sizes) (bench, error) {
	corpus, heavy, err := serveMix(seed)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	c, err := newClient(d.addr)
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	b := &serveBench{seed: seed, rate: sz.serveRate, rng: rand.New(rand.NewSource(seed)), corpus: corpus, heavy: heavy, d: d, c: c}
	var warm []*job
	for _, p := range append(append([]*serveProg(nil), corpus...), heavy...) {
		warm = append(warm, b.newJob(0, p, p.src))
	}
	for i := 0; i < sz.serveWarm; i++ {
		warm = append(warm, b.newJob(0, corpus[0], corpus[0].src))
	}
	var t tally
	c.drive(warm, 2, nil, &t)
	if t.failed > 0 {
		return nil, errors.Join(fmt.Errorf("warm-up: %d/%d jobs failed: %v", t.failed, t.attempted, t.errs), b.close())
	}
	return b, nil
}

// newJob prepares a submission of src (p's source, possibly with a
// unique trailing comment).
func (b *serveBench) newJob(due time.Duration, p *serveProg, src string) *job {
	b.ids++
	req := serve.JobRequest{Program: src, Procs: p.cfg.opts.Procs, Threads: 2, Seed: b.seed}
	return newJob("perf-"+strconv.Itoa(b.ids), b.ids, due, p, req)
}

// arrivals draws the jobs due in the next d: Poisson arrivals at the
// offered rate; 80% corpus programs, 20% NPB-MZ; a quarter carry a
// unique trailing comment, so the daemon must parse and plan them
// (cache misses), while the rest are byte-identical resubmissions
// (cache hits). The mix is a design point: there is no record of served
// traffic to take it from.
func (b *serveBench) arrivals(d time.Duration) []*job {
	var js []*job
	at := 0.0
	for {
		at += b.rng.ExpFloat64() / b.rate
		if at >= d.Seconds() {
			return js
		}
		var p *serveProg
		if b.rng.Float64() < 0.8 {
			p = b.corpus[b.rng.Intn(len(b.corpus))]
		} else {
			p = b.heavy[b.rng.Intn(len(b.heavy))]
		}
		src := p.src
		if b.rng.Float64() < 0.25 {
			b.uniq++
			src += fmt.Sprintf("\n/* perf %d-%d */\n", b.seed, b.uniq)
		}
		js = append(js, b.newJob(time.Duration(at*1e9), p, src))
	}
}

// serveChunk is the length of one open-loop stretch. Between stretches
// the daemon is idle, and the host meter takes its samples then.
const serveChunk = 500 * time.Millisecond

// measure runs the open loop, a serveChunk at a time.
func (b *serveBench) measure(d time.Duration, tr *tracer, t *tally, m *hostMeter) {
	b.c.late, b.c.retries, b.c.rescued, b.c.finished = nil, 0, 0, 0
	b.before, _ = b.c.lane.counters()
	m.sample()
	for left := d; left > 0; left -= serveChunk {
		js := b.arrivals(min(left, serveChunk))
		b.jobs += len(js)
		b.c.drive(js, 0, tr, t)
		m.sample()
	}
	b.after, _ = b.c.lane.counters()
}

func (b *serveBench) configs() []config {
	var out []config
	for _, p := range append(append([]*serveProg(nil), b.corpus...), b.heavy...) {
		out = append(out, p.cfg)
	}
	return out
}

func (b *serveBench) cpu() time.Duration {
	c, err := procCPU(b.d.cmd.Process.Pid)
	if err != nil {
		return 0
	}
	return c
}

func (b *serveBench) rss() (int64, error) { return peakRSS(strconv.Itoa(b.d.cmd.Process.Pid)) }

// diagnose reports how the load generator kept to its schedule and the
// daemon's own counters over the last measured stretch.
func (b *serveBench) diagnose() {
	c := b.c
	if c.finished == 0 {
		return
	}
	delta := func(name string) int64 { return b.after[name] - b.before[name] }
	hits, misses := delta("serve.cache_hits"), delta("serve.cache_misses")
	fmt.Fprintf(os.Stderr, "perf: serve-mixed: %.0f jobs/s offered; loadgen.late_ms.p99=%.3f loadgen.report_retries_per_job=%.3f loadgen.rescued_jobs=%d\n",
		b.rate, quantile(c.late, 0.99)/1e6, float64(c.retries)/float64(c.finished), c.rescued)
	fmt.Fprintf(os.Stderr, "perf: serve-mixed: serve.cache_hit_ratio=%.3f serve.jobs_rejected=%d serve.jobs_failed=%d serve.jobs_budget_exceeded=%d\n",
		float64(hits)/float64(max(1, hits+misses)), delta("serve.jobs_rejected"), delta("serve.jobs_failed"), delta("serve.jobs_budget_exceeded"))
}

func (b *serveBench) close() error {
	b.c.close()
	return b.d.stop()
}
