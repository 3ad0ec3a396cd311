package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"home"
	"home/internal/detect"
	"home/internal/explore"
	"home/internal/obs"
	"home/internal/obs/live"
)

// Config sizes the daemon. Zero values take the defaults below.
type Config struct {
	// Workers is the check worker pool size (default GOMAXPROCS).
	Workers int
	// CacheEntries bounds the compiled-program artifact cache
	// (default DefaultCacheEntries).
	CacheEntries int
	// QueueDepth bounds the pending-job queue; submissions past it are
	// rejected 503 rather than buffered without bound (default 64).
	QueueDepth int
	// DefaultTimeout is the per-job wall-clock watchdog applied when a
	// submission names none (default 30s). A job exceeding its watchdog
	// reports state budget-exceeded; the abandoned run's goroutine
	// winds down on its own virtual budget.
	DefaultTimeout time.Duration
	// DefaultMaxSteps is the per-job virtual statement budget applied
	// when a submission names none (0 = the interpreter default).
	DefaultMaxSteps int64
	// MaxProcs/MaxThreads bound what a submission may ask the simulated
	// cluster for (defaults 64 and 16); bigger asks are rejected 400.
	MaxProcs   int
	MaxThreads int
}

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxProcs <= 0 {
		c.MaxProcs = 64
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = 16
	}
	return c
}

// JobRequest is the POST /jobs submission body. Program is required;
// everything else defaults like the homecheck CLI.
type JobRequest struct {
	// Program is the MiniHPC source text to check.
	Program string `json:"program"`
	// Name labels the job's run on the telemetry plane (default: the
	// job id), the SSE correlation key.
	Name    string `json:"name,omitempty"`
	Procs   int    `json:"procs,omitempty"`
	Threads int    `json:"threads,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	// Mode is "", "combined", "lockset" or "hb".
	Mode string `json:"mode,omitempty"`
	// InstrumentAll disables the static error-free-region filter;
	// Interprocedural follows user calls out of parallel regions.
	InstrumentAll   bool `json:"instrumentAll,omitempty"`
	Interprocedural bool `json:"interprocedural,omitempty"`
	// Explain extracts causal witnesses for each violation.
	Explain bool `json:"explain,omitempty"`
	// Chaos is a fault-injection plan in the CLI -chaos syntax, e.g.
	// "seed=3" or "seed=3,crash=1@5".
	Chaos string `json:"chaos,omitempty"`
	// MaxSteps overrides the server's default virtual statement budget.
	MaxSteps int64 `json:"maxSteps,omitempty"`
	// TimeoutMs overrides the server's default wall-clock watchdog.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// Job states.
const (
	StateQueued         = "queued"
	StateRunning        = "running"
	StateDone           = "done"
	StateFailed         = "failed"
	StateBudgetExceeded = "budget-exceeded"
)

// Job is one accepted submission.
type Job struct {
	mu       sync.Mutex
	id       string
	name     string
	hash     string
	cacheHit bool
	state    string
	verdict  string
	errMsg   string
	report   []byte

	comp    *home.Compiled // until the job has run
	opts    home.Options
	timeout time.Duration
}

// JobStatus is the introspection view of a job — GET /jobs serves one
// per submission.
type JobStatus struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// Hash is the program's cache key (home.Compiled.Hash).
	Hash string `json:"hash"`
	// CacheHit reports that submission found the compiled artifacts
	// resident — the job skips parse/sema/instrument entirely.
	CacheHit bool   `json:"cacheHit"`
	State    string `json:"state"`
	// Verdict is the report verdict once done ("budget-exceeded" when
	// the wall-clock watchdog expired first).
	Verdict string `json:"verdict,omitempty"`
	// Error carries the failure message for state failed.
	Error string `json:"error,omitempty"`
}

// status snapshots the job under its lock.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:       j.id,
		Name:     j.name,
		Hash:     j.hash,
		CacheHit: j.cacheHit,
		State:    j.state,
		Verdict:  j.verdict,
		Error:    j.errMsg,
	}
}

// Server is the homeserve daemon.
type Server struct {
	cfg   Config
	plane *live.Plane
	cache *Cache
	stats *obs.Registry

	ln  net.Listener
	srv *http.Server

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	queue  chan *Job
	closed bool
	seq    int64

	workers sync.WaitGroup
}

// StatNames is the daemon's counter inventory, pre-registered so
// GET /stats always serves the full set, zeros included. Documented in
// docs/OBSERVABILITY.md ("homeserve counters"), drift-gated by
// internal/serve/doc_test.go.
//
//	serve.cache_hits            submissions that found compiled artifacts resident
//	serve.cache_misses          submissions that had to compile
//	serve.cache_evictions       handles dropped past the LRU bound
//	serve.jobs_submitted        accepted submissions
//	serve.jobs_rejected         rejected submissions (4xx and 503)
//	serve.jobs_completed        jobs that finished with a report
//	serve.jobs_failed           jobs whose check errored or panicked
//	serve.jobs_budget_exceeded  jobs stopped by the wall-clock watchdog
func StatNames() []string {
	return []string{
		"serve.cache_hits",
		"serve.cache_misses",
		"serve.cache_evictions",
		"serve.jobs_submitted",
		"serve.jobs_rejected",
		"serve.jobs_completed",
		"serve.jobs_failed",
		"serve.jobs_budget_exceeded",
	}
}

// New assembles a daemon (not yet listening).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	stats := obs.NewRegistry()
	for _, name := range StatNames() {
		stats.Counter(name)
	}
	return &Server{
		cfg:   cfg,
		plane: live.NewPlane(),
		cache: NewCache(cfg.CacheEntries, stats),
		stats: stats,
		jobs:  map[string]*Job{},
		queue: make(chan *Job, cfg.QueueDepth),
	}
}

// Plane returns the daemon's telemetry plane.
func (s *Server) Plane() *live.Plane { return s.plane }

// CacheStats reads the artifact cache's hit/miss counters.
func (s *Server) CacheStats() (hits, misses int64) { return s.cache.HitsMisses() }

// Start binds addr ("127.0.0.1:0" picks a free port), launches the
// worker pool and serves HTTP until Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln)
	return nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown stops the daemon gracefully: intake closes (new submissions
// get 503), the worker pool drains every queued job, SSE subscribers
// receive the plane's terminal shutdown event, and the HTTP listener
// drains in-flight responses. ctx bounds the whole drain; on expiry
// the remaining work is abandoned and the listener forced shut.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.plane.Shutdown()
	if s.srv != nil {
		if serr := s.srv.Shutdown(ctx); serr != nil {
			s.srv.Close()
			if err == nil {
				err = serr
			}
		}
	}
	return err
}

// submitJob validates a request, resolves it through the artifact
// cache and enqueues it; every rejection is an *apiError with the HTTP
// status and typed kind the intake handler serializes.
func (s *Server) submitJob(req JobRequest) (*Job, *apiError) {
	if req.Program == "" {
		return nil, badRequest("bad-request", "program is required")
	}
	if req.Procs < 0 || req.Procs > s.cfg.MaxProcs {
		return nil, badRequest("bad-request", fmt.Sprintf("procs must be in [0, %d]", s.cfg.MaxProcs))
	}
	if req.Threads < 0 || req.Threads > s.cfg.MaxThreads {
		return nil, badRequest("bad-request", fmt.Sprintf("threads must be in [0, %d]", s.cfg.MaxThreads))
	}
	mode, ok := detect.ParseMode(req.Mode)
	if !ok {
		return nil, badRequest("bad-request", fmt.Sprintf("unknown mode %q (want combined, lockset or hb)", req.Mode))
	}
	opts := home.Options{
		Procs:           req.Procs,
		Threads:         req.Threads,
		Seed:            req.Seed,
		Mode:            mode,
		InstrumentAll:   req.InstrumentAll,
		Interprocedural: req.Interprocedural,
		MaxSteps:        req.MaxSteps,
		Live:            s.plane,
		Explain:         req.Explain,
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = s.cfg.DefaultMaxSteps
	}
	if req.Chaos != "" {
		plan, err := home.ParseChaosSpec(req.Chaos)
		if err != nil {
			return nil, badRequest("bad-chaos", err.Error())
		}
		opts.Chaos = plan
	}
	// Compile (or find resident) at intake: an unparseable program is
	// the submitter's error and is rejected before it costs a worker.
	comp, hit, err := s.cache.Get(req.Program)
	if err != nil {
		return nil, badRequest("parse", err.Error())
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, &apiError{status: http.StatusServiceUnavailable, kind: "shutting-down", msg: "server is shutting down"}
	}
	s.seq++
	j := &Job{
		id:       fmt.Sprintf("j%06d", s.seq),
		name:     req.Name,
		hash:     comp.Hash(),
		cacheHit: hit,
		state:    StateQueued,
		comp:     comp,
		opts:     opts,
		timeout:  timeout,
	}
	if j.name == "" {
		j.name = j.id
	}
	j.opts.LiveName = j.name
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		return nil, &apiError{status: http.StatusServiceUnavailable, kind: "overloaded", msg: "job queue is full"}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictJobsLocked()
	s.mu.Unlock()
	s.stats.Counter("serve.jobs_submitted").Inc()
	return j, nil
}

// maxRetainedJobs bounds the job table like the plane bounds its run
// table: past it the oldest finished jobs are dropped (queued/running
// jobs are never evicted — they are still owned by the worker pool).
const maxRetainedJobs = 1024

// evictJobsLocked drops the oldest finished jobs past the retention
// cap. Caller holds s.mu.
func (s *Server) evictJobsLocked() {
	for len(s.order) > maxRetainedJobs {
		victim := -1
		for i, id := range s.order {
			switch s.jobs[id].status().State {
			case StateDone, StateFailed, StateBudgetExceeded:
				victim = i
			}
			if victim >= 0 {
				break
			}
		}
		if victim < 0 {
			return // everything retained is still in flight
		}
		delete(s.jobs, s.order[victim])
		s.order = append(s.order[:victim], s.order[victim+1:]...)
	}
}

// worker drains the job queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job under its wall-clock watchdog and virtual
// budget, reusing the explorer's bounded-check machinery (a wedged or
// panicking run must never take a worker down).
func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	j.state = StateRunning
	comp, opts, timeout := j.comp, j.opts, j.timeout
	j.mu.Unlock()
	rep, err, timedOut := explore.CheckCompiledBounded(comp, opts, timeout)
	j.mu.Lock()
	defer j.mu.Unlock()
	// The run was the handle's only reader. A finished job is retained
	// far longer than the cache keeps the handle, so it lets it go.
	j.comp = nil
	switch {
	case timedOut:
		j.state = StateBudgetExceeded
		j.verdict = "budget-exceeded"
		j.errMsg = fmt.Sprintf("run exceeded the wall-clock watchdog (%s)", timeout)
		s.stats.Counter("serve.jobs_budget_exceeded").Inc()
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
		s.stats.Counter("serve.jobs_failed").Inc()
	default:
		j.state = StateDone
		j.verdict = rep.Verdict()
		j.report = renderReport(rep)
		s.stats.Counter("serve.jobs_completed").Inc()
	}
}

// job looks a job up by id.
func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// jobStatuses snapshots every job in submission order.
func (s *Server) jobStatuses() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	return out
}
