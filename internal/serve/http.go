package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"home"
	"home/internal/obs/live"
)

// apiError is a structured rejection: HTTP status, a machine-readable
// kind, and the underlying message. Serialized as
// {"error": msg, "kind": kind} — never a bare 500 with a text body.
type apiError struct {
	status int
	kind   string
	msg    string
}

// badRequest builds a 400 apiError.
func badRequest(kind, msg string) *apiError {
	return &apiError{status: http.StatusBadRequest, kind: kind, msg: msg}
}

// writeError serializes an apiError.
func writeError(w http.ResponseWriter, e *apiError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.status)
	json.NewEncoder(w).Encode(map[string]string{"error": e.msg, "kind": e.kind})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Endpoints lists the daemon's route patterns — its own job surface
// plus the mounted live-plane introspection endpoints. docs/SERVING.md
// documents exactly this set (drift-gated by doc_test.go).
func Endpoints() []string {
	own := []string{
		"POST /jobs",
		"GET /jobs",
		"GET /jobs/{id}",
		"GET /jobs/{id}/report",
		"GET /stats",
	}
	return append(own, live.Endpoints()...)
}

// Handler assembles the daemon's HTTP surface: the job endpoints plus
// the live plane's introspection endpoints on one mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleJobReport)
	mux.HandleFunc("GET /stats", s.handleStats)
	live.Routes(mux, s.plane)
	return mux
}

// handleSubmit is POST /jobs: decode, validate, resolve through the
// artifact cache, enqueue. Malformed submissions (bad JSON, unknown
// fields, unparseable programs, invalid plan keys) are structured 4xx;
// a full queue or a draining server is 503.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.stats.Counter("serve.jobs_rejected").Inc()
		writeError(w, badRequest("bad-json", err.Error()))
		return
	}
	j, apiErr := s.submitJob(req)
	if apiErr != nil {
		s.stats.Counter("serve.jobs_rejected").Inc()
		writeError(w, apiErr)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleJobs is GET /jobs: every retained job in submission order.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobStatuses())
}

// lookupJob resolves the {id} wildcard, writing a structured 404 on a
// miss.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *Job {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, &apiError{status: http.StatusNotFound, kind: "unknown-job", msg: "unknown job " + r.PathValue("id")})
	}
	return j
}

// handleJob is GET /jobs/{id}: one job's status.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobReport is GET /jobs/{id}/report: the finished job's report
// document, byte-identical for byte-identical submissions (cold or
// cache-hit — the deterministic pipeline guarantees it, and the e2e
// tests pin it). 409 while the job is still queued or running.
func (s *Server) handleJobReport(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state, report, errMsg := j.state, j.report, j.errMsg
	j.mu.Unlock()
	switch state {
	case StateQueued, StateRunning:
		writeError(w, &apiError{status: http.StatusConflict, kind: "not-finished", msg: "job is " + state})
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(report)
	default:
		writeError(w, &apiError{status: http.StatusUnprocessableEntity, kind: state, msg: errMsg})
	}
}

// handleStats is GET /stats: the daemon's own counters (the serve.*
// inventory) — per-run stats live on the plane's /runs/{id}/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats.Snapshot())
}

// Report is the job report document GET /jobs/{id}/report serves. It
// carries the check's deterministic surfaces only — verdict, summary,
// diagnostics, violations, races, virtual makespan, coverage —
// so byte-identical submissions produce byte-identical report bytes
// whether the front-end was cold or cache-resident. Host-dependent
// surfaces (interleaved program output, wall-clock span timings,
// registry snapshots) are deliberately excluded.
type Report struct {
	Verdict        string              `json:"verdict"`
	Summary        string              `json:"summary"`
	Violations     []string            `json:"violations,omitempty"`
	Races          []string            `json:"races,omitempty"`
	Warnings       []string            `json:"warnings,omitempty"`
	Diagnostics    []string            `json:"diagnostics,omitempty"`
	RunErrors      []string            `json:"runErrors,omitempty"`
	Instrumented   int                 `json:"instrumented"`
	TotalMPICalls  int                 `json:"totalMpiCalls"`
	EventsAnalyzed int                 `json:"eventsAnalyzed"`
	MakespanNs     int64               `json:"makespanNs"`
	Deadlocked     bool                `json:"deadlocked,omitempty"`
	Partial        bool                `json:"partial,omitempty"`
	DeadRanks      []int               `json:"deadRanks,omitempty"`
	RankCoverage   []home.RankCoverage `json:"rankCoverage"`
}

// renderReport serializes a finished check deterministically.
func renderReport(rep *home.Report) []byte {
	out := Report{
		Verdict:        rep.Verdict(),
		Summary:        rep.Summary(),
		Instrumented:   rep.Plan.Instrumented,
		TotalMPICalls:  rep.Plan.TotalMPICalls,
		EventsAnalyzed: rep.EventsAnalyzed,
		MakespanNs:     rep.Makespan,
		Deadlocked:     rep.Deadlocked,
		Partial:        rep.Partial,
		DeadRanks:      rep.DeadRanks,
		RankCoverage:   rep.RankCoverage,
	}
	for _, v := range rep.Violations {
		out.Violations = append(out.Violations, v.String())
	}
	for _, rc := range rep.Races {
		out.Races = append(out.Races, rc.String())
	}
	for _, wn := range rep.Warnings {
		out.Warnings = append(out.Warnings, wn.String())
	}
	for _, d := range rep.Diagnostics {
		out.Diagnostics = append(out.Diagnostics, d.Error())
	}
	// RunErrors is indexed by rank with nil entries for healthy ranks.
	for rank, e := range rep.RunErrors {
		if e != nil {
			out.RunErrors = append(out.RunErrors, fmt.Sprintf("rank %d: %v", rank, e))
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		// The document is plain strings and ints; this cannot happen.
		data, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	return append(data, '\n')
}
