package service

import (
	"encoding/json"
	"errors"
	"net/http"
)

// Server is the HTTP/JSON face of the scheduler. Routes (Go 1.22 method
// patterns):
//
//	POST   /v1/jobs             submit a JobSpec  -> 202 (accepted), 200 (dedup hit)
//	GET    /v1/jobs             list all jobs
//	GET    /v1/jobs/{id}        one job's status
//	GET    /v1/jobs/{id}/result completed result (JSON, or ?format=tsv)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /healthz             200 serving / 503 draining
//
// Error mapping: invalid spec -> 400, unknown id -> 404, result of an
// unfinished job -> 409, spec body over MaxSpecBytes -> 413, queue full ->
// 429 with Retry-After, draining -> 503 with Retry-After.
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
}

// NewServer wires the scheduler behind the HTTP API.
func NewServer(sched *Scheduler) *Server {
	s := &Server{sched: sched, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.get)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.result)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// submitResponse is the POST /v1/jobs envelope; Deduplicated marks a
// content-address hit on an already known job.
type submitResponse struct {
	JobView
	Deduplicated bool `json:"deduplicated,omitempty"`
}

// MaxSpecBytes caps the body of POST /v1/jobs, which is otherwise decoded
// whole into memory. A typical spec is a few hundred bytes; the cap still
// leaves room for a value list of tens of thousands of points.
const MaxSpecBytes = 1 << 20

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "decoding job spec: "+err.Error())
		return
	}
	view, dup, err := s.sched.Submit(spec)
	switch {
	case err == nil:
	case errors.Is(err, ErrBadSpec):
		writeError(w, http.StatusBadRequest, err.Error())
		return
	case errors.Is(err, ErrQueueFull):
		// Admission control: bounded queue, back off and retry.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	status := http.StatusAccepted
	if dup {
		status = http.StatusOK
	}
	writeJSON(w, status, submitResponse{JobView: view, Deduplicated: dup})
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{Jobs: s.sched.List()})
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	view, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// resultResponse is the JSON form of a completed job's result.
type resultResponse struct {
	ID     string        `json:"id"`
	Param  string        `json:"param"`
	Points []ResultPoint `json:"points"`
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.sched.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	res, ok := s.sched.Result(id)
	if !ok {
		writeError(w, http.StatusConflict, "job is "+string(view.State)+", result not available")
		return
	}
	if r.URL.Query().Get("format") == "tsv" {
		w.Header().Set("Content-Type", "text/tab-separated-values")
		res.WriteTSV(w)
		return
	}
	writeJSON(w, http.StatusOK, resultResponse{
		ID: id, Param: view.Param, Points: resultPoints(res),
	})
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	view, ok := s.sched.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	if s.sched.Draining() {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}
