package service

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Server exposes a Scheduler over HTTP:
//
//	POST   /v1/jobs             submit a JobSpec (campaign point or advise), returns JobStatus (202)
//	GET    /v1/jobs             list all jobs
//	GET    /v1/jobs/{id}        one job's status + partial tally
//	DELETE /v1/jobs/{id}        cancel at the next chunk boundary
//	GET    /v1/jobs/{id}/events NDJSON progress stream until terminal
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness
type Server struct {
	sched *Scheduler
}

// NewServer wraps a scheduler.
func NewServer(s *Scheduler) *Server { return &Server{sched: s} }

// Handler builds the route table. Extra subsystems that share the v1 mux —
// the fleet coordinator's lease endpoints — mount themselves through the
// variadic hooks.
func (s *Server) Handler(mount ...func(*http.ServeMux)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	for _, m := range mount {
		m(mux)
	}
	return mux
}

// ErrorDetail is the body of the unified v1 error envelope. Code is a
// stable machine-readable token (ErrCode* constants); Message is for humans.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the single JSON error shape every /v1/* handler — jobs,
// leases, workers, fleet — answers with:
//
//	{"error":{"code":"bad_request","message":"..."}}
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// Stable error codes of the v1 envelope.
const (
	ErrCodeBadRequest  = "bad_request" // malformed or invalid request body (400; 413 over MaxBodyBytes)
	ErrCodeNotFound    = "not_found"   // no such job/worker (404)
	ErrCodeGone        = "gone"        // lease expired and requeued (410)
	ErrCodeUnavailable = "unavailable" // daemon draining (503)
	ErrCodeQueueFull   = "queue_full"  // QueueDepth submitted jobs already queued (429)
)

// WriteError answers with the unified v1 error envelope.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorEnvelope{Error: ErrorDetail{Code: code, Message: msg}})
}

// WriteJSON answers with v as the JSON body — the one response writer of
// every /v1/* handler, in this package and in internal/fleet.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// MaxBodyBytes caps the request body of every /v1/* POST. The largest
// legitimate body is a lease report (one tally), far under it.
const MaxBodyBytes = 1 << 20

// DecodeBody is the one request decoder of every /v1/* POST: the body is
// size-capped and decoded strictly (unknown fields are an error) into v.
// On failure it answers with the v1 error envelope — 413 for an oversize
// body, 400 otherwise, the message prefixed "bad <what>: " — and returns
// false.
func DecodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteError(w, status, ErrCodeBadRequest, "bad "+what+": "+err.Error())
	return false
}

// NewID returns prefix plus 12 random hex characters: job ("j"), lease ("l")
// and default worker ("w") identifiers all come from here. (An advise job's
// children take IDs derived from their parent's.)
func NewID(prefix string) string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable enough to surface loudly.
		panic(fmt.Sprintf("service: rand.Read: %v", err))
	}
	return prefix + hex.EncodeToString(b[:])
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !DecodeBody(w, r, "job spec", &spec) {
		return
	}
	st, err := s.sched.Submit(spec)
	if err != nil {
		status, code := http.StatusBadRequest, ErrCodeBadRequest
		if errors.Is(err, errShuttingDown) {
			status, code = http.StatusServiceUnavailable, ErrCodeUnavailable
		} else if errors.Is(err, errQueueFull) {
			status, code = http.StatusTooManyRequests, ErrCodeQueueFull
		}
		WriteError(w, status, code, err.Error())
		return
	}
	WriteJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.sched.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, ErrCodeNotFound, "no such job")
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.sched.Cancel(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, ErrCodeNotFound, "no such job")
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

// handleEvents streams one NDJSON event per line: an initial "status"
// snapshot, then "progress" per completed chunk, ending with the terminal
// state ("done" | "failed" | "canceled"). A job already terminal ends the
// stream with its snapshot.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, ErrCodeNotFound, "no such job")
		return
	}
	StreamNDJSON(w, r, s.sched.ctx.Done(), j.events,
		func() (any, bool) {
			st := j.snapshot()
			return Event{Type: st.State.snapshotType(), Job: st}, !st.State.Terminal()
		},
		func(ev Event) (any, bool) { return ev, !ev.Job.State.Terminal() })
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.sched.metrics.WritePrometheus(w, s.sched.stateGauges())
}
