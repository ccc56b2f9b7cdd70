package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"turnmodel/internal/metrics"
)

// Server is the HTTP face of a Store: the /v1/jobs API (submit,
// status, result, SSE stream, cancel), /metrics via a shared
// metrics.Registry, and the /healthz (liveness) and /readyz
// (readiness + load shedding) probes. It applies recovery and
// access-log middleware around every handler.
type Server struct {
	store *Store
	reg   *metrics.Registry
	mux   *http.ServeMux
	log   io.Writer
}

// NewServer wires a Store and a metrics registry into an http.Handler.
// The store's own counters are registered on reg (created when nil);
// logw receives one access-log line per request (nil disables).
func NewServer(store *Store, reg *metrics.Registry, logw io.Writer) *Server {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	reg.Register(store.WriteMetrics)
	s := &Server{store: store, reg: reg, mux: http.NewServeMux(), log: logw}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// /healthz is pure liveness: the process serves HTTP. /readyz adds
	// readiness — journal replayed and the queue below the shed
	// threshold — flipping 503 before admission control starts handing
	// out hard 429s, so a load balancer drains a saturated instance
	// early.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ok, reason := store.Ready()
		if !ok {
			errorJSON(w, http.StatusServiceUnavailable, reason)
			return
		}
		io.WriteString(w, "ok\n")
	})
	return s
}

// statusWriter captures the response code for the access log while
// forwarding Flush (SSE needs it).
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the status code.
func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying flusher, if any.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP applies the middleware stack: panic recovery, then
// routing, then one access-log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	defer func() {
		if p := recover(); p != nil {
			// Best effort: if the handler already wrote, the client sees
			// a truncated body instead.
			http.Error(sw, "internal error", http.StatusInternalServerError)
			if s.log != nil {
				fmt.Fprintf(s.log, "panic serving %s %s: %v\n", r.Method, r.URL.Path, p)
			}
		}
	}()
	s.mux.ServeHTTP(sw, r)
	if s.log != nil {
		fmt.Fprintf(s.log, "%s %s %d\n", r.Method, r.URL.Path, sw.code)
	}
}

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorJSON is the uniform error body.
func errorJSON(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// submitResponse is the POST /v1/jobs body.
type submitResponse struct {
	// ID is the content-addressed job ID; Existing marks a submission
	// answered with an already-known job for the same configuration.
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Existing bool     `json:"existing,omitempty"`
	// StreamURL and ResultURL are the follow-up endpoints.
	StreamURL string `json:"stream_url"`
	ResultURL string `json:"result_url"`
}

// decodeJobRequest decodes a POST /v1/jobs body: exactly one JSON
// object. Unknown fields and trailing data are rejected, so a misspelt
// parameter or a second request never silently runs as the default.
func decodeJobRequest(body io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, errors.New("trailing data after the request object")
	}
	return req, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "bad job body: "+err.Error())
		return
	}
	j, existing, err := s.store.Submit(req)
	switch {
	case err == ErrQueueFull:
		w.Header().Set("Retry-After", strconv.Itoa(s.store.RetryAfterSeconds()))
		errorJSON(w, http.StatusTooManyRequests, "job queue full; retry later")
		return
	case err == ErrClosed:
		errorJSON(w, http.StatusServiceUnavailable, "server shutting down")
		return
	case errors.Is(err, ErrJournal):
		// The write-ahead log is the durability contract; a request the
		// journal cannot record is a server fault, not a bad request.
		errorJSON(w, http.StatusInternalServerError, err.Error())
		return
	case err != nil:
		errorJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	code := http.StatusAccepted
	if existing {
		code = http.StatusOK
	}
	writeJSON(w, code, submitResponse{
		ID:        j.ID,
		State:     j.State(),
		Existing:  existing,
		StreamURL: "/v1/jobs/" + j.ID + "/stream",
		ResultURL: "/v1/jobs/" + j.ID + "/result",
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.store.Jobs()})
}

// job resolves the {id} path value, writing the 404 itself.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		errorJSON(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	res, done := j.Result()
	if !done {
		st := j.Status()
		errorJSON(w, http.StatusConflict, fmt.Sprintf("job %s has no result: state=%s %s", j.ID, st.State, st.Error))
		return
	}
	// The stored bytes are exactly exp.WriteFigureJSON's output, so
	// HTTP clients get byte-identical results to an in-process run.
	w.Header().Set("Content-Type", "application/json")
	w.Write(res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.store.Cancel(j.ID)
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The registry buffers the whole exposition before writing, so a
	// failing exporter yields a clean 500 instead of a torn scrape that
	// Prometheus would half-ingest.
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.reg.WritePrometheus(w); err != nil {
		if s.log != nil {
			fmt.Fprintf(s.log, "metrics scrape: %v\n", err)
		}
		errorJSON(w, http.StatusInternalServerError, "metrics scrape failed: "+err.Error())
	}
}

// handleStream serves the job's event log as Server-Sent Events: every
// past event replays immediately, new ones stream as they happen, and
// a done job is followed by one "result" event carrying the full
// figure JSON. The stream ends at the terminal event, so a plain
// `curl -N` returns once the job finishes.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		errorJSON(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	ctx := r.Context()
	// next selects on the request context directly, so a slow or
	// vanished client can never strand a waiter or leak a watcher
	// goroutine: when the connection drops, the wait unblocks and the
	// handler returns.
	idx := 0
	for {
		evs, complete := j.next(idx, ctx.Done())
		if ctx.Err() != nil {
			return
		}
		for _, ev := range evs {
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			if ev.Type == string(StateDone) {
				if res, ok := j.Result(); ok {
					writeSSEResult(w, res)
				}
			}
		}
		fl.Flush()
		idx += len(evs)
		if complete {
			return
		}
	}
}

// writeSSEResult emits the figure JSON as one SSE "result" event. SSE
// data may span lines via repeated data: fields; clients reassemble
// them joined with newlines.
func writeSSEResult(w io.Writer, res []byte) {
	io.WriteString(w, "event: result\n")
	for _, line := range strings.Split(strings.TrimRight(string(res), "\n"), "\n") {
		fmt.Fprintf(w, "data: %s\n", line)
	}
	io.WriteString(w, "\n")
}
