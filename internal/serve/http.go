package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Handler returns the service's HTTP mux:
//
//	POST /v1/jobs             submit a JobSpec; 202 queued, 200 done
//	                          (cache or coalesced hit), 400 invalid,
//	                          429 queue full (Retry-After), 503 draining
//	GET  /v1/jobs/{id}        status view
//	GET  /v1/jobs/{id}/result terminal payload (the cached bytes) or the
//	                          structured error of a failed job
//	GET  /v1/jobs/{id}/stream ndjson: status transitions as they happen,
//	                          then interval samples (traced jobs), then
//	                          the result or error line
//	GET  /v1/stats            live counters
//	GET  /healthz             200, or 503 once draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// errorBody is the JSON envelope of every non-2xx response.
type errorBody struct {
	Error *APIError `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeAPIError(w http.ResponseWriter, e *APIError) {
	if e.HTTPStatus == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", RetryAfterSeconds))
	}
	writeJSON(w, e.HTTPStatus, errorBody{Error: e})
}

// decodeSpec parses a submission body strictly: an unknown field is an
// error, so a misspelled or retired option is reported instead of
// silently dropped.
func decodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(r.Body)
	if err != nil {
		writeAPIError(w, apiErrorf(http.StatusBadRequest, "invalid_spec", "body: %v", err))
		return
	}
	view, apiErr := s.Submit(spec)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	status := http.StatusAccepted
	if view.Status == StatusDone {
		status = http.StatusOK
	}
	writeJSON(w, status, view)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Lookup(r.PathValue("id"))
	if !ok {
		writeAPIError(w, apiErrorf(http.StatusNotFound, "unknown_job", "no job %s", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	payload, apiErr := s.Result(r.PathValue("id"))
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
}

// streamLine is one ndjson line of the stream endpoint. Exactly one of
// the optional fields is set, keyed by Type: "status" (every
// transition), "sample" (traced jobs, after the terminal transition),
// "result" (the full payload), "error".
type streamLine struct {
	Type   string          `json:"type"`
	Status *StatusView     `json:"status,omitempty"`
	Sample json.RawMessage `json:"sample,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Err    *APIError       `json:"error,omitempty"`
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, changed, ok := s.watch(id)
	if !ok {
		writeAPIError(w, apiErrorf(http.StatusNotFound, "unknown_job", "no job %s", id))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(line streamLine) bool {
		if err := enc.Encode(line); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for {
		v := view
		if !emit(streamLine{Type: "status", Status: &v}) {
			return
		}
		switch view.Status {
		case StatusDone:
			payload, apiErr := s.Result(id)
			if apiErr != nil {
				emit(streamLine{Type: "error", Err: apiErr})
				return
			}
			for _, sample := range payloadSamples(payload) {
				if !emit(streamLine{Type: "sample", Sample: sample}) {
					return
				}
			}
			emit(streamLine{Type: "result", Result: payload})
			return
		case StatusFailed, StatusCanceled:
			emit(streamLine{Type: "error", Err: view.Error})
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
		view, changed, ok = s.watch(id)
		if !ok {
			return
		}
	}
}

// payloadSamples extracts the interval time series from a cached
// payload (empty for untraced jobs). Raw messages are re-emitted
// verbatim, so streamed samples are byte-identical to the payload's.
func payloadSamples(payload []byte) []json.RawMessage {
	var p struct {
		Samples []json.RawMessage `json:"samples"`
	}
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil
	}
	return p.Samples
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeAPIError(w, apiErrorf(http.StatusServiceUnavailable, "draining", "server is draining"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
