package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	"sacga/internal/search"
)

// Handler exposes the server over HTTP:
//
//	POST   /jobs              submit a JobRequest → SubmitResponse
//	GET    /jobs              list all jobs (admission order) → []JobView
//	GET    /jobs/{id}         job status → JobView
//	GET    /jobs/{id}/result  terminal result → ResultView (409 until terminal)
//	GET    /jobs/{id}/stream  SSE progress stream (see sse.go)
//	POST   /jobs/{id}/cancel  request cancellation (also DELETE /jobs/{id})
//	GET    /engines           registry listing → []search.EngineInfo
//	GET    /workers           shared-fleet health → []fleet.WorkerStat
//	GET    /healthz           liveness + drain state
//
// Admission failures map to 400, an unknown job to 404, a submission body
// over maxSubmitBody to 413, a full table to 429, and a draining server to
// 503 (load balancers retry elsewhere).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /engines", s.handleEngines)
	mux.HandleFunc("GET /workers", s.handleWorkers)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// maxSubmitBody caps a POST /jobs body. A job request is a problem spec,
// options and engine params, a few KB at most, so 1 MiB leaves ample room
// while bounding what one client can make the server buffer.
const maxSubmitBody = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request: "+err.Error(), status)
		return
	}
	view, deduped, err := s.Submit(req)
	if err != nil {
		var re *RequestError
		switch {
		case errors.As(err, &re):
			http.Error(w, re.Error(), http.StatusBadRequest)
		case errors.Is(err, ErrDraining):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case errors.Is(err, ErrTableFull):
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	status := http.StatusCreated
	if deduped {
		status = http.StatusOK
	}
	writeJSON(w, status, SubmitResponse{ID: view.ID, Deduped: deduped, State: view.State})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	res, terminal := j.Result()
	if !terminal {
		http.Error(w, "job still running", http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	s.streamJob(w, r, j)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	found, already := s.Cancel(id)
	if !found {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "cancelled": !already, "terminal": already})
}

func (s *Server) handleEngines(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, search.Registered())
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.WorkerStats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	jobs := len(s.jobs)
	s.mu.Unlock()
	status := http.StatusOK
	if draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"draining": draining, "jobs": jobs})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
