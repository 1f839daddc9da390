package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Handler returns the JSON-over-HTTP job API:
//
//	POST /jobs      body: [JobSpec, ...]        → {"ids":[...]}; an unknown
//	     field is a 400
//	GET  /jobs                                  → {"jobs":[JobStatus, ...]}
//	GET  /jobs/{id}                             → JobStatus
//	GET  /stats                                 → Stats
//	GET  /healthz                               → 200 while the process
//	     serves HTTP at all (liveness)
//	GET  /readyz                                → 200 when the instance
//	     should receive traffic: accepting jobs, engine loop live, journal
//	     writable; 503 + reason otherwise (readiness)
//	POST /shutdown                              → {"ok":true}; the host
//	     process observes ShutdownRequested and exits.
//
// Submission backpressure: a full admission queue is 429, a draining or
// shut-down server is 503, both with a Retry-After hint.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var specs []JobSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
		// A field this server does not know is refused, not dropped: a
		// dropped field would fly a different flight than the tenant asked
		// for. (Journal replay stays lenient; see replayJournal.)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&specs); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad job list: %v", err))
			return
		}
		if len(specs) == 0 {
			httpError(w, http.StatusBadRequest, "empty job list")
			return
		}
		ids, err := s.SubmitAll(specs)
		if err != nil {
			code := http.StatusServiceUnavailable
			switch {
			case errors.Is(err, ErrBadSpec):
				code = http.StatusBadRequest
			case errors.Is(err, ErrQueueFull):
				code = http.StatusTooManyRequests
				w.Header().Set("Retry-After", "1")
			case errors.Is(err, ErrDraining), errors.Is(err, ErrShutdown):
				w.Header().Set("Retry-After", "5")
			}
			httpError(w, code, err.Error())
			return
		}
		writeJSON(w, map[string][]uint64{"ids": ids})
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string][]JobStatus{"jobs": s.Jobs()})
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad job id")
			return
		}
		st, ok := s.Job(id)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job")
			return
		}
		writeJSON(w, st)
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]bool{"ok": true})
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Ready(); err != nil {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		writeJSON(w, map[string]bool{"ready": true})
	})

	mux.HandleFunc("POST /shutdown", func(w http.ResponseWriter, r *http.Request) {
		s.requestShutdown()
		writeJSON(w, map[string]bool{"ok": true})
	})

	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
