package campaignd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Server is the capsimd HTTP API, stdlib only:
//
//	POST /runs                submit a campaign spec -> {"id": ...}
//	GET  /runs                list runs and states
//	GET  /runs/{id}           one run's state
//	GET  /runs/{id}/events    NDJSON stream: state + progress events
//	GET  /runs/{id}/result    completed result (?format=text for the
//	                          capsim-identical summary block)
//	GET  /runs/{id}/metrics   final metrics snapshot (obs.Registry);
//	                          ?live=1 reads the in-flight registry
//	GET  /runs/{id}/trace     Chrome trace-event timeline (specs
//	                          submitted with "trace": true)
//	GET  /metrics             daemon-wide live Prometheus exposition
//	GET  /debug/flight        flight-recorder ring (?format=text)
//	POST /merge               merge completed shard runs
//	GET  /healthz             liveness
//
// Every error is a structured JSON body {"error": "..."} with a
// meaningful status — malformed input is a 400, never a panic.
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
}

// NewServer wires the API around a scheduler.
func NewServer(sched *Scheduler) *Server {
	s := &Server{sched: sched, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /runs", s.handleSubmit)
	s.mux.HandleFunc("POST /runs/{$}", s.handleSubmit)
	s.mux.HandleFunc("GET /runs", s.handleList)
	s.mux.HandleFunc("GET /runs/{id}", s.handleRun)
	s.mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /runs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /runs/{id}/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /runs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleProm)
	s.mux.HandleFunc("GET /debug/flight", s.handleFlight)
	s.mux.HandleFunc("POST /merge", s.handleMerge)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	w.Write(append(data, '\n'))
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// readBody reads a size-capped request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, "request body: %v", err)
		return nil, false
	}
	return data, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	spec, err := s.sched.kept.spec(data)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := s.sched.Submit(spec, data)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": StateQueued})
}

// runStatus is the GET /runs and GET /runs/{id} payload.
type runStatus struct {
	ID       string `json:"id"`
	Campaign string `json:"campaign"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
}

// status assembles a run's live view: the durable state from the
// store, overlaid with the live hub state (running/interrupted) when
// the daemon holds one.
func (s *Server) status(id string) (runStatus, error) {
	h := s.sched.Hub(id) // before the store, as in handleEvents
	state, err := s.sched.Store().State(id)
	if err != nil {
		return runStatus{}, err
	}
	st := runStatus{ID: id, State: state, Campaign: s.sched.CampaignName(id)}
	if state == StateFailed {
		st.Error = s.sched.Store().ReadRunError(id)
	}
	if h != nil && state == StateQueued {
		if e := h.state(); e.State != "" {
			st.State = e.State
		}
	}
	return st, nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	ids, err := s.sched.Store().List()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	out := make([]runStatus, 0, len(ids))
	for _, id := range ids {
		st, err := s.status(id)
		if err != nil {
			continue
		}
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": out})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	st, err := s.status(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// The hub first, the store second: a hub is released only after the
	// store has recorded its run as done or failed, so a state read after
	// finding no hub is that terminal state.
	h := s.sched.Hub(id)
	state, err := s.sched.Store().State(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(e Event) bool {
		if err := enc.Encode(e); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if h == nil {
		// No live hub: the run is terminal — its hub went with the final
		// event, or it finished in a previous daemon process. Synthesize
		// that event from the store and end the stream.
		e := Event{Type: "state", Run: id, State: state, Final: true}
		if state == StateFailed {
			e.Error = s.sched.Store().ReadRunError(id)
		}
		emit(e)
		return
	}
	ch, cancel := h.subscribe()
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-ch:
			if !ok {
				return
			}
			if !emit(e) {
				return
			}
			if e.Final {
				return
			}
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	state, err := s.sched.Store().State(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	if state != StateDone {
		writeErr(w, http.StatusNotFound, "run %s has no result yet (state %s)", id, state)
		return
	}
	data, err := s.sched.Store().ReadDoc(id, DocResult)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		var doc ResultDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			writeErr(w, http.StatusInternalServerError, "corrupt result: %v", err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, doc.Text)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.sched.Store().State(id); err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	// ?live=1 snapshots the in-flight registry — counters move while
	// the campaign executes, before any terminal snapshot exists.
	if r.URL.Query().Get("live") == "1" {
		reg := s.sched.LiveMetrics(id)
		if reg == nil {
			writeErr(w, http.StatusNotFound, "run %s is not executing (no live metrics)", id)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		reg.WriteJSON(w)
		return
	}
	data, err := s.sched.Store().ReadDoc(id, DocMetrics)
	if err != nil {
		writeErr(w, http.StatusNotFound, "run %s has no metrics snapshot", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleTrace serves a traced run's Chrome trace-event document: the
// live recorder while the run executes, the stored trace.json after.
// Runs submitted without "trace": true are a 400 — the client asked
// for evidence the daemon was never told to collect.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	state, err := s.sched.Store().State(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	spec, err := s.sched.readSpec(id)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !spec.Trace {
		writeErr(w, http.StatusBadRequest, "run %s was not submitted with \"trace\": true", id)
		return
	}
	if tr := s.sched.LiveTrace(id); tr != nil {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		tr.WriteJSON(w)
		return
	}
	data, err := s.sched.Store().ReadDoc(id, DocTrace)
	if err != nil {
		writeErr(w, http.StatusNotFound, "run %s has no trace yet (state %s)", id, state)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleProm is the daemon-wide live telemetry scrape: the aggregate
// registry plus every in-flight run's registry, Prometheus text
// format.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.sched.WriteProm(w)
}

// handleFlight dumps the flight-recorder ring: JSON by default,
// ?format=text for the same block SIGQUIT prints.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	f := s.sched.Flight()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		f.WriteText(w)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":  f.Total(),
		"events": f.Snapshot(),
	})
}

// MergeRequest is the POST /merge body: the campaign knobs the shard
// runs were submitted with, plus the completed run IDs to merge.
type MergeRequest struct {
	Campaign    string       `json:"campaign,omitempty"`
	Universe    UniverseSpec `json:"universe"`
	Dedup       bool         `json:"dedup,omitempty"`
	StopOnFirst bool         `json:"stop_on_first,omitempty"`
	Runs        []string     `json:"runs"`
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	var req MergeRequest
	if err := decodeStrict(data, &req, "merge request"); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Runs) == 0 || len(req.Runs) > MaxShardCount {
		writeErr(w, http.StatusBadRequest, "campaignd: merge needs 1..%d runs", MaxShardCount)
		return
	}
	spec := &Spec{
		Campaign: req.Campaign, Universe: req.Universe,
		Dedup: req.Dedup, StopOnFirst: req.StopOnFirst,
	}
	if err := spec.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	doc, err := s.sched.MergeRuns(spec, req.Runs)
	if err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}
