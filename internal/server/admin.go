package server

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"admission/internal/engine"
)

// The admin control plane (DESIGN.md §15) is the token-authenticated
// /admin/v1/* route group mounted when Config.AdminToken is set:
//
//	POST /admin/v1/capacity  resize live capacity (grow, or shrink w/ drain)
//	POST /admin/v1/pause     refuse new submissions with 503 until resumed
//	POST /admin/v1/resume    lift a pause
//	POST /admin/v1/snapshot  trigger a WAL snapshot on durable workloads
//	GET  /admin/v1/occupancy structured per-shard / per-edge occupancy
//
// Every route requires "Authorization: Bearer <token>"; an
// unauthenticated request is answered 401 before any state is read or
// written. Capacity resizes drive the engine-level Grow/ShrinkCapacity
// wrappers (internal/engine), which serialize through the shard event
// loops — a resize is decision-stream-safe and, when it nets to zero,
// digest-stable.

// errNotDurable marks a snapshot trigger on a workload without a WAL.
var errNotDurable = errors.New("workload is not durable (no WAL mounted)")

// authorize enforces the configured admin token on a protected route and
// answers 401 when it is missing or wrong. With no token configured every
// surface is open (the admin plane is disabled and never mounted, and
// stats/metrics keep their historical open behaviour).
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.AdminToken == "" || bearerTokenOK(r, s.cfg.AdminToken) {
		return true
	}
	w.Header().Set("WWW-Authenticate", `Bearer realm="acserve-admin"`)
	httpError(w, http.StatusUnauthorized, "admin token required")
	return false
}

// bearerTokenOK reports whether the request carries the expected token as
// an Authorization Bearer credential. The comparison is constant-time so
// the token cannot be recovered byte-by-byte from response timing.
func bearerTokenOK(r *http.Request, token string) bool {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) < len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(strings.TrimSpace(h[len(prefix):])), []byte(token)) == 1
}

// setAdminEngine records the admission engine as the control plane's
// capacity-resize target. Called by the admission registrations during
// New; durable marks a WAL-backed mount, on which resizes are refused.
func (s *Server) setAdminEngine(eng *engine.Engine, durable bool) {
	s.adminEng = eng
	s.adminDurable = durable
}

// mountAdmin mounts the /admin/v1/* route group. Called from New, only
// when Config.AdminToken is configured.
func (s *Server) mountAdmin() {
	auth := func(method string, h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != method {
				httpError(w, http.StatusMethodNotAllowed, "%s required", method)
				return
			}
			if !s.authorize(w, r) {
				return
			}
			h(w, r)
		}
	}
	s.mux.HandleFunc("/admin/v1/capacity", auth(http.MethodPost, s.handleAdminCapacity))
	s.mux.HandleFunc("/admin/v1/pause", auth(http.MethodPost, s.handleAdminPause))
	s.mux.HandleFunc("/admin/v1/resume", auth(http.MethodPost, s.handleAdminResume))
	s.mux.HandleFunc("/admin/v1/snapshot", auth(http.MethodPost, s.handleAdminSnapshot))
	s.mux.HandleFunc("/admin/v1/occupancy", auth(http.MethodGet, s.handleAdminOccupancy))
}

// ResizeRequestJSON is the body of POST /admin/v1/capacity.
type ResizeRequestJSON struct {
	// Edge is the global edge to resize; omitted (or engine.AllEdges)
	// means every edge.
	Edge *int `json:"edge,omitempty"`
	// Delta is the signed capacity change per targeted edge: positive
	// grows, negative shrinks with drain semantics (accepted requests are
	// preempted until the integral solution fits). Zero is rejected.
	Delta int `json:"delta"`
}

// ResizeResponseJSON is the body answering POST /admin/v1/capacity.
type ResizeResponseJSON struct {
	// Edge is the resized edge, or -1 when every edge was targeted.
	Edge int `json:"edge"`
	// Delta echoes the requested signed change per edge.
	Delta int `json:"delta"`
	// Requested and Applied count capacity units over all targeted edges;
	// a shrink applies fewer than requested when an edge's capacity (or
	// its fractional headroom) is already exhausted.
	Requested int `json:"requested"`
	Applied   int `json:"applied"`
	// Preempted lists the global request IDs evicted by a shrink's drain.
	Preempted []int `json:"preempted,omitempty"`
	// Capacity is the edge's effective capacity after the resize (the
	// engine-wide total when every edge was targeted).
	Capacity int `json:"capacity"`
}

// handleAdminCapacity resizes live capacity on the mounted admission
// engine. Refused with 409 when no admission workload is mounted or when
// it is durable — resizes are not WAL-logged, so a recovery replay into
// the constructed capacity vector would silently diverge from the resized
// history.
func (s *Server) handleAdminCapacity(w http.ResponseWriter, r *http.Request) {
	if s.adminEng == nil {
		httpError(w, http.StatusConflict, "no admission workload mounted; nothing to resize")
		return
	}
	if s.adminDurable {
		httpError(w, http.StatusConflict,
			"admission workload is durable: capacity resizes are not WAL-logged, so a recovery replay would diverge; restart with the new capacity vector instead")
		return
	}
	body, err := readBody(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req ResizeRequestJSON
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "malformed resize request: %v", err)
		return
	}
	if req.Delta == 0 {
		httpError(w, http.StatusBadRequest, "delta must be non-zero (positive grows, negative shrinks)")
		return
	}
	edge := engine.AllEdges
	if req.Edge != nil {
		edge = *req.Edge
	}
	var res engine.Resize
	if req.Delta > 0 {
		res, err = s.adminEng.GrowCapacity(r.Context(), edge, req.Delta)
	} else {
		res, err = s.adminEng.ShrinkCapacity(r.Context(), edge, -req.Delta)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out := ResizeResponseJSON{
		Edge:      res.Edge,
		Delta:     req.Delta,
		Requested: res.Requested,
		Applied:   res.Applied,
		Preempted: res.Preempted,
	}
	caps := s.adminEng.Capacities()
	if edge == engine.AllEdges {
		for _, c := range caps {
			out.Capacity += c
		}
	} else {
		out.Capacity = caps[edge]
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// PausedJSON answers the pause/resume routes and is embedded in the
// occupancy body.
type PausedJSON struct {
	// Paused reports whether intake is administratively paused
	// (submissions answer 503 until resume).
	Paused bool `json:"paused"`
}

// handleAdminPause pauses intake: every workload's submissions answer 503
// until resume. Submissions already admitted are still decided — pause
// gates the door, it does not drop work.
func (s *Server) handleAdminPause(w http.ResponseWriter, r *http.Request) {
	s.paused.Store(true)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(PausedJSON{Paused: true})
}

// handleAdminResume lifts an administrative pause. Idempotent.
func (s *Server) handleAdminResume(w http.ResponseWriter, r *http.Request) {
	s.paused.Store(false)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(PausedJSON{Paused: false})
}

// SnapshotRequestJSON is the optional body of POST /admin/v1/snapshot.
type SnapshotRequestJSON struct {
	// Workload names one workload to snapshot; empty means every durable
	// workload.
	Workload string `json:"workload,omitempty"`
}

// SnapshotResponseJSON answers POST /admin/v1/snapshot.
type SnapshotResponseJSON struct {
	// Workloads lists the workloads whose WAL was snapshotted.
	Workloads []string `json:"workloads"`
}

// handleAdminSnapshot triggers a WAL snapshot on the named workload (or on
// every durable workload when the body is empty). Each snapshot is written
// under the pipeline's decision lock, between two submissions' decisions,
// where every decided item is logged and the state digest stamped into the
// snapshot is meaningful, so the handler waits for at most the submission
// being decided.
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req SnapshotRequestJSON
	if len(strings.TrimSpace(string(body))) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, "malformed snapshot request: %v", err)
			return
		}
	}
	targets := s.names
	if req.Workload != "" {
		if _, ok := s.workloads[req.Workload]; !ok {
			httpError(w, http.StatusNotFound, "unknown workload %q", req.Workload)
			return
		}
		targets = []string{req.Workload}
	}
	out := SnapshotResponseJSON{Workloads: []string{}}
	for _, name := range targets {
		err := s.workloads[name].triggerSnapshot()
		switch {
		case err == nil:
			out.Workloads = append(out.Workloads, name)
		case errors.Is(err, errNotDurable):
			if req.Workload != "" {
				httpError(w, http.StatusConflict, "workload %q: %v", name, err)
				return
			}
		default:
			httpError(w, http.StatusInternalServerError, "workload %q: snapshot: %v", name, err)
			return
		}
	}
	if req.Workload == "" && len(out.Workloads) == 0 {
		httpError(w, http.StatusConflict, "no durable workloads mounted; nothing to snapshot")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// OccupancyJSON is the body of GET /admin/v1/occupancy: the structured
// control-plane view of the server — intake state, mounted workloads, and
// the admission engine's per-shard and per-edge occupancy.
type OccupancyJSON struct {
	PausedJSON
	// Draining reports whether Drain has been initiated.
	Draining bool `json:"draining"`
	// Workloads lists the mounted workload names, sorted.
	Workloads []string `json:"workloads"`
	// Admission carries the engine occupancy; absent when no admission
	// workload is mounted.
	Admission *AdmissionOccupancyJSON `json:"admission,omitempty"`
}

// AdmissionOccupancyJSON is the admission engine's occupancy block of
// OccupancyJSON.
type AdmissionOccupancyJSON struct {
	// Requests .. RejectedCost mirror engine.Stats.
	Requests     int64   `json:"requests"`
	Accepted     int64   `json:"accepted"`
	Preemptions  int64   `json:"preemptions"`
	RejectedCost float64 `json:"rejected_cost"`
	// Durable reports a WAL-backed mount (on which resizes are refused).
	Durable bool `json:"durable"`
	// Capacity and Load are the engine-wide totals; Free = Capacity-Load.
	Capacity int `json:"capacity"`
	Load     int `json:"load"`
	Free     int `json:"free"`
	// Shards is the per-shard occupancy view (same rows as the stats
	// endpoint).
	Shards []ShardJSON `json:"shards"`
	// Edges is the per-global-edge capacity/load/free breakdown — the
	// resolution a capacity resize operates at.
	Edges []EdgeOccupancyJSON `json:"edges"`
}

// EdgeOccupancyJSON is one global edge's occupancy row.
type EdgeOccupancyJSON struct {
	// Edge is the global edge ID.
	Edge int `json:"edge"`
	// Capacity is the effective capacity (constructed plus admin grows
	// minus admin shrinks); Load counts accepts plus cross-shard
	// reservations; Free = Capacity - Load ≥ 0 always.
	Capacity int `json:"capacity"`
	Load     int `json:"load"`
	Free     int `json:"free"`
}

// handleAdminOccupancy renders the structured occupancy view.
func (s *Server) handleAdminOccupancy(w http.ResponseWriter, r *http.Request) {
	out := OccupancyJSON{
		PausedJSON: PausedJSON{Paused: s.paused.Load()},
		Draining:   s.gate.Closed(),
		Workloads:  s.Workloads(),
	}
	if s.adminEng != nil {
		st := s.adminEng.Snapshot()
		adm := &AdmissionOccupancyJSON{
			Requests:     st.Requests,
			Accepted:     st.Accepted,
			Preemptions:  st.Preemptions,
			RejectedCost: st.RejectedCost,
			Durable:      s.adminDurable,
		}
		for e, c := range st.Capacities {
			adm.Capacity += c
			adm.Load += st.Loads[e]
			adm.Edges = append(adm.Edges, EdgeOccupancyJSON{
				Edge: e, Capacity: c, Load: st.Loads[e], Free: c - st.Loads[e],
			})
		}
		adm.Free = adm.Capacity - adm.Load
		for _, sh := range s.adminEng.ShardStats() {
			adm.Shards = append(adm.Shards, ShardJSON{
				Shard:       sh.Shard,
				Requests:    sh.Requests,
				Preemptions: sh.Preemptions,
				Load:        sh.Load,
				Capacity:    sh.Capacity,
			})
		}
		out.Admission = adm
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}
