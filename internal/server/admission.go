package server

import (
	"fmt"

	"admission/internal/engine"
	"admission/internal/metrics"
	"admission/internal/problem"
	"admission/internal/wal"
	"admission/internal/wire"
)

// WorkloadAdmission is the route name of the built-in admission workload
// (POST /v1/admission).
const WorkloadAdmission = "admission"

// Admission mounts an admission engine (internal/engine, §§2–3) as the
// "admission" workload: POST /v1/admission takes one request
// {"edges":[0,1],"cost":2.5} or an array of them and streams one NDJSON
// decision line per request; GET /v1/admission/stats reports engine and
// pipeline statistics. The caller retains ownership of the engine. The
// engine is also recorded as the admin control plane's capacity-resize
// target (effective when Config.AdminToken mounts the /admin/v1/* group).
func Admission(eng *engine.Engine) Registration {
	return mountAdmission(eng, admissionCodec(eng))
}

// AdmissionDurable mounts the admission workload with its decisions logged
// through the write-ahead log (internal/wal, DESIGN.md §12): every decision
// is appended and group-commit-fsynced before it is released to the client,
// and the pipeline snapshots the log every opts.SnapshotEvery decisions.
// The log must be open with the engine's Fingerprint, and — when the
// directory held prior state — already replayed into eng with
// RecoverAdmission. All engine traffic must flow through the server. The
// engine is recorded as the admin control plane's resize target but marked
// durable, so live capacity resizes are refused with 409: resizes are not
// WAL-logged, and a recovery replay into the constructed capacity vector
// would silently diverge from the resized history.
func AdmissionDurable(eng *engine.Engine, log *wal.Log, opts DurableOptions) Registration {
	return mountAdmission(eng, logged(admissionCodec(eng), log, opts, eng.StateDigest, recordAdmission))
}

// mountAdmission mounts codec over eng as the admission workload and
// records eng as the admin plane's resize target, marked durable when the
// codec is.
func mountAdmission(eng *engine.Engine, codec Codec[problem.Request, engine.Decision]) Registration {
	return func(s *Server) error {
		if err := Register(WorkloadAdmission, eng, codec)(s); err != nil {
			return err
		}
		s.setAdminEngine(eng, codec.Durability != nil)
		return nil
	}
}

// recordAdmission fills rec with the WAL record of one admission decision.
func recordAdmission(r problem.Request, d engine.Decision, rec *wal.Record) {
	*rec = wal.Record{
		Kind:         wal.KindAdmission,
		AdmissionReq: wire.AdmissionRequest{Edges: r.Edges, Cost: r.Cost},
		AdmissionDec: admissionLine(d),
	}
}

// admissionCodec is the admission workload's codec, shared by the durable
// and in-memory registrations.
func admissionCodec(eng *engine.Engine) Codec[problem.Request, engine.Decision] {
	return Codec[problem.Request, engine.Decision]{
		Encode:  encodeAdmission,
		Stats:   func(q QueueState) any { return admissionStats(eng, q) },
		Metrics: func(reg *metrics.Registry) func(engine.Decision) { return admissionMetrics(reg, eng) },
		Wire: &WireCodec[problem.Request, engine.Decision]{
			DecodeRequest:  decodeAdmissionRequest,
			AppendDecision: appendAdmissionDecision,
		},
	}
}

// admissionLine maps an engine decision onto its wire line. It is the one
// field mapping behind every admission and cluster JSON line, binary frame
// and WAL record: DecisionJSON is the same struct with JSON tags.
func admissionLine(d engine.Decision) wire.AdmissionDecision {
	line := wire.AdmissionDecision{ID: d.ID, Accepted: d.Accepted, CrossShard: d.CrossShard, Preempted: d.Preempted}
	if d.Err != nil {
		line.Error = d.Err.Error()
	}
	return line
}

// encodeAdmission renders an admission or cluster decision as its NDJSON
// line.
func encodeAdmission(d engine.Decision) any { return DecisionJSON(admissionLine(d)) }

// appendAdmissionDecision frames an admission or cluster decision; the
// cluster workload and the router reuse the admission decision frame byte
// for byte.
func appendAdmissionDecision(buf []byte, d engine.Decision) []byte {
	line := admissionLine(d)
	return wire.AppendAdmissionDecision(buf, &line)
}

// decodeAdmissionRequest decodes one admission request frame, for the
// admission workload and the router alike.
func decodeAdmissionRequest(payload []byte) (problem.Request, error) {
	var wr wire.AdmissionRequest
	if err := wire.DecodeAdmissionRequest(payload, &wr); err != nil {
		return problem.Request{}, err
	}
	return problem.Request{Edges: wr.Edges, Cost: wr.Cost}, nil
}

// AdmissionClientWire returns the client-side binary hooks for the
// admission workload: requests frame as wire.AdmissionRequest, decision
// frames (including whole-batch wire.TagStreamError lines) decode into the
// same DecisionJSON lines the NDJSON client yields.
func AdmissionClientWire() ClientWire[problem.Request, DecisionJSON] {
	return ClientWire[problem.Request, DecisionJSON]{
		AppendRequest: func(buf []byte, r problem.Request) []byte {
			return wire.AppendAdmissionRequest(buf, r.Edges, r.Cost)
		},
		DecodeDecision: func(payload []byte) (DecisionJSON, error) {
			if msg, ok, err := streamError(payload); ok || err != nil {
				return DecisionJSON{Error: msg}, err
			}
			var wd wire.AdmissionDecision
			if err := wire.DecodeAdmissionDecision(payload, &wd); err != nil {
				return DecisionJSON{}, err
			}
			return DecisionJSON(wd), nil
		},
	}
}

// DecisionJSON is the wire form of one admission decision (one NDJSON line
// of a /v1/admission response). Error is set instead of the decision
// fields when the submission failed inside the engine.
type DecisionJSON struct {
	// ID is the engine-assigned global request ID.
	ID int `json:"id"`
	// Accepted reports admission; single-shard accepts may later be
	// preempted, cross-shard accepts are permanent.
	Accepted bool `json:"accepted"`
	// CrossShard reports that the request took the two-phase path.
	CrossShard bool `json:"cross_shard,omitempty"`
	// Preempted lists global IDs of requests evicted by this decision.
	Preempted []int `json:"preempted,omitempty"`
	// Error carries an engine-level failure for this submission.
	Error string `json:"error,omitempty"`
}

// ErrorText returns the per-line failure, satisfying the load generator's
// wire-decision contract.
func (d DecisionJSON) ErrorText() string { return d.Error }

func (d DecisionJSON) addTo(r *LoadReport) {
	if d.Accepted {
		r.Accepted++
	}
	r.Preempted += int64(len(d.Preempted))
}

// StatsJSON is the /v1/admission/stats response body.
type StatsJSON struct {
	// Requests .. RejectedCost mirror engine.Stats.
	Requests           int64   `json:"requests"`
	Accepted           int64   `json:"accepted"`
	Rejected           int64   `json:"rejected"`
	CrossShard         int64   `json:"cross_shard"`
	CrossShardAccepted int64   `json:"cross_shard_accepted"`
	Preemptions        int64   `json:"preemptions"`
	RejectedCost       float64 `json:"rejected_cost"`
	// Shards is the per-shard occupancy view.
	Shards []ShardJSON `json:"shards"`
	// QueueDepth is the number of items waiting in the pipeline.
	QueueDepth int `json:"queue_depth"`
	// Draining reports whether Drain has been initiated.
	Draining bool `json:"draining"`
}

// ShardJSON is one shard's row in StatsJSON.
type ShardJSON struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Requests counts single-shard requests decided by this shard.
	Requests int `json:"requests"`
	// Preemptions counts in-shard accept-then-reject events.
	Preemptions int `json:"preemptions"`
	// Load and Capacity give the shard's integral occupancy.
	Load     int `json:"load"`
	Capacity int `json:"capacity"`
}

// admissionStats renders the admission stats body from an engine snapshot.
func admissionStats(eng *engine.Engine, q QueueState) StatsJSON {
	st := eng.Snapshot()
	out := StatsJSON{
		Requests:           st.Requests,
		Accepted:           st.Accepted,
		Rejected:           st.Requests - st.Accepted,
		CrossShard:         st.CrossShard,
		CrossShardAccepted: st.CrossShardAccepted,
		Preemptions:        st.Preemptions,
		RejectedCost:       st.RejectedCost,
		QueueDepth:         q.Depth,
		Draining:           q.Draining,
	}
	for _, sh := range eng.ShardStats() {
		out.Shards = append(out.Shards, ShardJSON{
			Shard:       sh.Shard,
			Requests:    sh.Requests,
			Preemptions: sh.Preemptions,
			Load:        sh.Load,
			Capacity:    sh.Capacity,
		})
	}
	return out
}

// admissionMetrics registers the admission-specific collectors and returns
// the per-decision observer feeding them.
func admissionMetrics(reg *metrics.Registry, eng *engine.Engine) func(engine.Decision) {
	accepts := reg.NewCounter("acserve_admission_accept_total",
		"Requests admitted by the engine (may later be preempted).")
	rejects := reg.NewCounter("acserve_admission_reject_total",
		"Requests rejected on arrival.")
	preempts := reg.NewCounter("acserve_admission_preemptions_total",
		"Previously accepted requests preempted by later decisions.")
	reg.NewGaugeFunc("acserve_admission_shard_occupancy",
		"Per-shard integral load (incl. cross-shard reservations) over shard capacity.",
		func() []metrics.Sample {
			per := eng.ShardStats()
			out := make([]metrics.Sample, len(per))
			for i, st := range per {
				occ := 0.0
				if st.Capacity > 0 {
					occ = float64(st.Load) / float64(st.Capacity)
				}
				out[i] = metrics.Sample{
					Labels: map[string]string{"shard": fmt.Sprint(st.Shard)},
					Value:  occ,
				}
			}
			return out
		})
	return func(d engine.Decision) {
		if d.Accepted {
			accepts.Inc()
		} else {
			rejects.Inc()
		}
		preempts.Add(float64(len(d.Preempted)))
	}
}
