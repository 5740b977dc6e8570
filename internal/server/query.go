package server

import (
	"admission/internal/lca"
	"admission/internal/metrics"
	"admission/internal/wire"
)

// WorkloadQuery is the route name of the built-in local-computation query
// workload (POST /v1/query).
const WorkloadQuery = "query"

// Query mounts a local-computation query engine (internal/lca, DESIGN.md
// §13) as the "query" workload: POST /v1/query takes one query
// {"pos":17} or an array of them and streams one NDJSON
// reconstructed-decision line per query; GET /v1/query/stats reports query
// engine statistics. The caller retains ownership of the engine. Unlike
// the streaming workloads the engine answers positions in any order:
// answers come from its shared decided prefix, extended on demand, so a
// query never changes another query's answer.
func Query(eng *lca.Engine) Registration {
	return Register(WorkloadQuery, eng, queryCodec(eng))
}

// QueryLine maps a query engine answer onto its NDJSON line: its wire
// decision rendered as a client renders a decoded frame. It is the one
// mapping behind the served JSON lines and binary frames, the clients'
// decoded lines and acquery's local answers, so none of them can drift.
func QueryLine(a lca.Answer) QueryDecisionJSON { return QueryDecisionJSON(queryDecision(a)) }

// queryDecision maps a query engine answer onto its wire decision.
func queryDecision(a lca.Answer) wire.QueryDecision {
	wd := wire.QueryDecision{
		Pos:       a.Pos,
		Accepted:  a.Accepted,
		Preempted: a.Preempted,
		Replayed:  a.Replayed,
	}
	if a.Err != nil {
		wd.Error = a.Err.Error()
	}
	return wd
}

// queryCodec is the query workload's codec.
func queryCodec(eng *lca.Engine) Codec[lca.Query, lca.Answer] {
	return Codec[lca.Query, lca.Answer]{
		Encode:  func(a lca.Answer) any { return QueryLine(a) },
		Stats:   func(q QueueState) any { return queryStats(eng, q) },
		Metrics: func(reg *metrics.Registry) func(lca.Answer) { return queryMetrics(reg, eng) },
		Wire: &WireCodec[lca.Query, lca.Answer]{
			DecodeRequest: func(payload []byte) (lca.Query, error) {
				var wq wire.QueryRequest
				if err := wire.DecodeQueryRequest(payload, &wq); err != nil {
					return lca.Query{}, err
				}
				return lca.Query{Pos: wq.Pos}, nil
			},
			AppendDecision: func(buf []byte, a lca.Answer) []byte {
				wd := queryDecision(a)
				return wire.AppendQueryDecision(buf, &wd)
			},
		},
	}
}

// QueryClientWire returns the client-side binary hooks for the query
// workload: queries frame as wire.QueryRequest, decision frames (including
// whole-batch wire.TagStreamError lines) decode into the same
// QueryDecisionJSON lines the NDJSON client yields.
func QueryClientWire() ClientWire[lca.Query, QueryDecisionJSON] {
	return ClientWire[lca.Query, QueryDecisionJSON]{
		AppendRequest: func(buf []byte, q lca.Query) []byte {
			wq := wire.QueryRequest{Pos: q.Pos}
			return wire.AppendQueryRequest(buf, &wq)
		},
		DecodeDecision: func(payload []byte) (QueryDecisionJSON, error) {
			if msg, ok, err := streamError(payload); ok || err != nil {
				return QueryDecisionJSON{Error: msg}, err
			}
			var wd wire.QueryDecision
			if err := wire.DecodeQueryDecision(payload, &wd); err != nil {
				return QueryDecisionJSON{}, err
			}
			return QueryDecisionJSON(wd), nil
		},
	}
}

// QueryDecisionJSON is the wire form of one reconstructed query decision
// (one NDJSON line of a /v1/query response). Its decision fields (Pos =
// streaming ID, Accepted, Preempted) are line-comparable with
// DecisionJSON, the property experiment E18 gates on.
type QueryDecisionJSON struct {
	// Pos is the queried arrival position (the streaming engine's ID).
	Pos int `json:"pos"`
	// Accepted reports admission at Pos.
	Accepted bool `json:"accepted"`
	// Preempted lists global positions evicted by this decision.
	Preempted []int `json:"preempted,omitempty"`
	// Replayed is the length of the arrival prefix the answer reflects
	// (Pos+1).
	Replayed int `json:"replayed,omitempty"`
	// Error carries a per-query failure.
	Error string `json:"error,omitempty"`
}

// ErrorText returns the per-line failure, satisfying the load generator's
// wire-decision contract.
func (d QueryDecisionJSON) ErrorText() string { return d.Error }

// addTo counts accepted answers and preempted positions exactly like their
// streaming counterparts.
func (d QueryDecisionJSON) addTo(r *LoadReport) {
	if d.Accepted {
		r.Accepted++
	}
	r.Preempted += int64(len(d.Preempted))
}

// QueryStatsJSON is the /v1/query/stats response body.
type QueryStatsJSON struct {
	// Workload .. Seed give the source arrival-order spec, so a client can
	// check it queries the sequence it thinks it does.
	Workload  string `json:"workload"`
	Model     string `json:"model"`
	Capacity  int    `json:"capacity"`
	Positions int    `json:"positions"`
	Seed      uint64 `json:"seed"`
	// Workers is the engine's concurrent-query bound.
	Workers int `json:"workers"`
	// Queries .. Errors mirror the engine's service.Stats.
	Queries  int64 `json:"queries"`
	Accepted int64 `json:"accepted"`
	Errors   int64 `json:"errors"`
	// SimulatedArrivals is the number of arrivals the engine has offered
	// to its frontier to answer queries (lca.Engine.Simulated), the tier's
	// local-computation cost: each position once, however often it is
	// asked. The acserve_query_simulated_arrivals gauge reads the same.
	SimulatedArrivals int64 `json:"simulated_arrivals"`
	// QueueDepth is the number of items waiting in the pipeline.
	QueueDepth int `json:"queue_depth"`
	// Draining reports whether Drain has been initiated.
	Draining bool `json:"draining"`
}

// queryStats renders the query stats body from an engine snapshot.
func queryStats(eng *lca.Engine, q QueueState) QueryStatsJSON {
	st := eng.Stats()
	src := eng.Source()
	return QueryStatsJSON{
		Workload:          src.Workload,
		Model:             src.Model.String(),
		Capacity:          src.Capacity,
		Positions:         eng.Positions(),
		Seed:              src.Seed,
		Workers:           eng.Workers(),
		Queries:           st.Requests,
		Accepted:          st.Accepted,
		Errors:            st.Errors,
		SimulatedArrivals: eng.Simulated(),
		QueueDepth:        q.Depth,
		Draining:          q.Draining,
	}
}

// queryMetrics registers the query-specific collectors and returns the
// per-decision observer feeding them.
func queryMetrics(reg *metrics.Registry, eng *lca.Engine) func(lca.Answer) {
	accepts := reg.NewCounter("acserve_query_accept_total",
		"Queries answered with an accepted decision.")
	rejects := reg.NewCounter("acserve_query_reject_total",
		"Queries answered with a rejected decision.")
	reg.NewGaugeFunc("acserve_query_simulated_arrivals",
		"Arrivals the lca engine has simulated to answer queries (the tier's local-computation cost).",
		func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(eng.Simulated())}}
		})
	reg.NewGaugeFunc("acserve_query_workers",
		"Concurrent query-simulation bound of the lca engine.",
		func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(eng.Workers())}}
		})
	return func(a lca.Answer) {
		if a.Accepted {
			accepts.Inc()
		} else {
			rejects.Inc()
		}
	}
}
