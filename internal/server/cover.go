package server

import (
	"admission/internal/coverengine"
	"admission/internal/metrics"
	"admission/internal/wal"
	"admission/internal/wire"
)

// WorkloadCover is the route name of the built-in set cover workload
// (POST /v1/cover).
const WorkloadCover = "cover"

// Cover mounts a set cover engine (internal/coverengine, §§4–5) as the
// "cover" workload: POST /v1/cover takes one element id (e.g. 3) or an
// array (e.g. [0,4,4]) and streams one NDJSON "sets chosen" decision line
// per arrival; GET /v1/cover/stats reports cover engine statistics. The
// caller retains ownership of the engine. Cover submissions ride the same
// generic batching pipeline as every workload; one connection therefore
// remains FIFO end to end and the decision stream is identical to driving
// the engine sequentially — the property experiment E15 gates on.
func Cover(cov *coverengine.Engine) Registration {
	return Register(WorkloadCover, cov, coverCodec(cov))
}

// coverDurable mounts the set cover workload with its decisions logged
// through the write-ahead log, exactly as AdmissionDurable does for the
// admission workload; CoverNode opens and recovers the log first.
func coverDurable(cov *coverengine.Engine, log *wal.Log, opts DurableOptions) Registration {
	codec := logged(coverCodec(cov), log, opts, cov.StateDigest, func(element int, d coverengine.Decision, rec *wal.Record) {
		*rec = wal.Record{Kind: wal.KindCover, Element: element, CoverDec: coverLine(d)}
	})
	return Register(WorkloadCover, cov, codec)
}

// coverCodec is the cover workload's codec, shared by the durable and
// in-memory registrations.
func coverCodec(cov *coverengine.Engine) Codec[int, coverengine.Decision] {
	return Codec[int, coverengine.Decision]{
		Encode:  func(d coverengine.Decision) any { return CoverDecisionJSON(coverLine(d)) },
		Stats:   func(q QueueState) any { return coverStats(cov, q) },
		Metrics: func(reg *metrics.Registry) func(coverengine.Decision) { return coverMetrics(reg, cov) },
		Wire: &WireCodec[int, coverengine.Decision]{
			DecodeRequest: wire.DecodeCoverRequest,
			AppendDecision: func(buf []byte, d coverengine.Decision) []byte {
				line := coverLine(d)
				return wire.AppendCoverDecision(buf, &line)
			},
		},
	}
}

// coverLine maps a cover engine decision onto its wire line. It is the one
// field mapping behind every cover JSON line, binary frame and WAL record:
// CoverDecisionJSON is the same struct with JSON tags.
func coverLine(d coverengine.Decision) wire.CoverDecision {
	line := wire.CoverDecision{Seq: d.Seq, Element: d.Element, Arrival: d.Arrival, NewSets: d.NewSets, AddedCost: d.AddedCost}
	if d.Err != nil {
		line.Error = d.Err.Error()
	}
	return line
}

// CoverClientWire returns the client-side binary hooks for the set cover
// workload: elements frame as wire.CoverRequest, decision frames
// (including whole-batch wire.TagStreamError lines) decode into the same
// CoverDecisionJSON lines the NDJSON client yields.
func CoverClientWire() ClientWire[int, CoverDecisionJSON] {
	return ClientWire[int, CoverDecisionJSON]{
		AppendRequest: wire.AppendCoverRequest,
		DecodeDecision: func(payload []byte) (CoverDecisionJSON, error) {
			if msg, ok, err := streamError(payload); ok || err != nil {
				return CoverDecisionJSON{Error: msg}, err
			}
			var wd wire.CoverDecision
			if err := wire.DecodeCoverDecision(payload, &wd); err != nil {
				return CoverDecisionJSON{}, err
			}
			return CoverDecisionJSON(wd), nil
		},
	}
}

// CoverDecisionJSON is the wire form of one cover decision (one NDJSON
// line of a /v1/cover response). Error is set instead of the decision
// fields when the arrival was refused (e.g. an element arriving more often
// than its degree).
type CoverDecisionJSON struct {
	// Seq is the engine-assigned global arrival sequence number.
	Seq int `json:"seq"`
	// Element is the element that arrived.
	Element int `json:"element"`
	// Arrival is k: how many times the element has now arrived.
	Arrival int `json:"arrival"`
	// NewSets lists global ids of sets newly bought by this arrival.
	NewSets []int `json:"new_sets,omitempty"`
	// AddedCost is the total cost of NewSets.
	AddedCost float64 `json:"added_cost,omitempty"`
	// Error carries a per-arrival refusal.
	Error string `json:"error,omitempty"`
}

// ErrorText returns the per-line refusal, satisfying the load generator's
// wire-decision contract.
func (d CoverDecisionJSON) ErrorText() string { return d.Error }

func (d CoverDecisionJSON) addTo(r *LoadReport) {
	r.SetsBought += int64(len(d.NewSets))
	r.CostAdded += d.AddedCost
}

// CoverStatsJSON is the /v1/cover/stats response body.
type CoverStatsJSON struct {
	// Mode names the per-shard algorithm ("reduction" or "bicriteria").
	Mode string `json:"mode"`
	// Shards is the element-partition shard count.
	Shards int `json:"shards"`
	// Elements and Sets give the registered instance's dimensions.
	Elements int `json:"elements"`
	Sets     int `json:"sets"`
	// Arrivals .. Augmentations mirror coverengine.Stats.
	Arrivals      int64   `json:"arrivals"`
	Errors        int64   `json:"errors"`
	ChosenSets    int     `json:"chosen_sets"`
	Cost          float64 `json:"cost"`
	Preemptions   int64   `json:"preemptions"`
	Augmentations int64   `json:"augmentations"`
	// QueueDepth is the number of items waiting in the pipeline.
	QueueDepth int `json:"queue_depth"`
	// Draining reports whether Drain has been initiated.
	Draining bool `json:"draining"`
}

// coverStats renders the cover stats body from an engine snapshot.
func coverStats(cov *coverengine.Engine, q QueueState) CoverStatsJSON {
	st := cov.Snapshot()
	return CoverStatsJSON{
		Mode:          cov.Mode().String(),
		Shards:        cov.Shards(),
		Elements:      cov.NumElements(),
		Sets:          cov.NumSets(),
		Arrivals:      st.Arrivals,
		Errors:        st.Errors,
		ChosenSets:    st.ChosenSets,
		Cost:          st.Cost,
		Preemptions:   st.Preemptions,
		Augmentations: st.Augmentations,
		QueueDepth:    q.Depth,
		Draining:      q.Draining,
	}
}

// coverMetrics registers the cover-specific collectors and returns the
// per-decision observer feeding them.
func coverMetrics(reg *metrics.Registry, cov *coverengine.Engine) func(coverengine.Decision) {
	sets := reg.NewCounter("acserve_cover_sets_chosen_total",
		"Sets newly bought by cover decisions.")
	cost := reg.NewCounter("acserve_cover_cost_total",
		"Total cost of sets bought by cover decisions.")
	reg.NewGaugeFunc("acserve_cover_chosen_sets",
		"Distinct sets in the cover engine's global ledger.",
		func() []metrics.Sample {
			// ChosenCount reads the ledger mutex only — no per-scrape
			// walk over the shards' locks.
			return []metrics.Sample{{Value: float64(cov.ChosenCount())}}
		})
	return func(d coverengine.Decision) {
		sets.Add(float64(len(d.NewSets)))
		cost.Add(d.AddedCost)
	}
}
