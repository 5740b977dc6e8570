package server

import (
	"context"
	"fmt"

	"admission/internal/cluster"
	"admission/internal/engine"
	"admission/internal/metrics"
	"admission/internal/problem"
	"admission/internal/wal"
	"admission/internal/wire"
)

// ClusterBackend mounts a cluster backend (internal/cluster, DESIGN.md
// §14) as the "cluster" workload: POST /v1/cluster takes cluster
// operations — JSON ({"op":"offer","edges":[0,1],"cost":2.5},
// {"op":"reserve","tx":7,"edges":[2]}, {"op":"commit","tx":7}) or the
// binary wire protocol — and streams one decision per operation; GET
// /v1/cluster/stats reports the backend's identity and applied history
// (the router's resync watermark). The caller retains ownership of the
// backend.
func ClusterBackend(b *cluster.Backend) Registration {
	return Register(cluster.Workload, b, clusterCodec(b))
}

// clusterBackendDurable mounts the cluster workload with its decisions
// logged through the write-ahead log (wal.KindCluster): every applied
// operation — offers, reserves, settles, including no-op settles — is
// appended and fsynced before its decision is released, which is what
// makes the backend's Requests counter a durable applied watermark the
// router can reconcile against after a crash. ClusterNode opens the log
// with the backend engine's Fingerprint and replays it into b first.
func clusterBackendDurable(b *cluster.Backend, log *wal.Log, opts DurableOptions) Registration {
	codec := logged(clusterCodec(b), log, opts, b.StateDigest, func(op cluster.Op, d engine.Decision, rec *wal.Record) {
		*rec = wal.Record{
			Kind:         wal.KindCluster,
			ClusterOp:    byte(op.Kind),
			ClusterTx:    op.Tx,
			AdmissionReq: wire.AdmissionRequest{Edges: op.Edges, Cost: op.Cost},
			AdmissionDec: admissionLine(d),
		}
	})
	return Register(cluster.Workload, b, codec)
}

// clusterCodec is the cluster workload's codec, shared by the durable and
// in-memory registrations.
func clusterCodec(b *cluster.Backend) Codec[cluster.Op, engine.Decision] {
	return Codec[cluster.Op, engine.Decision]{
		Encode: encodeAdmission,
		Stats: func(q QueueState) any {
			st := b.Stats()
			return cluster.BackendStatsJSON{
				Fingerprint: b.Fingerprint(),
				StateDigest: fmt.Sprintf("%016x", b.StateDigest()),
				Requests:    st.Requests,
				Accepted:    st.Accepted,
				Errors:      st.Errors,
				OpenTxs:     b.OpenTxs(),
				Shards:      st.Shards,
				QueueDepth:  q.Depth,
				Draining:    q.Draining,
			}
		},
		Metrics: clusterMetrics(b),
		Wire: &WireCodec[cluster.Op, engine.Decision]{
			DecodeRequest:  cluster.DecodeOp,
			AppendDecision: appendAdmissionDecision,
		},
	}
}

// recoverCluster is RecoverAdmission for a cluster decision log. On
// success the backend holds exactly the pre-crash state — engine and
// transaction table both, the table being a pure function of the replayed
// stream.
func recoverCluster(log *wal.Log, b *cluster.Backend) (RecoveryInfo, error) {
	ctx := context.Background()
	w := &walReplay[cluster.Op, engine.Decision]{
		log: log,
		fromRecord: func(rec *wal.Record) cluster.Op {
			return cluster.Op{Kind: cluster.OpKind(rec.ClusterOp), Tx: rec.ClusterTx, Edges: rec.AdmissionReq.Edges, Cost: rec.AdmissionReq.Cost}
		},
		submit: func(ops []cluster.Op) ([]engine.Decision, error) {
			return b.SubmitBatch(ctx, ops)
		},
		match:  matchAdmission,
		digest: b.StateDigest,
	}
	return w.run()
}

// clusterMetrics registers the cluster-specific collectors and returns the
// per-decision observer feeding them.
func clusterMetrics(b *cluster.Backend) func(reg *metrics.Registry) func(engine.Decision) {
	return func(reg *metrics.Registry) func(engine.Decision) {
		accepts := reg.NewCounter("acserve_cluster_accept_total",
			"Cluster operations granted by the backend engine.")
		rejects := reg.NewCounter("acserve_cluster_reject_total",
			"Cluster operations refused on arrival.")
		reg.NewGaugeFunc("acserve_cluster_open_txs",
			"Granted, unsettled cross-backend transactions.",
			func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(b.OpenTxs())}}
			})
		return func(d engine.Decision) {
			if d.Accepted {
				accepts.Inc()
			} else {
				rejects.Inc()
			}
		}
	}
}

// RouterStatsJSON is the router's /v1/admission/stats response body: the
// admission-shaped totals acload reads, plus the reconciliation ledger.
type RouterStatsJSON struct {
	// Requests .. RejectedCost mirror the admission stats body so load
	// tooling reads a router exactly like a single engine.
	Requests     int64   `json:"requests"`
	Accepted     int64   `json:"accepted"`
	Rejected     int64   `json:"rejected"`
	RejectedCost float64 `json:"rejected_cost"`
	// ShedRefusals counts typed partition-down refusals; CrossBackend the
	// requests that took the two-phase cross-backend path.
	ShedRefusals int64 `json:"shed_refusals"`
	CrossBackend int64 `json:"cross_backend"`
	// Backends is the router's per-backend ledger.
	Backends []cluster.BackendLedger `json:"backends"`
	// QueueDepth and Draining describe the serving pipeline.
	QueueDepth int  `json:"queue_depth"`
	Draining   bool `json:"draining"`
}

// RouterAdmission mounts a cluster router as the "admission" workload:
// clients submit plain admission requests — JSON or binary wire, exactly
// as against a single acserve — and the router consistent-hashes them
// across its backends. The stats body carries the reconciliation ledger
// instead of per-shard occupancy (the router has no shards of its own).
func RouterAdmission(r *cluster.Router) Registration {
	codec := Codec[problem.Request, engine.Decision]{
		Encode: encodeAdmission,
		Stats: func(q QueueState) any {
			led := r.Ledger()
			return RouterStatsJSON{
				Requests:     led.Requests,
				Accepted:     led.Accepted,
				Rejected:     led.Requests - led.Accepted,
				RejectedCost: led.RejectedCost,
				ShedRefusals: led.ShedRefusals,
				CrossBackend: led.CrossBackend,
				Backends:     led.Backends,
				QueueDepth:   q.Depth,
				Draining:     q.Draining,
			}
		},
		Wire: &WireCodec[problem.Request, engine.Decision]{
			DecodeRequest:  decodeAdmissionRequest,
			AppendDecision: appendAdmissionDecision,
		},
	}
	return Register(WorkloadAdmission, r, codec)
}
