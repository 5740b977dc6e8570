package admission

import (
	"admission/internal/engine"
	"admission/internal/graph"
	"admission/internal/service"
)

// Sharded concurrent serving layer (see DESIGN.md §5 and §10). The Engine
// partitions the edge set into shards, each owning an independent §2/§3
// instance behind one lock, and serves concurrent Submit calls on the
// submitting goroutine, under the shard locks taken in ascending order: a
// request whose edges one shard owns is decided on that shard, a
// cross-shard request by a two-phase reserve/commit across the shards it
// involves. Only a batch left with items pending on two or more shards
// hands them to the shards' event loops, which decide them in parallel.
// The Engine implements the generic Service contract — context-aware
// Submit and SubmitBatch, uniform ServiceStats, Drain and Close — which is
// what the network-facing service (cmd/acserve, DESIGN.md §7) serves it
// through.
type (
	// Engine is the sharded concurrent admission server. Submit and
	// SubmitBatch are safe for concurrent use by any number of goroutines;
	// Close drains in-flight submissions and leaves exact statistics
	// readable.
	Engine = engine.Engine
	// Decision reports the engine's reaction to one submitted request:
	// the assigned global ID, acceptance, whether the request crossed
	// shards, and any requests preempted as a consequence.
	Decision = engine.Decision
	// EngineStats is the engine's full statistics snapshot
	// (accept/reject/preemption totals, rejected cost, per-edge loads),
	// returned by Engine.Snapshot; the uniform cross-workload view is
	// ServiceStats, returned by Engine.Stats.
	EngineStats = engine.Stats
	// EngineShardStat is one shard's load/occupancy snapshot, the per-shard
	// view behind acserve's /metrics occupancy gauges.
	EngineShardStat = engine.ShardStat
)

// Generic serving contract (see DESIGN.md §10): every workload engine in
// this module is served through one Service shape — the admission Engine
// as Service[Request, Decision], the CoverEngine as
// Service[int, CoverDecision].
type (
	// Service is the uniform query→decision serving contract: Submit,
	// SubmitBatch and SubmitBatchPrevalidated, plus Validate, Stats, Drain
	// and Close.
	Service[Req any, Dec service.Decision] = service.Service[Req, Dec]
	// ServiceDecision is the constraint served decision types satisfy: a
	// decision can carry a per-item failure.
	ServiceDecision = service.Decision
	// ServiceStats is the uniform statistics snapshot every Service
	// exposes.
	ServiceStats = service.Stats
)

// The engines implement the generic contract.
var (
	_ Service[Request, Decision]  = (*Engine)(nil)
	_ Service[int, CoverDecision] = (*CoverEngine)(nil)
)

// ErrEngineClosed is returned by Engine.Submit after Close.
var ErrEngineClosed = engine.ErrClosed

// NewEngine creates a sharded admission engine over the capacity vector,
// configured by functional options:
//
//	eng, err := admission.NewEngine(caps, admission.WithShards(8), admission.WithSeed(42))
//
// With no options it is a single-shard engine over the paper's weighted
// constants — equivalent to the unsharded §3 algorithm. Use WithShards (or
// WithPartition, e.g. from PartitionEdges on a topology) to scale across
// cores; Submit is safe for concurrent use by any number of goroutines.
// The cover-only options WithMode and WithEps are rejected.
func NewEngine(capacities []int, opts ...Option) (*Engine, error) {
	o, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.mode != nil {
		return nil, errOptionScope("WithMode", "NewCoverEngine")
	}
	if o.eps != nil {
		return nil, errOptionScope("WithEps", "NewCoverEngine")
	}
	return engine.New(capacities, engine.Config{
		Shards:    o.shards,
		Partition: o.partition,
		Algorithm: o.admissionAlgorithm(),
	})
}

// PartitionEdges computes a locality-preserving partition of the index range
// [0, m) into at most k contiguous balanced shards, suitable for
// WithPartition when no topology is available. Experiments with a real
// topology should use the graph package's BFS partition instead (the
// harness's E11 does).
func PartitionEdges(m, k int) ([][]int, error) { return graph.PartitionRange(m, k) }
