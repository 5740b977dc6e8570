// Package engine implements the sharded concurrent admission engine (see
// DESIGN.md §5): a thread-safe serving layer that partitions the edge set
// into K shards, runs an independent instance of the paper's §2/§3
// algorithms inside each shard, and routes every incoming request to the
// shard(s) owning its edges.
//
// Concurrency model. Each shard of the shard runtime (internal/shard) owns
// all of its state — the §3 randomized algorithm over the shard's local
// capacity vector, the local→global edge map and the map of its
// preemptible (accepted) requests, and the cross-shard reservation
// counters — behind one lock. The submitting goroutine decides
// under those locks whatever it would otherwise wait for: a cross-shard
// request, the pending items of the shards it involves, a batch that
// touches one shard, settles, resizes and snapshots. Only a batch that
// ends with items pending on two or more shards sends them to the shards'
// event loops, which decide them in parallel. Locks are taken in
// ascending shard order and never held across a send or a wait, so there
// is no deadlock.
//
// Requests whose edges all live in one shard are offered to that shard's
// §3 instance, preserving the paper's competitive guarantee within the
// shard; a batch's consecutive single-shard requests for one shard are
// decided as one run. Requests spanning shards take the two-phase path:
// the submitting goroutine locks the involved shards, reserves one
// capacity unit per edge on each (reserve = §4 capacity shrink, granted
// only when the edge has a free integral slot and remaining fractional
// adjusted capacity), then commits if every shard granted, or aborts
// (grow back) if any refused. Cross-shard accepts are permanent — they
// are never preempted — which is exactly the semantics the §4 reduction
// gives a shrunk capacity unit.
//
// Determinism: with a single submitting goroutine and one shard the engine
// reproduces the unsharded §3 algorithm decision-for-decision given the same
// seed (tested); with K shards each shard's decision stream is deterministic
// in its own arrival order, and a golden trace pins it.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"admission/internal/core"
	"admission/internal/problem"
	"admission/internal/service"
	"admission/internal/shard"
)

// The Engine implements the repository-wide generic serving contract
// (DESIGN.md §10): the HTTP layer, client and load generator are written
// against service.Service and serve this engine unchanged.
var _ service.Service[problem.Request, Decision] = (*Engine)(nil)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("engine: closed")

// batch is one batch submission's working memory, recycled through
// batchPool: the shard runtime's run layout, the flat buffer the items'
// local edge indices live in, and the current cross-shard request's spans.
type batch struct {
	shard.Batch[item]
	edges []int
	spans []span
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

// Config configures the engine.
type Config struct {
	// Shards is the number of edge-set partitions K (default 1, clamped to
	// the number of edges). Ignored when Partition is set.
	Shards int
	// Algorithm configures the per-shard §3 instances. Shard i's seed is
	// derived from Algorithm.Seed so distinct shards flip independent coins;
	// shard 0 uses Algorithm.Seed itself, which makes the single-shard
	// engine bit-identical to the unsharded algorithm.
	Algorithm core.Config
	// Partition optionally fixes the edge partition: Partition[s] lists the
	// global edge IDs owned by shard s. Every edge must appear exactly once.
	// When nil, a contiguous balanced partition over [0, m) is used
	// (graph.PartitionRange); callers with a topology should prefer
	// (*graph.Graph).PartitionEdges for locality.
	Partition [][]int
}

// DefaultConfig returns a single-shard engine over the paper's weighted
// constants.
func DefaultConfig() Config {
	return Config{Shards: 1, Algorithm: core.DefaultConfig()}
}

// Decision reports the engine's reaction to one submitted request.
type Decision struct {
	// ID is the engine-assigned global request ID.
	ID int
	// Accepted reports whether the request was admitted. Single-shard
	// accepts may later be preempted (their IDs then appear in a subsequent
	// Decision's Preempted list); cross-shard accepts are permanent.
	Accepted bool
	// CrossShard reports whether the request spanned multiple shards and
	// took the two-phase path.
	CrossShard bool
	// Preempted lists global IDs of previously accepted requests rejected
	// as a consequence of this decision.
	Preempted []int
	// Err carries a per-request engine failure (only reachable through the
	// batch path; Submit returns such failures as its error instead). A
	// decision with Err set has no other meaningful fields beyond ID, and
	// the request was neither accepted nor charged as rejected.
	Err error
}

// DecisionErr returns the decision's per-request failure, satisfying the
// generic service.Decision constraint.
func (d Decision) DecisionErr() error { return d.Err }

// Stats is a snapshot of the engine's aggregate state. Under concurrent
// submission it is a consistent per-shard snapshot but only approximately
// consistent across shards; after Close it is exact. The serving layer
// (internal/server) exposes these fields — together with the per-shard
// ShardStats view — on its /metrics endpoint.
type Stats struct {
	Requests           int64
	Accepted           int64
	CrossShard         int64
	CrossShardAccepted int64
	// Preemptions counts accept-then-reject events across all shards.
	Preemptions int64
	// RejectedCost is the objective: Σ cost of rejected and preempted
	// requests, aggregated over shards and the cross-shard path.
	RejectedCost float64
	// Loads is the per-global-edge integral load, counting both shard-local
	// accepts and cross-shard reservations. Loads[e] ≤ Capacities[e] always.
	Loads []int
	// Capacities is the per-global-edge effective capacity: constructed
	// capacity plus admin grows, minus admin shrinks (cross-shard
	// reservations count as load, not as removed capacity).
	Capacities []int
}

// Engine is the sharded concurrent admission server. Submit is safe for
// concurrent use by any number of goroutines.
type Engine struct {
	caps      []int
	algCfg    core.Config
	edgeShard []int32 // global edge -> owning shard
	edgeLocal []int32 // global edge -> index within the shard
	shards    []*shardState
	rt        *shard.Runtime[item]

	nextID        atomic.Int64
	requests      atomic.Int64
	accepted      atomic.Int64
	errs          atomic.Int64 // per-request engine failures (Decision.Err / Submit error)
	crossShard    atomic.Int64
	crossAccepted atomic.Int64
	crossRejected atomicFloat64 // Σ cost of rejected cross-shard requests
}

// New creates an engine over the capacity vector.
func New(capacities []int, cfg Config) (*Engine, error) {
	if len(capacities) == 0 {
		return nil, fmt.Errorf("engine: no edges")
	}
	for e, c := range capacities {
		if c <= 0 {
			return nil, fmt.Errorf("engine: edge %d has capacity %d, want > 0", e, c)
		}
	}
	if err := cfg.Algorithm.Validate(); err != nil {
		return nil, err
	}
	parts, err := shard.Partition(len(capacities), cfg.Shards, cfg.Partition, "edge")
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}

	e := &Engine{
		caps:      append([]int(nil), capacities...),
		algCfg:    cfg.Algorithm,
		edgeShard: make([]int32, len(capacities)),
		edgeLocal: make([]int32, len(capacities)),
	}
	handlers := make([]shard.Handler[item], len(parts))
	for si, part := range parts {
		localCaps := make([]int, len(part))
		globalEdges := make([]int, len(part))
		for li, ge := range part {
			e.edgeShard[ge] = int32(si)
			e.edgeLocal[ge] = int32(li)
			localCaps[li] = capacities[ge]
			globalEdges[li] = ge
		}
		acfg := cfg.Algorithm
		acfg.Seed = shard.Seed(cfg.Algorithm.Seed, si)
		alg, err := core.NewRandomized(localCaps, acfg)
		if err != nil {
			return nil, fmt.Errorf("engine: shard %d: %w", si, err)
		}
		s := &shardState{
			idx:         si,
			alg:         alg,
			globalEdges: globalEdges,
			reserved:    make([]int, len(part)),
			committed:   make([]int, len(part)),
		}
		e.shards = append(e.shards, s)
		handlers[si] = s
	}
	e.rt = shard.Start(handlers)
	return e, nil
}

// Shards returns the number of shards.
func (e *Engine) Shards() int { return len(e.shards) }

// NumEdges returns the number of edges of the capacity vector the engine
// was created over.
func (e *Engine) NumEdges() int { return len(e.caps) }

// Validate checks a request against the engine's edge count and algorithm
// configuration without submitting it. It performs exactly the validation
// Submit would, so callers batching requests (the serving layer) can
// reject malformed items up front and submit only clean batches.
func (e *Engine) Validate(r problem.Request) error {
	if err := r.Validate(len(e.caps)); err != nil {
		return err
	}
	if e.algCfg.Unweighted && r.Cost != 1 {
		return fmt.Errorf("engine: unweighted mode requires cost 1, got %v", r.Cost)
	}
	return nil
}

// Submit offers one request to the engine and blocks until it is decided:
// Validate plus a batch of one. It is safe for concurrent use; each call
// is assigned a fresh global ID. Cancellation is honoured as in
// SubmitBatchPrevalidated.
func (e *Engine) Submit(ctx context.Context, r problem.Request) (Decision, error) {
	if err := e.Validate(r); err != nil {
		return Decision{}, err
	}
	ds, err := e.SubmitBatchPrevalidated(ctx, []problem.Request{r})
	if err != nil {
		return Decision{}, err
	}
	if ds[0].Err != nil {
		return Decision{}, ds[0].Err
	}
	return ds[0], nil
}

// singleShardOf returns the shard owning every listed edge, or -1 when the
// edges span shards.
func (e *Engine) singleShardOf(edges []int) int {
	single := int(e.edgeShard[edges[0]])
	for _, ge := range edges[1:] {
		if int(e.edgeShard[ge]) != single {
			return -1
		}
	}
	return single
}

// decideCross decides a request whose edges sp (sorted by shard) span
// shards, on the caller: it locks the involved shards in ascending order,
// reserves on each, releases the granted reservations if any shard
// refused, and unlocks. Every involved shard is asked even after a
// refusal: a granting shard's shrink draws coins and may preempt, and the
// decision stream depends on it.
func (e *Engine) decideCross(id int, sp []span, cost float64) (Decision, error) {
	e.lock(sp)
	defer e.unlock(sp)
	e.crossShard.Add(1)
	e.requests.Add(1)
	var grantedBuf [8]int
	granted := grantedBuf[:0] // group starts of the granting shards
	groups := 0
	var preempted []int
	var firstErr error
	for lo := 0; lo < len(sp); lo = groupEnd(sp, lo) {
		groups++
		ok, pre, err := e.shards[sp[lo].shard].reserve(sp[lo:groupEnd(sp, lo)])
		if err != nil && firstErr == nil {
			firstErr = err
		}
		preempted = append(preempted, pre...)
		if ok {
			granted = append(granted, lo)
		}
	}
	if len(granted) < groups {
		for _, lo := range granted {
			if err := e.shards[sp[lo].shard].release(sp[lo:groupEnd(sp, lo)]); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			e.errs.Add(1)
			return Decision{}, firstErr
		}
		e.crossRejected.Add(cost)
		return Decision{ID: id, CrossShard: true, Preempted: preempted}, nil
	}
	e.accepted.Add(1)
	e.crossAccepted.Add(1)
	return Decision{ID: id, Accepted: true, CrossShard: true, Preempted: preempted}, nil
}

// lock locks the shards of sp (sorted by shard) in ascending order.
func (e *Engine) lock(sp []span) {
	for lo := 0; lo < len(sp); lo = groupEnd(sp, lo) {
		e.rt.Lock(int(sp[lo].shard))
	}
}

// unlock releases the locks lock took.
func (e *Engine) unlock(sp []span) {
	for lo := 0; lo < len(sp); lo = groupEnd(sp, lo) {
		e.rt.Unlock(int(sp[lo].shard))
	}
}

// SubmitBatch submits a sequence of requests in slice order and returns one
// Decision per request, in the same order. The consecutive single-shard
// requests one shard owns are decided as one run. A cross-shard request is
// decided on the caller under its shards' locks, after those shards have
// decided their pending items; at the end, the items still pending are
// decided inline when one shard holds them all, else by the shards' event
// loops in parallel. Each shard's arrival order — and therefore the
// decision stream — is identical to submitting the same slice
// sequentially through Submit.
//
// Validation is atomic: every request is checked before any is dispatched,
// and a validation failure returns an error with no decisions made. The
// returned error reports such whole-batch failures (validation, ErrClosed,
// a ctx already done); rare per-request engine failures are
// attributed to the failing request via Decision.Err instead of poisoning
// the rest of the batch. SubmitBatch is safe for concurrent use alongside
// Submit.
func (e *Engine) SubmitBatch(ctx context.Context, reqs []problem.Request) ([]Decision, error) {
	for i := range reqs {
		if err := e.Validate(reqs[i]); err != nil {
			return nil, fmt.Errorf("engine: batch[%d]: %w", i, err)
		}
	}
	return e.SubmitBatchPrevalidated(ctx, reqs)
}

// SubmitBatchPrevalidated is SubmitBatch without the per-request
// validation pass, for callers that have already run Validate on every
// item — the serving layer validates at the HTTP boundary (where a
// failure must map to a 400 before anything is enqueued) and would
// otherwise pay the same scan twice per request on the hot path.
// Submitting an unvalidated request through it is undefined behaviour.
//
// Cancellation: ctx is checked once, before the batch takes its IDs. A
// batch that has started is decided whole and returned, so the engine
// counts no decision its caller does not get.
func (e *Engine) SubmitBatchPrevalidated(ctx context.Context, reqs []problem.Request) ([]Decision, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if !e.rt.Enter() {
		return nil, ErrClosed
	}
	defer e.rt.Exit()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out := make([]Decision, len(reqs))
	base := int(e.nextID.Add(int64(len(reqs)))) - len(reqs)
	b := batchPool.Get().(*batch)
	nEdges := 0
	b.Layout(e.rt, len(reqs), func(i int) int {
		s := e.singleShardOf(reqs[i].Edges)
		if s >= 0 {
			nEdges += len(reqs[i].Edges)
		}
		return s
	})
	// Sized up front, so the items' edge subslices never move.
	b.edges = slices.Grow(b.edges[:0], nEdges)

	for i := range reqs {
		r := &reqs[i]
		out[i].ID = base + i
		if s := b.Owner(i); s >= 0 {
			lo := len(b.edges)
			for _, ge := range r.Edges {
				b.edges = append(b.edges, int(e.edgeLocal[ge]))
			}
			*b.Add(s) = item{d: &out[i], edges: b.edges[lo:len(b.edges):len(b.edges)], cost: r.Cost}
			continue
		}
		// The involved shards decide their pending items first; the others
		// keep accumulating.
		b.spans = e.spans(b.spans, r.Edges)
		for lo := 0; lo < len(b.spans); lo = groupEnd(b.spans, lo) {
			e.requests.Add(int64(b.Decide(int(b.spans[lo].shard))))
		}
		d, err := e.decideCross(base+i, b.spans, r.Cost)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i] = d
	}
	e.requests.Add(int64(b.Finish()))
	// Fold the runs' outcomes into the counters (decideCross counted the
	// cross-shard requests) and recycle the batch.
	var accepted, errs int64
	for _, run := range b.Runs() {
		for _, it := range run {
			switch {
			case it.d.Err != nil:
				errs++
			case it.d.Accepted:
				accepted++
			}
		}
	}
	e.accepted.Add(accepted)
	e.errs.Add(errs)
	b.Release()
	batchPool.Put(b)
	return out, nil
}

// ShardStat is a per-shard snapshot of load and accounting, the data
// behind the serving layer's per-shard occupancy metrics. Load counts the
// shard's integral load including cross-shard reservations; Capacity is
// the sum of the shard's edge capacities, so Load/Capacity is the shard's
// occupancy in [0, 1].
type ShardStat struct {
	// Shard is the shard index in [0, Shards()).
	Shard int
	// Requests counts the single-shard requests the shard has decided.
	Requests int
	// Preemptions counts accept-then-reject events inside the shard.
	Preemptions int
	// RejectedCost is the shard's share of the objective.
	RejectedCost float64
	// Load is Σ over the shard's edges of integral load plus reservations.
	Load int
	// Capacity is Σ over the shard's edges of effective capacity
	// (constructed capacity adjusted by admin grows and shrinks).
	Capacity int
}

// ShardStats returns one ShardStat per shard. Consistency matches Stats:
// per-shard consistent while open, exact after Close.
func (e *Engine) ShardStats() []ShardStat {
	snaps := e.snapshots()
	out := make([]ShardStat, len(snaps))
	for si, snap := range snaps {
		st := ShardStat{
			Shard:        si,
			Requests:     snap.requests,
			Preemptions:  snap.preemptions,
			RejectedCost: snap.rejectedCost,
		}
		for li, load := range snap.loads {
			st.Load += load
			st.Capacity += snap.caps[li]
		}
		out[si] = st
	}
	return out
}

// RejectedCost returns the engine's running objective: total cost of
// rejected and preempted requests across all shards plus rejected
// cross-shard requests. See Stats for the consistency caveat under
// concurrent submission.
func (e *Engine) RejectedCost() float64 {
	total := e.crossRejected.Load()
	for _, snap := range e.snapshots() {
		total += snap.rejectedCost
	}
	return total
}

// Stats returns the uniform service-level statistics snapshot (generic
// serving contract). The workload-specific detail — per-edge loads,
// cross-shard counters — is on Snapshot.
func (e *Engine) Stats() service.Stats {
	return service.Stats{
		Requests:  e.requests.Load(),
		Accepted:  e.accepted.Load(),
		Errors:    e.errs.Load(),
		Objective: e.RejectedCost(),
		Shards:    len(e.shards),
	}
}

// Snapshot returns the engine's full aggregate state.
func (e *Engine) Snapshot() Stats {
	st := Stats{
		Requests:           e.requests.Load(),
		Accepted:           e.accepted.Load(),
		CrossShard:         e.crossShard.Load(),
		CrossShardAccepted: e.crossAccepted.Load(),
		RejectedCost:       e.crossRejected.Load(),
		Loads:              make([]int, len(e.caps)),
		Capacities:         make([]int, len(e.caps)),
	}
	for si, snap := range e.snapshots() {
		st.RejectedCost += snap.rejectedCost
		st.Preemptions += int64(snap.preemptions)
		for li, load := range snap.loads {
			ge := e.shards[si].globalEdges[li]
			st.Loads[ge] = load
			st.Capacities[ge] = snap.caps[li]
		}
	}
	return st
}

// snapshots collects one state snapshot per shard, each read under the
// shard's lock.
func (e *Engine) snapshots() []shardSnapshot {
	out := make([]shardSnapshot, len(e.shards))
	for i, s := range e.shards {
		e.rt.Lock(i)
		out[i] = s.snapshot()
		e.rt.Unlock(i)
	}
	return out
}

// Drain blocks until no submissions are in flight or ctx is done. It does
// not stop new submissions — callers quiesce traffic first (the serving
// layer refuses new work, then drains, then closes).
func (e *Engine) Drain(ctx context.Context) error { return e.rt.Drain(ctx) }

// Close shuts the engine down: subsequent Submits fail with ErrClosed,
// in-flight submissions finish, and every shard loop exits; the shards'
// state stays readable under their locks. Snapshot, Stats and RejectedCost
// remain usable (and exact) afterwards. Close is idempotent and always
// returns nil (the error is part of the generic service contract).
func (e *Engine) Close() error {
	e.rt.Close()
	return nil
}

// atomicFloat64 is a lock-free accumulating float64 (CAS loop over bits).
type atomicFloat64 struct{ bits atomic.Uint64 }

func (a *atomicFloat64) Add(delta float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (a *atomicFloat64) Load() float64 { return math.Float64frombits(a.bits.Load()) }
