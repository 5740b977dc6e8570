package engine

import (
	"context"
	"fmt"
)

// AllEdges selects every edge of the engine in GrowCapacity and
// ShrinkCapacity.
const AllEdges = -1

// Resize reports the outcome of one engine-level capacity change.
type Resize struct {
	// Edge is the resized global edge, or AllEdges.
	Edge int
	// Requested is the total number of capacity units asked for (units ×
	// edges touched).
	Requested int
	// Applied is the number of units actually applied. Grows always apply
	// fully; shrinks stop early on edges whose capacity is exhausted or
	// whose fractional adjusted capacity is consumed by permanent accepts.
	Applied int
	// Preempted lists the global request IDs evicted by a shrink's drain
	// (always nil for grows).
	Preempted []int
}

// GrowCapacity raises capacity by units fresh units on the given global
// edge (or on every edge when edge is AllEdges) — the admin control
// plane's scale-up. Each owning shard applies it under its lock, so it
// lands at a well-defined point of the shard's decision stream and never
// races an offer; growing never preempts. ctx is checked once, before the
// first shard: a resize that has started runs to completion, keeping the
// engine's capacity accounting exact.
func (e *Engine) GrowCapacity(ctx context.Context, edge, units int) (Resize, error) {
	return e.resize(ctx, (*shardState).grow, edge, units)
}

// ShrinkCapacity removes up to units capacity units from the given global
// edge (or from every edge when edge is AllEdges) with the §4 drain
// semantics: accepted requests are preempted in decreasing
// fractional-weight order until the integral solution fits the reduced
// capacity. Units that cannot drain (capacity already at zero, or
// fractional capacity consumed by permanent cross-shard accepts) are
// skipped and reflected in Resize.Applied rather than failing the call.
func (e *Engine) ShrinkCapacity(ctx context.Context, edge, units int) (Resize, error) {
	return e.resize(ctx, (*shardState).shrink, edge, units)
}

// resize validates one capacity change and applies it on each owning
// shard in ascending order, each under its lock, merging the outcomes.
func (e *Engine) resize(ctx context.Context, apply func(*shardState, []span, int) (int, []int, error), edge, units int) (Resize, error) {
	if units <= 0 {
		return Resize{}, fmt.Errorf("engine: resize of %d units, want > 0", units)
	}
	if edge != AllEdges && (edge < 0 || edge >= len(e.caps)) {
		return Resize{}, fmt.Errorf("engine: resize of unknown edge %d, have %d edges", edge, len(e.caps))
	}
	if !e.rt.Enter() {
		return Resize{}, ErrClosed
	}
	defer e.rt.Exit()
	if err := ctx.Err(); err != nil {
		return Resize{}, err
	}

	edges := []int{edge}
	if edge == AllEdges {
		edges = make([]int, len(e.caps))
		for ge := range edges {
			edges[ge] = ge
		}
	}
	sp := e.spans(nil, edges)
	res := Resize{Edge: edge, Requested: units * len(sp)}
	var firstErr error
	for lo, hi := 0, 0; lo < len(sp); lo = hi {
		hi = groupEnd(sp, lo)
		s := e.shards[sp[lo].shard]
		e.rt.Lock(s.idx)
		applied, preempted, err := apply(s, sp[lo:hi], units)
		e.rt.Unlock(s.idx)
		res.Applied += applied
		res.Preempted = append(res.Preempted, preempted...)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return res, firstErr
}

// Capacities returns the per-global-edge effective capacity vector:
// constructed capacity plus admin grows, minus admin shrinks. Cross-shard
// reservations do not reduce it (they appear as load instead), so
// Snapshot().Loads[e] ≤ Capacities()[e] holds at every quiescent point.
// Consistency matches Stats: per-shard consistent while open, exact after
// Close.
func (e *Engine) Capacities() []int {
	out := make([]int, len(e.caps))
	for si, snap := range e.snapshots() {
		for li, c := range snap.caps {
			out[e.shards[si].globalEdges[li]] = c
		}
	}
	return out
}
