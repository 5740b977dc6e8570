package engine

import (
	"fmt"

	"admission/internal/core"
	"admission/internal/problem"
)

// opKind enumerates the single ops a shard decides; offers travel in runs.
type opKind uint8

const (
	// opReserve tentatively consumes one capacity unit per listed edge
	// (two-phase cross-shard, phase 1). Granted only if every edge has a
	// free integral slot.
	opReserve opKind = iota
	// opRelease undoes a granted reservation (two-phase abort).
	opRelease
	// opCommit makes a granted reservation permanent (cluster two-phase
	// keep): the reserved unit moves to the committed ledger, out of
	// release's reach.
	opCommit
	// opStats asks for a state snapshot.
	opStats
	// opGrow raises the capacity of the listed edges by op.units each (the
	// admin control plane's scale-up). Serialized through the event loop
	// like every other op, so it lands at a well-defined point of the
	// shard's decision stream and never races an offer.
	opGrow
	// opShrink removes up to op.units capacity units from each listed edge
	// with the §4 drain semantics: accepted requests are preempted in
	// decreasing fractional-weight order until the integral solution fits
	// the reduced capacity. Units that cannot be shrunk (capacity already
	// exhausted, or fractional capacity consumed by permanent accepts) are
	// skipped and reported via the applied count.
	opShrink
)

// op is a single (non-run) message into a shard's queue. edges are local
// indices.
type op struct {
	kind  opKind
	units int // opGrow/opShrink: capacity units per listed edge
	edges []int
}

// reply is a shard's answer to an op.
type reply struct {
	ok        bool
	applied   int   // opGrow/opShrink: capacity units actually applied
	preempted []int // global request IDs
	err       error
	stats     shardSnapshot
}

// item is one single-shard request of a batch, decided inside its shard's
// run. The shard writes the outcome into *d.
type item struct {
	d     *Decision // the request's slot in the batch result; d.ID is set
	edges []int     // local edge indices
	cost  float64
}

// shardSnapshot is a consistent view of one shard's accounting.
type shardSnapshot struct {
	requests     int
	rejectedCost float64
	preemptions  int
	loads        []int // per local edge: algorithm load + reservations
	caps         []int // per local edge: effective capacity + reservations
}

// shardState owns one edge partition. Its fields are touched only by the
// shard's event loop (shard.Runtime); other goroutines send it runs and
// ops. globalEdges is immutable after construction and read by the engine
// too.
type shardState struct {
	idx int

	alg         *core.Randomized
	globalEdges []int // local edge -> global edge ID
	reserved    []int // per local edge: granted cross-shard reservations
	committed   []int // per local edge: committed (permanent) reservations
	reqGlobal   []int // local request ID -> global request ID
}

// Run offers a run of single-shard requests to the shard's §3 instance in
// order.
func (s *shardState) Run(items []item) {
	for i := range items {
		it := &items[i]
		lid := len(s.reqGlobal)
		s.reqGlobal = append(s.reqGlobal, it.d.ID)
		out, err := s.alg.Offer(lid, problem.Request{Edges: it.edges, Cost: it.cost})
		if err != nil {
			it.d.Err = fmt.Errorf("engine: shard %d: %w", s.idx, err)
			continue
		}
		it.d.Accepted = out.Accepted
		it.d.Preempted = s.toGlobal(out.Preempted)
	}
}

// Handle decides one op.
func (s *shardState) Handle(o op) reply {
	switch o.kind {
	case opReserve:
		return s.reserve(o)
	case opRelease:
		return s.release(o)
	case opCommit:
		return s.commit(o)
	case opStats:
		return reply{stats: s.snapshot()}
	case opGrow:
		return s.grow(o)
	case opShrink:
		return s.shrink(o)
	default:
		return reply{err: fmt.Errorf("engine: shard %d: unknown op %d", s.idx, o.kind)}
	}
}

// reserve grants a cross-shard reservation iff every listed edge has a free
// integral slot, consuming one capacity unit per edge via the §4 shrink. The
// shrink's weight augmentations may preempt local requests probabilistically
// (reported in the reply); its deterministic feasibility repair never fires
// because a free slot was verified first and preemptions only free load.
func (s *shardState) reserve(o op) reply {
	for _, le := range o.edges {
		// A free integral slot is not sufficient: the fractional layer's
		// adjusted capacity (consumed by §2 permanent accepts) must also
		// have a unit left, or the shrink below would fail. Both conditions
		// are stable for the rest of this op — only this shard's own
		// offers/shrinks move them.
		if s.alg.FreeCapacity(le) <= 0 || !s.alg.CanShrink(le) {
			return reply{ok: false}
		}
	}
	var preempted []int
	for i, le := range o.edges {
		out, err := s.alg.ShrinkCapacity(le)
		if err != nil {
			// Cannot happen given the free-slot check; undo defensively so
			// an engine bug degrades to a rejection instead of a leak.
			for _, undo := range o.edges[:i] {
				if gerr := s.alg.GrowCapacity(undo); gerr != nil {
					return reply{err: fmt.Errorf("engine: shard %d: rollback: %w", s.idx, gerr)}
				}
				s.reserved[undo]--
			}
			return reply{preempted: preempted, err: fmt.Errorf("engine: shard %d: reserve: %w", s.idx, err)}
		}
		s.reserved[le]++
		preempted = append(preempted, s.toGlobal(out.Preempted)...)
	}
	return reply{ok: true, preempted: preempted}
}

// release aborts a granted reservation, restoring the shrunk capacity.
func (s *shardState) release(o op) reply {
	for _, le := range o.edges {
		if s.reserved[le] <= 0 {
			return reply{err: fmt.Errorf("engine: shard %d: release of unreserved edge %d", s.idx, le)}
		}
		if err := s.alg.GrowCapacity(le); err != nil {
			return reply{err: fmt.Errorf("engine: shard %d: release: %w", s.idx, err)}
		}
		s.reserved[le]--
	}
	return reply{ok: true}
}

// commit finalizes a granted reservation: the reserved units move to the
// committed ledger, where release cannot reach them. The capacity stays
// shrunk — a committed cross-cluster accept is permanent.
func (s *shardState) commit(o op) reply {
	for _, le := range o.edges {
		if s.reserved[le] <= 0 {
			return reply{err: fmt.Errorf("engine: shard %d: commit of unreserved edge %d", s.idx, le)}
		}
	}
	for _, le := range o.edges {
		s.reserved[le]--
		s.committed[le]++
	}
	return reply{ok: true}
}

// grow raises each listed edge's capacity by op.units fresh units (the
// admin scale-up). Growing never preempts, so it always applies fully.
func (s *shardState) grow(o op) reply {
	applied := 0
	for _, le := range o.edges {
		for u := 0; u < o.units; u++ {
			if err := s.alg.RaiseCapacity(le); err != nil {
				return reply{applied: applied, err: fmt.Errorf("engine: shard %d: grow: %w", s.idx, err)}
			}
			applied++
		}
	}
	return reply{ok: true, applied: applied}
}

// shrink removes up to op.units capacity units from each listed edge,
// preempting accepted requests as needed (drain semantics). Units the §3
// instance refuses — capacity exhausted, or the fractional adjusted
// capacity consumed by permanent cross-shard accepts — are skipped rather
// than failed: the admin caller learns how much actually drained from the
// applied count and the evicted requests from the preempted list.
func (s *shardState) shrink(o op) reply {
	applied := 0
	var preempted []int
	for _, le := range o.edges {
		for u := 0; u < o.units; u++ {
			if !s.alg.CanShrink(le) {
				break
			}
			out, err := s.alg.ShrinkCapacity(le)
			if err != nil {
				return reply{applied: applied, preempted: preempted,
					err: fmt.Errorf("engine: shard %d: shrink: %w", s.idx, err)}
			}
			applied++
			preempted = append(preempted, s.toGlobal(out.Preempted)...)
		}
	}
	return reply{ok: true, applied: applied, preempted: preempted}
}

// snapshot captures the shard's accounting.
func (s *shardState) snapshot() shardSnapshot {
	loads := s.alg.Loads()
	caps := s.alg.Capacities()
	for le, r := range s.reserved {
		loads[le] += r + s.committed[le]
		// A reservation consumed capacity via shrink; the observable
		// capacity counts it back so the admin view separates "capacity
		// lent to a cross-shard accept" (load) from "capacity removed by an
		// operator" (gone from caps), and loads ≤ caps holds throughout.
		caps[le] += r + s.committed[le]
	}
	return shardSnapshot{
		requests:     len(s.reqGlobal),
		rejectedCost: s.alg.RejectedCost(),
		preemptions:  s.alg.Preemptions(),
		loads:        loads,
		caps:         caps,
	}
}

// toGlobal maps local request IDs to global ones.
func (s *shardState) toGlobal(local []int) []int {
	if len(local) == 0 {
		return nil
	}
	out := make([]int, len(local))
	for i, lid := range local {
		out[i] = s.reqGlobal[lid]
	}
	return out
}
