package engine

import (
	"cmp"
	"fmt"
	"slices"

	"admission/internal/core"
	"admission/internal/problem"
)

// item is one single-shard request of a batch, decided inside its shard's
// run. The shard writes the outcome into *d.
type item struct {
	d     *Decision // the request's slot in the batch result; d.ID is set
	edges []int     // local edge indices
	cost  float64
}

// span is one edge of a request or op that may cover several shards: its
// owning shard and its index there.
type span struct{ shard, local int32 }

// spans appends edges to buf[:0] as spans sorted by shard. The sort is
// stable: a shard's edges keep their order in edges, the order its §3
// instance resizes them in.
func (e *Engine) spans(buf []span, edges []int) []span {
	buf = buf[:0]
	for _, ge := range edges {
		buf = append(buf, span{e.edgeShard[ge], e.edgeLocal[ge]})
	}
	slices.SortStableFunc(buf, func(a, b span) int { return cmp.Compare(a.shard, b.shard) })
	return buf
}

// groupEnd returns the end of the run of sp's spans on sp[lo]'s shard.
func groupEnd(sp []span, lo int) int {
	hi := lo + 1
	for hi < len(sp) && sp[hi].shard == sp[lo].shard {
		hi++
	}
	return hi
}

// shardSnapshot is a consistent view of one shard's accounting.
type shardSnapshot struct {
	requests     int
	rejectedCost float64
	preemptions  int
	loads        []int // per local edge: algorithm load + reservations
	caps         []int // per local edge: effective capacity + reservations
}

// shardState owns one edge partition. Its fields are touched only under
// the shard's lock (shard.Runtime), by its event loop or by a submitter.
// idx and globalEdges are immutable after construction and read by the
// engine too.
type shardState struct {
	idx int

	alg         *core.Randomized
	globalEdges []int // local edge -> global edge ID
	reserved    []int // per local edge: granted cross-shard reservations
	committed   []int // per local edge: committed (permanent) reservations
	requests    int   // requests decided: the next local request ID
	accepted    idMap // local -> global ID of every request still preemptible
}

// Run offers a run of single-shard requests to the shard's §3 instance in
// order.
func (s *shardState) Run(items []item) {
	for i := range items {
		it := &items[i]
		lid := s.requests
		s.requests++
		out, err := s.alg.Offer(lid, problem.Request{Edges: it.edges, Cost: it.cost})
		if err != nil {
			it.d.Err = fmt.Errorf("engine: shard %d: %w", s.idx, err)
			continue
		}
		it.d.Accepted = out.Accepted
		it.d.Preempted = s.toGlobal(out.Preempted)
		if out.Accepted {
			s.accepted.add(lid, it.d.ID)
		}
	}
}

// reserve grants a cross-shard reservation iff every listed edge has a free
// integral slot, consuming one capacity unit per edge via the §4 shrink. The
// shrink's weight augmentations may preempt local requests probabilistically
// (returned as preempted); its deterministic feasibility repair never fires
// because a free slot was verified first and preemptions only free load.
func (s *shardState) reserve(edges []span) (ok bool, preempted []int, err error) {
	for _, sp := range edges {
		le := int(sp.local)
		// A free integral slot is not sufficient: the fractional layer's
		// adjusted capacity (consumed by §2 permanent accepts) must also
		// have a unit left, or the shrink below would fail. Both conditions
		// are stable for the rest of this call — only this shard's own
		// offers/shrinks move them.
		if s.alg.FreeCapacity(le) <= 0 || !s.alg.CanShrink(le) {
			return false, nil, nil
		}
	}
	for i, sp := range edges {
		out, err := s.alg.ShrinkCapacity(int(sp.local))
		if err != nil {
			// Cannot happen given the free-slot check; undo defensively so
			// an engine bug degrades to a rejection instead of a leak.
			for _, undo := range edges[:i] {
				if gerr := s.alg.GrowCapacity(int(undo.local)); gerr != nil {
					return false, nil, fmt.Errorf("engine: shard %d: rollback: %w", s.idx, gerr)
				}
				s.reserved[undo.local]--
			}
			return false, preempted, fmt.Errorf("engine: shard %d: reserve: %w", s.idx, err)
		}
		s.reserved[sp.local]++
		preempted = append(preempted, s.toGlobal(out.Preempted)...)
	}
	return true, preempted, nil
}

// release aborts a granted reservation, restoring the shrunk capacity.
func (s *shardState) release(edges []span) error {
	for _, sp := range edges {
		if s.reserved[sp.local] <= 0 {
			return fmt.Errorf("engine: shard %d: release of unreserved edge %d", s.idx, sp.local)
		}
		if err := s.alg.GrowCapacity(int(sp.local)); err != nil {
			return fmt.Errorf("engine: shard %d: release: %w", s.idx, err)
		}
		s.reserved[sp.local]--
	}
	return nil
}

// commit finalizes a granted reservation: the reserved units move to the
// committed ledger, where release cannot reach them. The capacity stays
// shrunk — a committed cross-cluster accept is permanent.
func (s *shardState) commit(edges []span) error {
	for _, sp := range edges {
		if s.reserved[sp.local] <= 0 {
			return fmt.Errorf("engine: shard %d: commit of unreserved edge %d", s.idx, sp.local)
		}
	}
	for _, sp := range edges {
		s.reserved[sp.local]--
		s.committed[sp.local]++
	}
	return nil
}

// grow raises each listed edge's capacity by units fresh units (the admin
// scale-up). Growing never preempts, so it always applies fully.
func (s *shardState) grow(edges []span, units int) (applied int, preempted []int, err error) {
	for _, sp := range edges {
		for u := 0; u < units; u++ {
			if err := s.alg.RaiseCapacity(int(sp.local)); err != nil {
				return applied, nil, fmt.Errorf("engine: shard %d: grow: %w", s.idx, err)
			}
			applied++
		}
	}
	return applied, nil, nil
}

// shrink removes up to units capacity units from each listed edge,
// preempting accepted requests as needed (drain semantics). Units the §3
// instance refuses — capacity exhausted, or the fractional adjusted
// capacity consumed by permanent cross-shard accepts — are skipped rather
// than failed: the admin caller learns how much actually drained from the
// applied count and the evicted requests from the preempted list.
func (s *shardState) shrink(edges []span, units int) (applied int, preempted []int, err error) {
	for _, sp := range edges {
		le := int(sp.local)
		for u := 0; u < units; u++ {
			if !s.alg.CanShrink(le) {
				break
			}
			out, err := s.alg.ShrinkCapacity(le)
			if err != nil {
				return applied, preempted, fmt.Errorf("engine: shard %d: shrink: %w", s.idx, err)
			}
			applied++
			preempted = append(preempted, s.toGlobal(out.Preempted)...)
		}
	}
	return applied, preempted, nil
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
		requests:     s.requests,
		rejectedCost: s.alg.RejectedCost(),
		preemptions:  s.alg.Preemptions(),
		loads:        loads,
		caps:         caps,
	}
}

// toGlobal maps the local IDs of preempted requests to global ones.
func (s *shardState) toGlobal(local []int) []int {
	if len(local) == 0 {
		return nil
	}
	out := make([]int, len(local))
	for i, lid := range local {
		out[i] = s.accepted.take(lid)
	}
	return out
}

// idMap maps the local IDs of a shard's accepted requests — the only ones
// a later Outcome.Preempted can name — to their global IDs. Local IDs are
// added in increasing order, so a lookup is a binary search. A preempted
// request is never preempted again, so take forgets it, and add drops the
// forgotten entries in place once they outnumber the rest: the map follows
// the shard's load, not its history.
type idMap struct {
	ids  []idPair // ascending in local
	gone int      // entries take has forgotten (global -1)
}

type idPair struct{ local, global int }

// add maps local, which exceeds every local ID added before, to global.
func (m *idMap) add(local, global int) {
	if m.gone > len(m.ids)-m.gone {
		m.compact()
	}
	m.ids = append(m.ids, idPair{local, global})
}

// take returns the global ID of the accepted request local and forgets it.
func (m *idMap) take(local int) int {
	i, ok := slices.BinarySearchFunc(m.ids, local, func(p idPair, local int) int { return cmp.Compare(p.local, local) })
	if !ok || m.ids[i].global < 0 {
		panic(fmt.Sprintf("engine: preempted request %d was not accepted", local))
	}
	g := m.ids[i].global
	m.ids[i].global = -1
	m.gone++
	return g
}

// compact drops the forgotten entries in place.
func (m *idMap) compact() {
	m.ids = slices.DeleteFunc(m.ids, func(p idPair) bool { return p.global < 0 })
	m.gone = 0
}
