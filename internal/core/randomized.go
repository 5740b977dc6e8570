package core

import (
	"fmt"

	"admission/internal/problem"
	"admission/internal/rng"
)

// intState is the integral (physical) state of a request in the randomized
// algorithm, as opposed to its fractional weight.
type intState uint8

const (
	intAccepted intState = iota
	intRejected
)

// Randomized is the §3 randomized preemptive online algorithm. It maintains
// the §2 fractional solution internally and rounds it online:
//
//  1. run the fractional weight augmentations for the arrival;
//  2. preempt every request whose weight reached 1/(T·L);
//  3. for every request whose weight increased by δ, reject it with
//     probability P·δ·L;
//  4. if the arriving request still does not fit, reject it — this restores
//     feasibility deterministically, because before the arrival the solution
//     was feasible and only the arrival's own edges can now be violated.
//
// L is log(mc) in the weighted case and log m in the unweighted case.
// It implements problem.Algorithm and problem.CapacityShrinker.
//
// Request edge sets and costs live in the fractional layer, so they are
// stored exactly once, and the integral state lives in the fractional
// layer's slots (IDs and slots are aligned by construction). Per-edge
// accepted indexes keep poisonEdge/repairEdge from scanning the full offer
// history. Once retired requests — rejected ones §2 can no longer change —
// outnumber the live ones and the edges together, Offer drops them from
// both layers (Compact), so the state follows the live requests, not the
// history. A retired ID answers Accepted false, and the fractional layer's
// Weight and Status answer its terminal status.
type Randomized struct {
	cfg  Config
	frac *Fractional
	rand *rng.RNG

	threshold  float64 // preempt when weight >= threshold
	probScale  float64 // reject probability per unit of weight increase
	reqCapStop float64 // |REQ_e| safeguard bound: 4mc²

	// effCap is the capacity available to this layer: original minus
	// shrinks. Permanent accepts count against load instead.
	effCap  []int
	origCap []int // original capacities; bounds GrowCapacity
	load    []int

	state        []intState // per fractional slot
	rejectedCost float64
	preemptions  int

	// acceptedOn[e] lists the slots of requests accepted on edge e,
	// ascending (acceptance happens in arrival order). Preempted entries are
	// pruned lazily; appends compact once the list outgrows twice the live
	// load.
	acceptedOn [][]int

	reqCount []int  // |REQ_e| per edge, for the 4mc² safeguard
	poisoned []bool // edges whose requests are all rejected (safeguard fired)

	// cs is the reusable changeset for the fractional calls: steady-state
	// Offers recycle its slices instead of allocating.
	cs Changeset

	// arrivalKilled is scratch state for the Offer/Shrink call in flight:
	// set when the arriving request is rejected during rounding, consulted
	// by step 4. Randomized is not safe for concurrent use.
	arrivalKilled bool
}

var _ problem.Algorithm = (*Randomized)(nil)
var _ problem.CapacityShrinker = (*Randomized)(nil)

// NewRandomized creates the randomized algorithm over the capacity vector.
func NewRandomized(capacities []int, cfg Config) (*Randomized, error) {
	frac, err := NewFractional(capacities, cfg)
	if err != nil {
		return nil, err
	}
	m := float64(len(capacities))
	c := float64(frac.MaxCapacity())
	var l float64
	if cfg.Unweighted {
		l = cfg.logB(m)
	} else {
		l = cfg.logB(m * c)
	}
	a := &Randomized{
		cfg:        cfg,
		frac:       frac,
		rand:       rng.New(cfg.Seed),
		threshold:  1 / (cfg.ThresholdFactor * l),
		probScale:  cfg.ProbFactor * l,
		reqCapStop: 4 * m * c * c,
		effCap:     append([]int(nil), capacities...),
		origCap:    append([]int(nil), capacities...),
		load:       make([]int, len(capacities)),
		acceptedOn: make([][]int, len(capacities)),
		reqCount:   make([]int, len(capacities)),
		poisoned:   make([]bool, len(capacities)),
	}
	// Carve each edge's accepted index out of one shared block sized to its
	// compaction bound (len ≤ max(8, 2·load) ≤ 2·cap entries stay live), so
	// steady-state accepts allocate nothing.
	offsets := make([]int, len(capacities)+1)
	for e, cap := range capacities {
		n := 2*cap + 2
		if n < 9 {
			n = 9
		}
		offsets[e+1] = offsets[e] + n
	}
	block := make([]int, offsets[len(capacities)])
	for e := range a.acceptedOn {
		a.acceptedOn[e] = block[offsets[e]:offsets[e]:offsets[e+1]]
	}
	return a, nil
}

// Name implements problem.Algorithm.
func (a *Randomized) Name() string {
	if a.cfg.Unweighted {
		return "randomized-unweighted"
	}
	return "randomized-weighted"
}

// RejectedCost implements problem.Algorithm.
func (a *Randomized) RejectedCost() float64 { return a.rejectedCost }

// Preemptions returns how many accepted requests were later rejected.
func (a *Randomized) Preemptions() int { return a.preemptions }

// FractionalCost exposes the internal fractional objective, the quantity
// Theorem 2 bounds; the randomized analysis charges O(log) times it.
func (a *Randomized) FractionalCost() float64 { return a.frac.Cost() }

// Augmentations exposes the internal augmentation count (Lemma 1).
func (a *Randomized) Augmentations() int { return a.frac.Augmentations() }

// Threshold returns the preemption threshold 1/(T·L); exposed for tests.
func (a *Randomized) Threshold() float64 { return a.threshold }

// accept flips slot s to accepted, charging its edges' capacity and
// indexing it on its edges.
func (a *Randomized) accept(s int, edges []int) {
	a.state[s] = intAccepted
	for _, e := range edges {
		a.load[e]++
		list := append(a.acceptedOn[e], s)
		if len(list) > 8 && len(list) > 2*a.load[e] {
			list = a.compactAccepted(list)
		}
		a.acceptedOn[e] = list
	}
}

// compactAccepted drops non-accepted entries in place, preserving order.
func (a *Randomized) compactAccepted(list []int) []int {
	w := 0
	for _, s := range list {
		if a.state[s] == intAccepted {
			list[w] = s
			w++
		}
	}
	return list[:w]
}

// Compact drops the retired requests from both layers now, rather than
// when Offer next finds them due, and renumbers the accepted indexes to
// match, dropping their stale entries too. No retired request is accepted:
// a full rejection preempts, and pruned or inert requests are never
// accepted. No later decision changes; only the memory held does.
func (a *Randomized) Compact() {
	remap := a.frac.compact()
	for s, ns := range remap {
		if ns >= 0 {
			a.state[ns] = a.state[s]
		}
	}
	a.state = a.state[:len(a.frac.reqs)]
	for e, list := range a.acceptedOn {
		k := 0
		for _, s := range list {
			if ns := remap[s]; ns >= 0 && a.state[ns] == intAccepted {
				list[k] = ns
				k++
			}
		}
		a.acceptedOn[e] = list[:k]
	}
}

// Footprint returns how many request slots the instance holds and how many
// of them are live (alive in §2, or permanently accepted). The rest are
// retired requests not yet compacted: before it adds a slot, Offer compacts
// whenever they outnumber the live ones and the edges together.
func (a *Randomized) Footprint() (slots, live int) {
	return len(a.state), len(a.frac.aliveIDs) + a.frac.perms
}

// Offer implements problem.Algorithm.
func (a *Randomized) Offer(id int, r problem.Request) (problem.Outcome, error) {
	if want := a.frac.NumRequests(); id != want {
		return problem.Outcome{}, fmt.Errorf("core: Offer ids must be sequential: got %d, want %d", id, want)
	}
	if err := r.Validate(a.frac.M()); err != nil {
		return problem.Outcome{}, err
	}
	// Reject invalid costs before growing any per-request state: an error
	// past this point would leave a.state and the fractional layer's slots
	// permanently misaligned.
	if a.cfg.Unweighted && r.Cost != 1 {
		return problem.Outcome{}, fmt.Errorf("core: unweighted mode requires cost 1, got %v", r.Cost)
	}
	if a.frac.compactDue() {
		a.Compact()
	}
	// The arrival's slot in both layers; provisionally rejected, flipped on
	// accept.
	slot := len(a.state)
	a.state = append(a.state, intRejected)

	var out problem.Outcome

	// §3 safeguard: an edge requested ≥ 4mc² times has all of its requests
	// rejected (weighted case only; Theorem 4's proof does not need it).
	if !a.cfg.Unweighted && !a.cfg.DisableReqPruning {
		trip := false
		for _, e := range r.Edges {
			a.reqCount[e]++
			if a.poisoned[e] {
				trip = true
			} else if float64(a.reqCount[e]) >= a.reqCapStop {
				a.poisonEdge(e, &out)
				trip = true
			}
		}
		if trip {
			a.frac.RegisterInert(r) // keep IDs and slots aligned
			a.rejectedCost += r.Cost
			return out, nil
		}
	}

	// The request was validated above; the fractional layer skips re-checking
	// the edge set.
	if err := a.frac.offerValidated(r, &a.cs); err != nil {
		return problem.Outcome{}, err
	}
	cs := &a.cs
	if cs.PrunedRejected {
		a.rejectedCost += r.Cost
		return out, nil
	}
	if cs.PermAccepted {
		// The fractional layer reserved capacity; physically accept. Weight
		// changes caused by the reservation still round below, and — since
		// a permanent accept consumes a slot like a shrink does — any edge
		// left over capacity is repaired by preempting the heaviest-weight
		// ordinary requests.
		a.accept(slot, r.Edges)
		out.Accepted = true
		a.roundChanges(slot, cs, &out)
		for _, e := range r.Edges {
			if err := a.repairEdge(e, &out); err != nil {
				return out, err
			}
		}
		return out, nil
	}

	a.roundChanges(slot, cs, &out)

	// Step 4: if the arrival survived the rounding, accept it iff it fits.
	if a.state[slot] != intRejected {
		return out, fmt.Errorf("core: internal error: arrival %d in unexpected state", id)
	}
	if !a.arrivalKilled {
		fits := true
		for _, e := range r.Edges {
			if a.load[e]+1 > a.effCap[e] {
				fits = false
				break
			}
		}
		if fits {
			a.accept(slot, r.Edges)
			out.Accepted = true
			return out, nil
		}
	}
	a.rejectedCost += r.Cost
	return out, nil
}

// roundChanges applies §3 steps 2 and 3 to a changeset, which the
// fractional layer filled with slots. The arriving request (slot cs.NewID,
// -1 for shrinks) is special: it is not yet accepted, so "rejecting" it
// merely marks it killed for step 4.
func (a *Randomized) roundChanges(arrival int, cs *Changeset, out *problem.Outcome) {
	a.arrivalKilled = false

	kill := func(s int) {
		if s == arrival {
			a.arrivalKilled = true
			return
		}
		if a.state[s] != intAccepted {
			return
		}
		a.preempt(s, out)
	}

	// Step 2 (plus fractional full rejections, which always exceed the
	// threshold since threshold < 1): preempt requests at or above the
	// weight threshold. Only requests whose weight changed can newly cross.
	for _, ch := range cs.Changes {
		if a.frac.weightAt(ch.ID) >= a.threshold {
			kill(ch.ID)
		}
	}
	for _, s := range cs.FullyRejected {
		kill(s)
	}
	// Step 3: probabilistic rejection proportional to the weight increase.
	for _, ch := range cs.Changes {
		if ch.ID != arrival && a.state[ch.ID] != intAccepted {
			continue
		}
		if ch.ID == arrival && a.arrivalKilled {
			continue
		}
		p := a.probScale * ch.Delta
		if a.rand.Bernoulli(p) {
			kill(ch.ID)
		}
	}
}

// preempt rejects accepted slot s: its edges' load is released, its cost
// charged, and its ID reported in out.
func (a *Randomized) preempt(s int, out *problem.Outcome) {
	a.state[s] = intRejected
	for _, e := range a.frac.edgesOf(&a.frac.reqs[s]) {
		a.load[e]--
	}
	a.rejectedCost += a.frac.reqs[s].cost
	a.preemptions++
	out.Preempted = append(out.Preempted, a.frac.idOf(s))
}

// poisonEdge rejects every accepted request using edge e and marks it so
// all future requests touching it are rejected on arrival. The per-edge
// accepted index makes this proportional to the edge's own accepted set, not
// the full offer history; the index is ascending, so victims fall in request-
// ID order exactly as a full scan would produce.
func (a *Randomized) poisonEdge(e int, out *problem.Outcome) {
	a.poisoned[e] = true
	for _, s := range a.acceptedOn[e] {
		if a.state[s] != intAccepted {
			continue // stale entry: preempted earlier, pruned now
		}
		a.preempt(s, out)
		_ = a.frac.forceReject(s)
	}
	a.acceptedOn[e] = a.acceptedOn[e][:0]
}

// ShrinkCapacity implements problem.CapacityShrinker: one unit of edge e's
// capacity is permanently consumed (the §4 reduction's phase-2 arrival).
// If the integral solution no longer fits, accepted requests on e are
// preempted in decreasing fractional-weight order until it does.
func (a *Randomized) ShrinkCapacity(e int) (problem.Outcome, error) {
	var out problem.Outcome
	if e < 0 || e >= a.frac.M() {
		return out, fmt.Errorf("core: shrink of unknown edge %d", e)
	}
	if a.effCap[e] <= 0 {
		return out, fmt.Errorf("core: edge %d has no capacity left to shrink", e)
	}
	if err := a.frac.shrink(e, &a.cs); err != nil {
		return out, err
	}
	a.effCap[e]--
	a.roundChanges(-1, &a.cs, &out)
	if err := a.repairEdge(e, &out); err != nil {
		return out, err
	}
	return out, nil
}

// GrowCapacity restores one unit of edge e's capacity, undoing a prior
// ShrinkCapacity. It is the abort half of the engine's two-phase cross-shard
// reservation protocol: reserve = shrink, abort = grow. Growing never
// violates feasibility (load ≤ effCap still holds after effCap increases)
// and needs no preemptions. It fails if the edge is already at its original
// capacity, which catches unpaired grows.
func (a *Randomized) GrowCapacity(e int) error {
	if e < 0 || e >= a.frac.M() {
		return fmt.Errorf("core: grow of unknown edge %d", e)
	}
	if a.effCap[e] >= a.origCap[e] {
		return fmt.Errorf("core: edge %d already at original capacity %d", e, a.origCap[e])
	}
	if err := a.frac.GrowCapacity(e); err != nil {
		return err
	}
	a.effCap[e]++
	return nil
}

// RaiseCapacity adds one brand-new unit of capacity to edge e, raising the
// original capacity along with the effective one — an operator-initiated
// scale-up (the admin control plane's "grow"), as opposed to GrowCapacity,
// which only restores a prior shrink. Raising never violates feasibility
// (load ≤ effCap still holds after effCap increases) and needs no
// preemptions. A later ShrinkCapacity of the same edge consumes the raised
// unit first, so a raise-then-shrink pair returns the edge to its pre-raise
// effective capacity. The §3 acceptance threshold stays pinned at its
// construction-time value (it is derived from the constructed c_max); the
// competitive guarantee is stated against the constructed capacity vector.
func (a *Randomized) RaiseCapacity(e int) error {
	if e < 0 || e >= a.frac.M() {
		return fmt.Errorf("core: raise of unknown edge %d", e)
	}
	if err := a.frac.RaiseCapacity(e); err != nil {
		return err
	}
	a.origCap[e]++
	a.effCap[e]++
	return nil
}

// CanShrink reports whether ShrinkCapacity(e) would be admissible: both the
// integral layer (effective capacity) and the fractional layer (adjusted
// capacity, which permanent accepts also consume) must have a unit left.
// The engine's reserve path checks this before shrinking, because an edge
// can have free integral slots while its fractional capacity is exhausted
// by permanent accepts — shrinking would then fail.
func (a *Randomized) CanShrink(e int) bool {
	if e < 0 || e >= a.frac.M() {
		return false
	}
	return a.effCap[e] > 0 && a.frac.RemainingCapacity(e) > 0
}

// FreeCapacity returns the number of unused integral slots on edge e:
// effective capacity (original minus shrinks) minus current load. The
// engine's cross-shard path reserves only on edges with free capacity, which
// guarantees the reserving shrink's deterministic feasibility repair preempts
// nothing (the probabilistic §3 rounding may still preempt).
func (a *Randomized) FreeCapacity(e int) int {
	if e < 0 || e >= a.frac.M() {
		return 0
	}
	return a.effCap[e] - a.load[e]
}

// repairEdge restores integral feasibility on edge e after a shrink or a
// permanent accept: while the edge is over capacity, it preempts the
// ordinary (non-permanently-accepted) accepted request with the largest
// fractional weight (ties to the largest ID, which is the largest slot). The
// rounding usually freed the
// slot already, so this is rarely more than a no-op. Victims are found by
// partial selection over the edge's accepted index — one O(k) scan per
// preemption instead of a full-history sort.
func (a *Randomized) repairEdge(e int, out *problem.Outcome) error {
	if a.load[e] <= a.effCap[e] {
		return nil
	}
	onEdge := a.compactAccepted(a.acceptedOn[e])
	a.acceptedOn[e] = onEdge
	for a.load[e] > a.effCap[e] {
		victim := -1
		var vw float64
		for _, s := range onEdge {
			if a.state[s] != intAccepted {
				continue // preempted by an earlier selection round
			}
			if a.frac.reqs[s].status == statusPermAccepted {
				continue // permanent accepts are never preempted
			}
			w := a.frac.weightAt(s)
			// Strict > on ascending slots keeps the largest ID among equal
			// weights, matching the reference weight-desc/ID-desc order.
			if victim == -1 || w > vw || (w == vw && s > victim) {
				victim, vw = s, w
			}
		}
		if victim == -1 {
			break
		}
		a.preempt(victim, out)
		_ = a.frac.forceReject(victim)
	}
	if a.load[e] > a.effCap[e] {
		return fmt.Errorf("core: repair failed on edge %d: load %d > cap %d", e, a.load[e], a.effCap[e])
	}
	return nil
}

// Accepted reports whether request id is currently accepted. A retired
// request is not.
func (a *Randomized) Accepted(id int) bool {
	s := a.frac.slotOf(id)
	return s >= 0 && a.state[s] == intAccepted
}

// Loads returns a copy of the current integral edge loads (including
// permanently accepted requests).
func (a *Randomized) Loads() []int { return append([]int(nil), a.load...) }

// Capacities returns a copy of the per-edge effective capacities: original
// capacity plus raises, minus outstanding shrinks (including the engine's
// cross-shard reservations, which reserve by shrinking).
func (a *Randomized) Capacities() []int { return append([]int(nil), a.effCap...) }

// weightOf is a test hook.
func (a *Randomized) weightOf(id int) float64 { return a.frac.Weight(id) }
