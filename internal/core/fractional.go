package core

import (
	"fmt"
	"math"
	"slices"

	"admission/internal/problem"
)

// reqStatus tracks a request's fate inside the fractional algorithm.
type reqStatus uint8

const (
	statusAlive reqStatus = iota
	// statusFullyRejected: weight reached 1 (or the request was force-
	// rejected by the caller); it contributes its full cost.
	statusFullyRejected
	// statusPermAccepted: cost exceeded 2α, so the request was accepted
	// permanently and a capacity unit was reserved on each of its edges
	// (§2's transformation of the optimum).
	statusPermAccepted
	// statusPrunedRejected: cost below α/(mc); rejected immediately (§2's
	// R_small argument).
	statusPrunedRejected
)

// WeightChange reports that request ID's weight increased by Delta during
// one Offer/ShrinkCapacity call. The randomized layer turns these into
// rejection probabilities.
type WeightChange struct {
	ID    int
	Delta float64
}

// Changeset describes everything that happened inside the fractional
// algorithm during a single arrival or capacity shrink.
type Changeset struct {
	// NewID is the ID assigned to the arriving request (-1 for shrinks).
	NewID int
	// PrunedRejected is true when the arrival was rejected outright by the
	// R_small rule.
	PrunedRejected bool
	// PermAccepted is true when the arrival was accepted permanently by the
	// R_big rule.
	PermAccepted bool
	// Changes lists positive weight increases, one entry per affected
	// request, in request-ID order.
	Changes []WeightChange
	// FullyRejected lists requests whose weight reached 1 this call.
	FullyRejected []int
	// PhaseReset is true when the α-doubling scheme advanced at least one
	// phase during this call.
	PhaseReset bool
}

// reset prepares a changeset for reuse: flags cleared, slices truncated in
// place so steady-state callers perform no allocations.
func (cs *Changeset) reset(id int) {
	cs.NewID = id
	cs.PrunedRejected = false
	cs.PermAccepted = false
	cs.Changes = cs.Changes[:0]
	cs.FullyRejected = cs.FullyRejected[:0]
	cs.PhaseReset = false
}

// fracReq is the per-request fractional state of one slot. It is
// deliberately pointer-free (the edge set is an offset range into the shared
// arena, not a slice), so the GC never scans the slot array.
type fracReq struct {
	id        int64 // the request's ID; slots hold ascending IDs
	edgeStart int64 // arena offset of the request's edge set
	edgeEnd   int64
	cost      float64
	norm      float64 // normalized cost in [1, g]; recomputed per phase
	f         float64 // current weight (resets on phase change)
	paid      float64 // monotone: max over time of min(f,1)·cost
	status    reqStatus
}

// Fractional is the §2 online fractional algorithm. It is deterministic.
// Not safe for concurrent use.
//
// Requests are numbered 0, 1, 2, … in arrival order, and each holds a slot:
// an index into the per-request arrays, kept separate from its ID. The
// arrays, the per-edge lists and every changeset the internal paths build
// refer to slots; the exported methods take and report IDs. A request is
// retired once §2 can never change it again: fully rejected (weight ≥ 1,
// or force-rejected), pruned, or registered inert. Its cost is already in
// Cost. The owning Randomized drops retired slots in place once they
// outnumber the live ones (alive or permanently accepted) and the edges
// together (compactDue). Slots are renumbered in ID order, so every list
// keeps arrival order and every float sum is bit-identical. A Fractional
// used on its own keeps every slot, and its slots equal its IDs.
//
// Hot-path accounting (see DESIGN.md §6). Per edge it maintains, exactly:
// aliveCount (the number of alive requests using the edge) and a cached
// weight sum edgeSum = Σ_{alive} f with a dirty bit. The cached sum is only
// ever written by a fresh summation over the edge's compacted request list,
// and the dirty bit is set whenever a member weight changes or a member
// dies, so a clean cache is bit-identical to what re-summation would
// produce — the optimized algorithm makes exactly the decisions of the
// reference implementation. Checking an undisturbed edge's covering
// invariant is O(1) instead of O(alive).
type Fractional struct {
	cfg  Config
	caps []int // remaining capacities: original − permanent accepts − shrinks
	m    int
	cmax int // original maximum capacity (fixes g = 2mc and initial weights)
	g    float64

	// Derived from g and cmax, which are pinned at construction.
	initW  float64 // initial weight 1/(g·c) of a request's first augmentation
	log2GC float64 // log₂(2gc), the phase budget's log factor

	reqs   []fracReq
	edges  [][]int // per edge: slots of the requests that use it (alive and not; pruned lazily)
	nextID int     // the ID the next request gets: every request ever offered
	perms  int     // slots holding permanently accepted requests

	// prunedIDs has bit id set once request id, pruned or inert, has been
	// retired: the one bit Status needs to tell it from a fully rejected one.
	prunedIDs []uint64
	// remap is compact's scratch: old slot → new slot, or -1 if retired.
	remap []int

	// edgeArena backs every slot's edge set: one bump allocation instead of
	// one copy per Offer, packed again in slot order by compact.
	edgeArena []int

	// Per-edge incremental accounting.
	edgeAliveCount []int     // exact |ALIVE_e|
	edgeSum        []float64 // cached Σ_{alive∈e} f; valid iff !edgeDirty[e]
	edgeDirty      []bool

	// Alive free list: doublePhase/initAlpha iterate only alive requests
	// instead of the full offer history.
	aliveIDs []int // slots
	alivePos []int // per slot: index into aliveIDs, -1 when not alive

	// Epoch-stamped snapshot scratch, reused across calls: snapVal[s] is
	// slot s's weight at first touch within the current phase-epoch, valid
	// iff snapEpoch[s] == epoch. Replaces a per-call map allocation.
	epoch     uint64
	snapEpoch []uint64
	snapVal   []float64
	touched   []int

	alpha     float64 // current α guess; 0 means not yet determined (doubling mode)
	phasePaid float64
	paid      float64 // Σ_i paid_i, maintained incrementally

	augmentations int
	phases        int // number of α doublings performed

	// runMult is augmentRun's scratch: the current run's step multiplier
	// per member, in list order.
	runMult []float64

	// allEdges is the cached [0, m) worklist augmentEdges switches to after
	// a phase reset, which zeroes every alive weight and can therefore
	// break the covering invariant on edges outside the caller's list.
	allEdges []int
}

// NewFractional creates the fractional algorithm for the given capacity
// vector.
func NewFractional(capacities []int, cfg Config) (*Fractional, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(capacities) == 0 {
		return nil, fmt.Errorf("core: no edges")
	}
	cmax := 0
	for e, c := range capacities {
		if c <= 0 {
			return nil, fmt.Errorf("core: edge %d capacity %d, want > 0", e, c)
		}
		if c > cmax {
			cmax = c
		}
	}
	f := &Fractional{
		cfg:            cfg,
		caps:           append([]int(nil), capacities...),
		m:              len(capacities),
		cmax:           cmax,
		edges:          make([][]int, len(capacities)),
		edgeAliveCount: make([]int, len(capacities)),
		edgeSum:        make([]float64, len(capacities)),
		edgeDirty:      make([]bool, len(capacities)),
		epoch:          1,
	}
	// Seed every per-edge request list with a fixed-capacity window of one
	// shared backing block: early joins cost zero allocations, and a list
	// that outgrows its window migrates to its own array on the next append.
	// Alive sets scale with the edge's own capacity (weights die once the
	// excess is covered), so 4·c_e covers the steady state of most
	// workloads while keeping construction memory O(Σ c_e), not O(m·c).
	offsets := make([]int, len(capacities)+1)
	for e, c := range capacities {
		seedCap := 4 * c
		if seedCap < 8 {
			seedCap = 8
		}
		offsets[e+1] = offsets[e] + seedCap
	}
	block := make([]int, offsets[len(capacities)])
	for e := range f.edges {
		f.edges[e] = block[offsets[e]:offsets[e]:offsets[e+1]]
	}
	if cfg.Unweighted {
		f.g = 1
	} else {
		f.g = 2 * float64(f.m) * float64(cmax)
		if cfg.AlphaMode == AlphaOracle {
			f.alpha = cfg.Alpha
		}
	}
	f.initW = 1 / (f.g * float64(cmax))
	f.log2GC = math.Log2(2 * f.g * float64(cmax))
	return f, nil
}

// M returns the number of edges.
func (f *Fractional) M() int { return f.m }

// MaxCapacity returns the original maximum capacity c.
func (f *Fractional) MaxCapacity() int { return f.cmax }

// Cost returns the fractional objective Σ_i min(f_i,1)·p_i accumulated so
// far (monotone across α-doubling phases).
func (f *Fractional) Cost() float64 { return f.paid }

// Augmentations returns the total number of weight-augmentation steps
// performed (the quantity bounded by Lemma 1).
func (f *Fractional) Augmentations() int { return f.augmentations }

// Phases returns how many times the α guess was doubled.
func (f *Fractional) Phases() int { return f.phases }

// Alpha returns the current α guess (0 if not yet set in doubling mode).
func (f *Fractional) Alpha() float64 { return f.alpha }

// Weight returns request id's current fractional weight, capped at 1. A
// retired request answers 1, its terminal weight; an ID never handed out
// answers 0.
func (f *Fractional) Weight(id int) float64 {
	if s := f.slotOf(id); s >= 0 {
		return f.weightAt(s)
	}
	if id >= 0 && id < f.nextID {
		return 1
	}
	return 0
}

// weightAt is Weight by slot.
func (f *Fractional) weightAt(s int) float64 {
	if w := f.reqs[s].f; w < 1 {
		return w
	}
	return 1
}

// Status returns the request's internal status; exposed for the baselines
// and for tests. A retired request answers its terminal status:
// pruned (inert requests included) or fully rejected. An ID never handed
// out is all false.
func (f *Fractional) Status(id int) (alive, fullyRejected, permAccepted, pruned bool) {
	st := statusFullyRejected
	switch s := f.slotOf(id); {
	case s >= 0:
		st = f.reqs[s].status
	case id < 0 || id >= f.nextID:
		return false, false, false, false
	case f.prunedIDs[id>>6]&(1<<(id&63)) != 0:
		st = statusPrunedRejected
	}
	return st == statusAlive, st == statusFullyRejected, st == statusPermAccepted, st == statusPrunedRejected
}

// slotOf returns the slot of request id, or -1 when id is retired or was
// never handed out.
func (f *Fractional) slotOf(id int) int {
	if id < 0 || id >= f.nextID {
		return -1
	}
	if id < len(f.reqs) && f.reqs[id].id == int64(id) {
		return id // nothing before id was dropped
	}
	// Slots hold ascending IDs, and no slot exceeds its ID.
	lo, hi := 0, min(id, len(f.reqs))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.reqs[mid].id < int64(id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(f.reqs) && f.reqs[lo].id == int64(id) {
		return lo
	}
	return -1
}

// idOf returns the ID of the request in slot s.
func (f *Fractional) idOf(s int) int { return int(f.reqs[s].id) }

// RemainingCapacity returns the adjusted capacity of edge e (original minus
// permanent accepts and shrinks).
func (f *Fractional) RemainingCapacity(e int) int {
	if e < 0 || e >= f.m {
		return 0
	}
	return f.caps[e]
}

// pay charges the monotone fractional cost for slot s at its current
// weight.
func (f *Fractional) pay(s int) {
	r := &f.reqs[s]
	w := r.f
	if w > 1 {
		w = 1
	}
	charge := w * r.cost
	if charge > r.paid {
		f.paid += charge - r.paid
		f.phasePaid += charge - r.paid
		r.paid = charge
	}
}

// normalize recomputes slot s's normalized cost for the current α.
// Normalized costs live in [1, g]: p̂ = p·mc/α clamped.
func (f *Fractional) normalize(s int) {
	r := &f.reqs[s]
	if f.cfg.Unweighted {
		r.norm = 1
		return
	}
	if f.alpha <= 0 {
		// No α yet (doubling mode before the first overload): no
		// augmentation can occur either, so norm is not used. Set 1.
		r.norm = 1
		return
	}
	scale := float64(f.m) * float64(f.cmax) / f.alpha
	n := r.cost * scale
	if n < 1 {
		n = 1
	}
	if n > f.g {
		n = f.g
	}
	r.norm = n
}

// appendReq stores a new request under the next ID in a new slot,
// bump-allocating its edge set in the shared arena and growing the per-slot
// accounting arrays in lockstep. It returns the slot.
func (f *Fractional) appendReq(r problem.Request, status reqStatus, weight float64) int {
	s := len(f.reqs)
	start := len(f.edgeArena)
	f.edgeArena = append(f.edgeArena, r.Edges...)
	f.reqs = append(f.reqs, fracReq{
		id:        int64(f.nextID),
		edgeStart: int64(start),
		edgeEnd:   int64(len(f.edgeArena)),
		cost:      r.Cost,
		f:         weight,
		status:    status,
	})
	f.nextID++
	f.alivePos = append(f.alivePos, -1)
	f.snapEpoch = append(f.snapEpoch, 0)
	f.snapVal = append(f.snapVal, 0)
	return s
}

// edgesOf resolves a request's edge set against the current arena backing
// array. Offsets survive arena growth because append copies the prefix.
func (f *Fractional) edgesOf(r *fracReq) []int {
	return f.edgeArena[r.edgeStart:r.edgeEnd:r.edgeEnd]
}

// markAlive inserts slot s into the alive free list.
func (f *Fractional) markAlive(s int) {
	f.alivePos[s] = len(f.aliveIDs)
	f.aliveIDs = append(f.aliveIDs, s)
}

// dropAlive removes slot s from the alive free list and retires it from the
// per-edge accounting: alive counts decrement and the edges' cached sums are
// invalidated. The caller flips the status.
func (f *Fractional) dropAlive(s int) {
	pos := f.alivePos[s]
	last := len(f.aliveIDs) - 1
	moved := f.aliveIDs[last]
	f.aliveIDs[pos] = moved
	f.alivePos[moved] = pos
	f.aliveIDs = f.aliveIDs[:last]
	f.alivePos[s] = -1
	for _, e := range f.edgesOf(&f.reqs[s]) {
		f.edgeAliveCount[e]--
		f.edgeDirty[e] = true
	}
}

// snapshot records slot s's weight at first touch within the current
// phase-epoch, for delta reporting.
func (f *Fractional) snapshot(s int) {
	if f.snapEpoch[s] != f.epoch {
		f.snapEpoch[s] = f.epoch
		f.snapVal[s] = f.reqs[s].f
		f.touched = append(f.touched, s)
	}
}

// resetSnapshots invalidates every recorded snapshot (phase change: deltas
// restart from the post-reset weights).
func (f *Fractional) resetSnapshots() {
	f.epoch++
	f.touched = f.touched[:0]
}

// Offer processes an arriving request and returns the changeset.
func (f *Fractional) Offer(r problem.Request) (Changeset, error) {
	var cs Changeset
	if err := f.OfferInto(r, &cs); err != nil {
		return Changeset{}, err
	}
	return cs, nil
}

// OfferInto is the allocation-free form of Offer: the changeset's slices are
// truncated and reused, so a steady-state caller that recycles cs performs
// no heap allocations. On error cs is left in an unspecified state.
func (f *Fractional) OfferInto(r problem.Request, cs *Changeset) error {
	if err := r.Validate(f.m); err != nil {
		return err
	}
	if err := f.offerValidated(r, cs); err != nil {
		return err
	}
	f.toIDs(cs)
	return nil
}

// toIDs rewrites a changeset the internal paths filled with slots into
// request IDs, for the exported entry points.
func (f *Fractional) toIDs(cs *Changeset) {
	if cs.NewID >= 0 {
		cs.NewID = f.idOf(cs.NewID)
	}
	for i := range cs.Changes {
		cs.Changes[i].ID = f.idOf(cs.Changes[i].ID)
	}
	for i, s := range cs.FullyRejected {
		cs.FullyRejected[i] = f.idOf(s)
	}
}

// offerValidated is OfferInto without the edge-set validation, for callers
// (the randomized layer) that already validated the request. It fills cs
// with slots.
func (f *Fractional) offerValidated(r problem.Request, cs *Changeset) error {
	if f.cfg.Unweighted && r.Cost != 1 {
		return fmt.Errorf("core: unweighted mode requires cost 1, got %v", r.Cost)
	}
	s := f.appendReq(r, statusAlive, 0)
	cs.reset(s)

	// §2 cost-window pruning (weighted with a live α only).
	if !f.cfg.Unweighted && f.alpha > 0 {
		switch {
		case r.Cost > 2*f.alpha:
			if f.tryPermanentAccept(s) {
				cs.PermAccepted = true
				// Reserving capacity may have created excess for the other
				// alive requests; restore the covering invariant.
				reset, err := f.augmentEdges(f.edgesOf(&f.reqs[s]), cs)
				cs.PhaseReset = cs.PhaseReset || reset
				return err
			}
			// No spare capacity to reserve (α was guessed too low, or the
			// adversary saturated the edge with big requests): fall through
			// and treat the request as a normal one at the clamped cost.
		case r.Cost < f.alpha/(float64(f.m)*float64(f.cmax)):
			f.reqs[s].status = statusPrunedRejected
			f.reqs[s].f = 1
			f.pay(s)
			cs.PrunedRejected = true
			return nil
		}
	}

	f.normalize(s)
	reqEdges := f.edgesOf(&f.reqs[s])
	for _, e := range reqEdges {
		f.edges[e] = append(f.edges[e], s)
		// The arrival's weight is 0, so cached sums stay valid; only the
		// alive count moves.
		f.edgeAliveCount[e]++
	}
	f.markAlive(s)
	reset, err := f.augmentEdges(reqEdges, cs)
	cs.PhaseReset = cs.PhaseReset || reset
	return err
}

// tryPermanentAccept reserves one capacity unit on each edge of slot s if
// possible. Returns false (and reserves nothing) when any edge has no
// remaining adjusted capacity.
func (f *Fractional) tryPermanentAccept(s int) bool {
	r := &f.reqs[s]
	edges := f.edgesOf(r)
	for _, e := range edges {
		if f.caps[e] <= 0 {
			return false
		}
	}
	for _, e := range edges {
		f.caps[e]--
	}
	r.status = statusPermAccepted
	f.perms++
	return true
}

// ShrinkCapacity permanently removes one capacity unit from edge e (the §4
// reduction's phase-2 arrival) and restores the covering invariant.
func (f *Fractional) ShrinkCapacity(e int) (Changeset, error) {
	var cs Changeset
	if err := f.ShrinkCapacityInto(e, &cs); err != nil {
		return Changeset{}, err
	}
	return cs, nil
}

// ShrinkCapacityInto is the allocation-free form of ShrinkCapacity.
func (f *Fractional) ShrinkCapacityInto(e int, cs *Changeset) error {
	if err := f.shrink(e, cs); err != nil {
		return err
	}
	f.toIDs(cs)
	return nil
}

// shrink is ShrinkCapacityInto filling cs with slots.
func (f *Fractional) shrink(e int, cs *Changeset) error {
	if e < 0 || e >= f.m {
		return fmt.Errorf("core: shrink of unknown edge %d", e)
	}
	if f.caps[e] <= 0 {
		return fmt.Errorf("core: edge %d has no capacity left to shrink", e)
	}
	f.caps[e]--
	cs.reset(-1)
	edges := [1]int{e}
	reset, err := f.augmentEdges(edges[:], cs)
	cs.PhaseReset = reset
	return err
}

// GrowCapacity restores one unit of edge e's capacity, undoing a prior
// ShrinkCapacity (the engine's two-phase cross-shard path reserves by
// shrinking and aborts by growing back). Growing only loosens the covering
// constraint Σ f ≥ n_e, so no weight work is needed; weights raised by the
// paired shrink stay raised, which is conservative (the fractional solution
// over-covers slightly). Callers must pair every grow with an earlier shrink
// on the same edge.
func (f *Fractional) GrowCapacity(e int) error {
	if e < 0 || e >= f.m {
		return fmt.Errorf("core: grow of unknown edge %d", e)
	}
	f.caps[e]++
	return nil
}

// RaiseCapacity adds one brand-new unit of capacity to edge e — an
// operator-initiated scale-up, not the undo of a prior shrink (that is
// GrowCapacity). Like growing, raising only loosens the covering
// constraint Σ f ≥ n_e, so no weight work is needed and nothing can
// become infeasible. The phase budget and pruning thresholds stay pinned
// at their construction-time values: the competitive guarantee is stated
// against the capacity vector the instance was built over, and a raise
// widens headroom without re-deriving them.
func (f *Fractional) RaiseCapacity(e int) error {
	if e < 0 || e >= f.m {
		return fmt.Errorf("core: raise of unknown edge %d", e)
	}
	f.caps[e]++
	return nil
}

// RegisterInert appends a request that the caller has already rejected
// outside the fractional accounting (the §3 |REQ_e| safeguard), so that
// caller request IDs stay aligned with fractional IDs. The request joins no
// edge lists and is charged no fractional cost. Returns the assigned ID.
func (f *Fractional) RegisterInert(r problem.Request) int {
	return f.idOf(f.appendReq(r, statusPrunedRejected, 1))
}

// ForceReject marks an alive request as fully rejected (used by the
// randomized layer's |REQ_e| safeguard). Its cost is charged in full.
// Force-rejecting a retired request is a no-op.
func (f *Fractional) ForceReject(id int) error {
	if s := f.slotOf(id); s >= 0 {
		return f.forceReject(s)
	}
	if id < 0 || id >= f.nextID {
		return fmt.Errorf("core: ForceReject of unknown request %d", id)
	}
	return nil // retired, so already rejected: idempotent
}

// forceReject is ForceReject by slot.
func (f *Fractional) forceReject(s int) error {
	r := &f.reqs[s]
	switch r.status {
	case statusAlive:
		f.dropAlive(s)
		r.status = statusFullyRejected
		r.f = 1
		f.pay(s)
		return nil
	case statusPermAccepted:
		return fmt.Errorf("core: ForceReject of permanently accepted request %d", r.id)
	default:
		return nil // already rejected: idempotent
	}
}

// compactDue reports whether retired slots outnumber the live ones (alive
// or permanently accepted) and the edges together. A compaction reads every
// slot and every edge's list, so this rule makes it amortized O(1) per
// retirement, and the slots stay within twice the live ones plus m.
func (f *Fractional) compactDue() bool {
	live := len(f.aliveIDs) + f.perms
	return len(f.reqs)-live > live+f.m
}

// compact drops every retired slot in place and renumbers the live ones in
// ID order, packing the edge arena and rewriting the per-edge lists and the
// alive list to match. It returns the old→new slot map (-1 for a dropped
// slot), valid until the next compaction, for the owner's per-slot state.
//
// Nothing a later call reads changes: a per-edge list loses only retired
// entries, which every reader skips, and keeps its order, so every sum
// over it runs over the same weights in the same order. Snapshots are
// invalidated, as at the start of every call. With the scratch grown once,
// a steady-state compaction allocates nothing.
func (f *Fractional) compact() []int {
	n := len(f.reqs)
	f.remap = slices.Grow(f.remap[:0], n)[:n]
	for len(f.prunedIDs) < (f.nextID+63)>>6 {
		f.prunedIDs = append(f.prunedIDs, 0)
	}
	w, arena := 0, 0
	for s := range f.reqs {
		r := f.reqs[s]
		if r.status == statusFullyRejected || r.status == statusPrunedRejected {
			if r.status == statusPrunedRejected {
				f.prunedIDs[r.id>>6] |= 1 << (r.id & 63)
			}
			f.remap[s] = -1
			continue
		}
		k := copy(f.edgeArena[arena:], f.edgeArena[r.edgeStart:r.edgeEnd])
		r.edgeStart, r.edgeEnd = int64(arena), int64(arena+k)
		arena += k
		f.reqs[w] = r
		f.alivePos[w] = f.alivePos[s]
		f.remap[s] = w
		w++
	}
	f.reqs = f.reqs[:w]
	f.edgeArena = f.edgeArena[:arena]
	f.alivePos = f.alivePos[:w]
	f.snapEpoch = f.snapEpoch[:w]
	f.snapVal = f.snapVal[:w]
	for i, s := range f.aliveIDs {
		f.aliveIDs[i] = f.remap[s]
	}
	for e, list := range f.edges {
		k := 0
		for _, s := range list {
			if ns := f.remap[s]; ns >= 0 {
				list[k] = ns
				k++
			}
		}
		f.edges[e] = list[:k]
	}
	f.resetSnapshots()
	return f.remap
}

// aliveOn compacts edge e's request list in place, dropping non-alive
// entries, and returns the alive slots.
func (f *Fractional) aliveOn(e int) []int {
	list := f.edges[e]
	w := 0
	for _, s := range list {
		if f.reqs[s].status == statusAlive {
			list[w] = s
			w++
		}
	}
	f.edges[e] = list[:w]
	return f.edges[e]
}

// refreshEdge recomputes edge e's cached weight sum by fresh summation over
// the compacted alive list, re-establishing the clean-cache invariant.
func (f *Fractional) refreshEdge(e int) {
	sum := 0.0
	for _, s := range f.aliveOn(e) {
		sum += f.reqs[s].f
	}
	f.edgeSum[e] = sum
	f.edgeDirty[e] = false
}

// augmentEdges restores Σ_{alive} f ≥ n_e on every listed edge, iterating to
// a fixpoint because an augmentation on one edge can fully-reject a request
// and disturb another. It reports whether any α-doubling phase reset
// occurred. Weight increases are accumulated into cs, by slot.
//
// Cost model: checking an edge whose member weights did not change since its
// last refresh is O(1) (exact alive count, clean cached sum). Only edges
// actually disturbed — by an augmentation, a full rejection, or a phase
// reset — pay a re-summation, so an Offer's cost is proportional to the
// requests it touches rather than to the total history of the run. An
// under-covered edge is augmented in runs (augmentRun), so work that no
// step of a run can change is paid once per run, not once per step.
func (f *Fractional) augmentEdges(edgeList []int, cs *Changeset) (reset bool, err error) {
	f.resetSnapshots()

	for pass := 0; ; pass++ {
		if pass > 64 {
			// Bounded weights make >64 fixpoint passes impossible; reaching
			// this means the covering invariant may be unrestored.
			return reset, fmt.Errorf(
				"core: augmentEdges: covering fixpoint not reached after %d passes over %d edges (alive-set accounting bug; invariant possibly unrestored)",
				pass, len(edgeList))
		}
		satisfied := true
		for _, e := range edgeList {
			for {
				ne := f.edgeAliveCount[e] - f.caps[e]
				if ne <= 0 {
					break
				}
				if f.edgeDirty[e] {
					f.refreshEdge(e)
				}
				if f.edgeSum[e] >= float64(ne) {
					break
				}
				// Clean cache ⇒ the list was compacted when the sum was last
				// refreshed and nobody died since, so it is all-alive here.
				alive := f.edges[e]
				if len(alive) == 0 {
					return reset, fmt.Errorf(
						"core: augmentEdges: edge %d overloaded (n_e = %d) with no alive requests (capacity accounting bug)",
						e, ne)
				}
				satisfied = false
				alphaSet, doubled := f.augmentRun(e, ne, alive, cs)
				// α initialization changes the normalization of every alive
				// request; a doubling also zeroes every alive weight.
				reset = reset || alphaSet || doubled
				if doubled {
					// The covering invariant may now be violated on edges far
					// from this arrival; widen the fixpoint to the whole edge
					// set. (Every other invariant-breaking event — a new alive
					// request, a permanent accept, a shrink — is local to
					// edges already in the list.)
					edgeList = f.allEdgeList()
				}
			}
		}
		if satisfied {
			break
		}
	}

	// Slots are in ID order, so this is request-ID order.
	slices.Sort(f.touched)
	for _, s := range f.touched {
		cur := f.reqs[s].f
		if b := f.snapVal[s]; cur > b {
			cs.Changes = append(cs.Changes, WeightChange{ID: s, Delta: cur - b})
		}
	}
	return reset, nil
}

// augmentRun performs consecutive weight augmentations (§2 steps a–c) on
// edge e, whose excess is ne and whose compacted list alive holds only alive
// requests. It returns after the first step in which a member was fully
// rejected (n_e changed), Σ f ≥ n_e came to hold, or the phase budget was
// exceeded; the last ends in doublePhase. It reports whether α was
// initialized and whether the run ended in an α doubling.
//
// Every step performs the float operations of a lone augmentation in the
// same order. What no step of the run can change is done once, up front: α
// initialization (α is then fixed until the run ends), snapshots (epoch-
// stamped, so repeats are no-ops), the zero-weight start (no weight is 0
// after one step), dirtying the members' other edges (no edge but e is
// refreshed during a run), each member's step multiplier 1+1/(n_e·p̂)
// (n_e and the normalized costs hold until the run ends), and the phase
// budget K·α·log₂(2gc). The cost accumulators live in locals for the run
// and are written back before doublePhase and on return.
func (f *Fractional) augmentRun(e, ne int, alive []int, cs *Changeset) (alphaSet, doubled bool) {
	if f.needsAlpha() {
		f.initAlpha(alive)
		f.resetSnapshots()
		alphaSet = true
	}
	mult := f.runMult[:0]
	for _, s := range alive {
		f.snapshot(s)
		r := &f.reqs[s]
		if r.f == 0 {
			r.f = f.initW
		}
		for _, e2 := range f.edgesOf(r) {
			if e2 != e {
				f.edgeDirty[e2] = true
			}
		}
		mult = append(mult, 1+1/(float64(ne)*r.norm))
	}
	f.runMult = mult
	budget := math.Inf(1)
	if !f.cfg.Unweighted && f.cfg.AlphaMode == AlphaDoubling && f.alpha != 0 {
		budget = f.cfg.DoublingBudgetFactor * f.alpha * f.log2GC
	}
	paid, phasePaid := f.paid, f.phasePaid
	for {
		f.augmentations++
		// Multiply pass, fused with the next step's fresh sum: survivors are
		// compacted in place and their new weights accumulated in list
		// order, which is bit-identical to re-summing the compacted list
		// afterwards. A death does not cut the pass short, and it ends the
		// run, so mult never needs compacting.
		w := 0
		sum := 0.0
		for i, s := range alive {
			r := &f.reqs[s]
			r.f *= mult[i]
			// pay, on the run's accumulators.
			wt := r.f
			if wt > 1 {
				wt = 1
			}
			if charge := wt * r.cost; charge > r.paid {
				paid += charge - r.paid
				phasePaid += charge - r.paid
				r.paid = charge
			}
			if r.f >= 1 {
				r.status = statusFullyRejected
				f.dropAlive(s)
				cs.FullyRejected = append(cs.FullyRejected, s)
			} else {
				alive[w] = s
				w++
				sum += r.f
			}
		}
		f.edges[e] = alive[:w]
		// dropAlive marked e dirty for each death, but the fused sum already
		// reflects the survivors exactly.
		f.edgeSum[e] = sum
		f.edgeDirty[e] = false
		if phasePaid > budget {
			f.paid, f.phasePaid = paid, phasePaid
			f.doublePhase()
			f.resetSnapshots()
			return alphaSet, true
		}
		if w < len(alive) || sum >= float64(ne) {
			f.paid, f.phasePaid = paid, phasePaid
			return alphaSet, false
		}
	}
}

// allEdgeList returns the cached full-edge worklist [0, m).
func (f *Fractional) allEdgeList() []int {
	if f.allEdges == nil {
		f.allEdges = make([]int, f.m)
		for e := range f.allEdges {
			f.allEdges[e] = e
		}
	}
	return f.allEdges
}

// needsAlpha reports whether the doubling scheme still awaits its first
// overload.
func (f *Fractional) needsAlpha() bool {
	return !f.cfg.Unweighted && f.alpha == 0
}

// initAlpha sets the initial guess α = min cost over the overloaded edge's
// alive requests (§2), and normalizes every alive request. Weights are
// untouched, so cached edge sums stay valid.
func (f *Fractional) initAlpha(alive []int) {
	minCost := math.Inf(1)
	for _, s := range alive {
		if c := f.reqs[s].cost; c < minCost {
			minCost = c
		}
	}
	if math.IsInf(minCost, 1) {
		minCost = 1
	}
	f.alpha = minCost
	f.phasePaid = 0
	for _, s := range f.aliveIDs {
		f.normalize(s)
	}
}

// doublePhase advances the guess-and-double scheme: α doubles, the phase
// cost counter resets, alive weights restart from zero ("forget about all
// the request fractions rejected so far"), and normalized costs are
// recomputed. Cost already charged (paid) is never un-charged. Every alive
// weight changes, so every cached edge sum is invalidated.
func (f *Fractional) doublePhase() {
	f.alpha *= 2
	f.phases++
	f.phasePaid = 0
	for _, s := range f.aliveIDs {
		r := &f.reqs[s]
		r.f = 0
		f.normalize(s)
	}
	for e := range f.edgeDirty {
		f.edgeDirty[e] = true
	}
}

// CheckCovered verifies the covering invariant Σ_{alive} f_i ≥ n_e on the
// given edges (nil = all edges whose excess is positive). Intended for
// tests: the §2 algorithm guarantees it on the edges of each arrival. It
// deliberately recomputes from the raw request lists rather than the cached
// accounting.
func (f *Fractional) CheckCovered(edgeList []int) error {
	if edgeList == nil {
		edgeList = make([]int, f.m)
		for e := range edgeList {
			edgeList[e] = e
		}
	}
	for _, e := range edgeList {
		if e < 0 || e >= f.m {
			return fmt.Errorf("core: CheckCovered: bad edge %d", e)
		}
		alive := f.aliveOn(e)
		ne := len(alive) - f.caps[e]
		if ne <= 0 {
			continue
		}
		sum := 0.0
		for _, s := range alive {
			sum += f.reqs[s].f
		}
		if sum < float64(ne)-1e-9 {
			return fmt.Errorf("core: edge %d: Σf = %v < n_e = %d", e, sum, ne)
		}
	}
	return nil
}

// auditAccounting cross-checks the incremental accounting against a
// from-scratch recomputation: slot IDs ascending, the permanent-accept
// count, exact alive counts, and — for clean caches — bit-identical sums.
// Test hook; O(slots).
func (f *Fractional) auditAccounting() error {
	aliveSet := make(map[int]bool, len(f.aliveIDs))
	for i, s := range f.aliveIDs {
		if f.alivePos[s] != i {
			return fmt.Errorf("core: audit: alivePos[%d] = %d, want %d", s, f.alivePos[s], i)
		}
		if f.reqs[s].status != statusAlive {
			return fmt.Errorf("core: audit: slot %d in alive list with status %d", s, f.reqs[s].status)
		}
		aliveSet[s] = true
	}
	perms := 0
	for s := range f.reqs {
		r := &f.reqs[s]
		if r.id < int64(s) || r.id >= int64(f.nextID) || s > 0 && r.id <= f.reqs[s-1].id {
			return fmt.Errorf("core: audit: slot %d holds request %d (next ID %d)", s, r.id, f.nextID)
		}
		if r.status == statusPermAccepted {
			perms++
		}
		if r.status == statusAlive && f.alivePos[s] >= 0 != aliveSet[s] {
			return fmt.Errorf("core: audit: slot %d alive-list membership inconsistent", s)
		}
	}
	if perms != f.perms {
		return fmt.Errorf("core: audit: %d permanent accepts counted, %d held", f.perms, perms)
	}
	for e := 0; e < f.m; e++ {
		count := 0
		sum := 0.0
		for _, s := range f.edges[e] {
			if f.reqs[s].status == statusAlive {
				count++
				sum += f.reqs[s].f
			}
		}
		if count != f.edgeAliveCount[e] {
			return fmt.Errorf("core: audit: edge %d alive count %d, recomputed %d", e, f.edgeAliveCount[e], count)
		}
		if !f.edgeDirty[e] && sum != f.edgeSum[e] {
			return fmt.Errorf("core: audit: edge %d clean cached sum %v, recomputed %v", e, f.edgeSum[e], sum)
		}
	}
	return nil
}

// AliveCount returns the number of alive fractional requests on edge e.
func (f *Fractional) AliveCount(e int) int {
	if e < 0 || e >= f.m {
		return 0
	}
	return f.edgeAliveCount[e]
}

// NumRequests returns how many requests have been offered (or registered
// inert): the next request's ID.
func (f *Fractional) NumRequests() int { return f.nextID }

// RequestEdges returns the edge set of request id (shared slice, valid until
// the next call that changes f; do not modify). A retired request answers
// nil: its edges are no longer kept.
func (f *Fractional) RequestEdges(id int) []int {
	if s := f.slotOf(id); s >= 0 {
		return f.edgesOf(&f.reqs[s])
	}
	return nil
}

// RequestCost returns the original cost of request id. A retired request
// answers 0: its cost is already in Cost and is no longer kept.
func (f *Fractional) RequestCost(id int) float64 {
	if s := f.slotOf(id); s >= 0 {
		return f.reqs[s].cost
	}
	return 0
}
