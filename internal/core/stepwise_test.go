package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"admission/internal/problem"
	"admission/internal/rng"
)

// This file keeps the per-step §2 augmentation loop that augmentRun
// replaced, verbatim apart from names, as a test-only reference: every step
// redoes the α check, the snapshots, the zero-weight start, the marking of
// the members' other edges and the phase-budget computation. The
// differential tests drive a Fractional through the production path and a
// twin through this one and require bit-identical results.

// offerStepwise is offerValidated routed through augmentEdgesStepwise.
func (f *Fractional) offerStepwise(r problem.Request, cs *Changeset) error {
	if err := r.Validate(f.m); err != nil {
		return err
	}
	if f.cfg.Unweighted && r.Cost != 1 {
		return fmt.Errorf("core: unweighted mode requires cost 1, got %v", r.Cost)
	}
	id := f.appendReq(r, statusAlive, 0)
	cs.reset(id)

	// §2 cost-window pruning (weighted with a live α only).
	if !f.cfg.Unweighted && f.alpha > 0 {
		switch {
		case r.Cost > 2*f.alpha:
			if f.tryPermanentAccept(id) {
				cs.PermAccepted = true
				// Reserving capacity may have created excess for the other
				// alive requests; restore the covering invariant.
				reset, err := f.augmentEdgesStepwise(f.edgesOf(&f.reqs[id]), cs)
				cs.PhaseReset = cs.PhaseReset || reset
				return err
			}
			// No spare capacity to reserve (α was guessed too low, or the
			// adversary saturated the edge with big requests): fall through
			// and treat the request as a normal one at the clamped cost.
		case r.Cost < f.alpha/(float64(f.m)*float64(f.cmax)):
			f.reqs[id].status = statusPrunedRejected
			f.reqs[id].f = 1
			f.pay(id)
			cs.PrunedRejected = true
			return nil
		}
	}

	f.normalize(id)
	reqEdges := f.edgesOf(&f.reqs[id])
	for _, e := range reqEdges {
		f.edges[e] = append(f.edges[e], id)
		// The arrival's weight is 0, so cached sums stay valid; only the
		// alive count moves.
		f.edgeAliveCount[e]++
	}
	f.markAlive(id)
	reset, err := f.augmentEdgesStepwise(reqEdges, cs)
	cs.PhaseReset = cs.PhaseReset || reset
	return err
}

// shrinkStepwise is ShrinkCapacityInto routed through augmentEdgesStepwise.
func (f *Fractional) shrinkStepwise(e int, cs *Changeset) error {
	if e < 0 || e >= f.m {
		return fmt.Errorf("core: shrink of unknown edge %d", e)
	}
	if f.caps[e] <= 0 {
		return fmt.Errorf("core: edge %d has no capacity left to shrink", e)
	}
	f.caps[e]--
	cs.reset(-1)
	edges := [1]int{e}
	reset, err := f.augmentEdgesStepwise(edges[:], cs)
	cs.PhaseReset = reset
	return err
}

// augmentEdgesStepwise is the per-step augmentEdges.
func (f *Fractional) augmentEdgesStepwise(edgeList []int, cs *Changeset) (reset bool, err error) {
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
				// One weight augmentation (§2 steps a–c).
				f.augmentations++
				if f.needsAlpha() {
					f.initAlpha(alive)
					// α initialization changes the normalization of every
					// alive request.
					reset = true
					f.resetSnapshots()
				}
				initW := 1 / (f.g * float64(f.cmax))
				for _, id := range alive {
					f.snapshot(id)
					r := &f.reqs[id]
					if r.f == 0 {
						r.f = initW
					}
				}
				// Multiply pass, fused with the next iteration's fresh sum:
				// survivors are compacted in place and their new weights
				// accumulated in list order, which is bit-identical to
				// re-summing the compacted list afterwards.
				w := 0
				sum := 0.0
				for _, id := range alive {
					r := &f.reqs[id]
					r.f *= 1 + 1/(float64(ne)*r.norm)
					f.pay(id)
					for _, e2 := range f.edgesOf(r) {
						if e2 != e {
							f.edgeDirty[e2] = true
						}
					}
					if r.f >= 1 {
						r.status = statusFullyRejected
						f.dropAlive(id)
						cs.FullyRejected = append(cs.FullyRejected, id)
					} else {
						alive[w] = id
						w++
						sum += r.f
					}
				}
				f.edges[e] = alive[:w]
				// dropAlive marked e dirty for each death, but the fused sum
				// already reflects the survivors exactly.
				f.edgeSum[e] = sum
				f.edgeDirty[e] = false
				if f.overBudgetStepwise() {
					f.doublePhase()
					reset = true
					f.resetSnapshots()
					// The reset zeroed every alive weight, so the covering
					// invariant may now be violated on edges far from this
					// arrival; widen the fixpoint to the whole edge set.
					// (Every other invariant-breaking event — a new alive
					// request, a permanent accept, a shrink — is local to
					// edges already in the list.)
					edgeList = f.allEdgeList()
					satisfied = false
				}
			}
		}
		if satisfied {
			break
		}
	}

	slices.Sort(f.touched)
	for _, id := range f.touched {
		cur := f.reqs[id].f
		if b := f.snapVal[id]; cur > b {
			cs.Changes = append(cs.Changes, WeightChange{ID: id, Delta: cur - b})
		}
	}
	return reset, nil
}

// overBudgetStepwise reports whether the current phase has spent beyond the
// doubling budget K·α·log₂(2gc), recomputing the budget on every call.
func (f *Fractional) overBudgetStepwise() bool {
	if f.cfg.Unweighted || f.cfg.AlphaMode != AlphaDoubling || f.alpha == 0 {
		return false
	}
	budget := f.cfg.DoublingBudgetFactor * f.alpha * math.Log2(2*f.g*float64(f.cmax))
	return f.phasePaid > budget
}

// twinFractional holds a Fractional driven through the production path and a
// twin driven through the per-step reference, fed identical operations.
type twinFractional struct {
	tb           testing.TB
	run, ref     *Fractional
	csRun, csRef Changeset
	offers       int
}

func newTwinFractional(tb testing.TB, caps []int, cfg Config) *twinFractional {
	tb.Helper()
	run, err := NewFractional(caps, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ref, err := NewFractional(caps, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return &twinFractional{tb: tb, run: run, ref: ref}
}

// offer feeds r to both twins and compares the outcome.
func (tw *twinFractional) offer(r problem.Request) {
	tw.tb.Helper()
	tw.offers++
	errRun := tw.run.OfferInto(r, &tw.csRun)
	errRef := tw.ref.offerStepwise(r, &tw.csRef)
	tw.compare(fmt.Sprintf("offer %d", tw.offers-1), errRun, errRef, true)
}

// shrink removes one unit of edge e's capacity on both twins.
func (tw *twinFractional) shrink(e int) {
	tw.tb.Helper()
	errRun := tw.run.ShrinkCapacityInto(e, &tw.csRun)
	errRef := tw.ref.shrinkStepwise(e, &tw.csRef)
	tw.compare(fmt.Sprintf("shrink of edge %d", e), errRun, errRef, true)
}

// forceReject force-rejects request id on both twins.
func (tw *twinFractional) forceReject(id int) {
	tw.tb.Helper()
	errRun := tw.run.ForceReject(id)
	errRef := tw.ref.ForceReject(id)
	tw.compare(fmt.Sprintf("ForceReject(%d)", id), errRun, errRef, false)
}

// compare fails unless both twins returned the same error and, when
// withChangeset is set, bit-identical changesets; it then compares the
// scalar state bitwise and audits both twins' incremental accounting.
func (tw *twinFractional) compare(op string, errRun, errRef error, withChangeset bool) {
	tw.tb.Helper()
	if fmt.Sprint(errRun) != fmt.Sprint(errRef) {
		tw.tb.Fatalf("%s: error %v, reference %v", op, errRun, errRef)
	}
	if withChangeset && errRun == nil {
		if err := changesetsIdentical(&tw.csRun, &tw.csRef); err != nil {
			tw.tb.Fatalf("%s: %v", op, err)
		}
	}
	a, b := tw.run, tw.ref
	switch {
	case math.Float64bits(a.Cost()) != math.Float64bits(b.Cost()):
		tw.tb.Fatalf("%s: Cost %v, reference %v", op, a.Cost(), b.Cost())
	case a.Augmentations() != b.Augmentations():
		tw.tb.Fatalf("%s: Augmentations %d, reference %d", op, a.Augmentations(), b.Augmentations())
	case a.Phases() != b.Phases():
		tw.tb.Fatalf("%s: Phases %d, reference %d", op, a.Phases(), b.Phases())
	case math.Float64bits(a.Alpha()) != math.Float64bits(b.Alpha()):
		tw.tb.Fatalf("%s: Alpha %v, reference %v", op, a.Alpha(), b.Alpha())
	}
	for _, f := range []*Fractional{a, b} {
		if err := f.auditAccounting(); err != nil {
			tw.tb.Fatalf("%s: %v", op, err)
		}
	}
}

// changesetsIdentical compares two changesets field by field, deltas by
// their bits.
func changesetsIdentical(got, want *Changeset) error {
	if got.NewID != want.NewID || got.PrunedRejected != want.PrunedRejected ||
		got.PermAccepted != want.PermAccepted || got.PhaseReset != want.PhaseReset {
		return fmt.Errorf("flags %+v, reference %+v", *got, *want)
	}
	if len(got.Changes) != len(want.Changes) {
		return fmt.Errorf("%d weight changes, reference %d", len(got.Changes), len(want.Changes))
	}
	for i, c := range got.Changes {
		w := want.Changes[i]
		if c.ID != w.ID || math.Float64bits(c.Delta) != math.Float64bits(w.Delta) {
			return fmt.Errorf("change %d is %+v, reference %+v", i, c, w)
		}
	}
	if !slices.Equal(got.FullyRejected, want.FullyRejected) {
		return fmt.Errorf("fully rejected %v, reference %v", got.FullyRejected, want.FullyRejected)
	}
	return nil
}

// finalStateIdentical compares every request's weight, paid cost (bitwise)
// and status, and every edge's remaining capacity.
func (tw *twinFractional) finalStateIdentical() {
	tw.tb.Helper()
	a, b := tw.run, tw.ref
	for id := range a.reqs {
		ra, rb := a.reqs[id], b.reqs[id]
		if math.Float64bits(ra.f) != math.Float64bits(rb.f) || ra.status != rb.status ||
			math.Float64bits(ra.paid) != math.Float64bits(rb.paid) {
			tw.tb.Fatalf("request %d: %+v, reference %+v", id, ra, rb)
		}
	}
	if !slices.Equal(a.caps, b.caps) {
		tw.tb.Fatalf("capacities %v, reference %v", a.caps, b.caps)
	}
}

// driveTwins offers reqs to a fresh twin pair, interleaving a shrink of a
// random edge with probability shrinkP and a ForceReject of a random earlier
// request with probability rejectP before each arrival. It returns the twin
// pair for inspection.
func driveTwins(tb testing.TB, caps []int, cfg Config, reqs []problem.Request, r *rng.RNG, shrinkP, rejectP float64) *twinFractional {
	tb.Helper()
	tw := newTwinFractional(tb, caps, cfg)
	for _, req := range reqs {
		if r.Bernoulli(shrinkP) {
			if e := r.Intn(len(caps)); tw.run.RemainingCapacity(e) > 0 {
				tw.shrink(e)
			}
		}
		if n := tw.run.NumRequests(); n > 0 && r.Bernoulli(rejectP) {
			tw.forceReject(r.Intn(n))
		}
		tw.offer(req)
	}
	tw.finalStateIdentical()
	return tw
}

// longRunShape is the shape on which augmentations come in long runs: 64
// edges of capacity 8, 1–5 distinct edges per request, costs spread over
// 1–100 (all 1 when unweighted).
func longRunShape(seed uint64, n int, unweighted bool) ([]int, []problem.Request) {
	const m = 64
	r := rng.New(seed)
	caps := make([]int, m)
	for e := range caps {
		caps[e] = 8
	}
	reqs := make([]problem.Request, n)
	for i := range reqs {
		size := 1 + r.Intn(5)
		cost := 1.0
		if !unweighted {
			cost = float64(1 + r.Intn(100))
		}
		reqs[i] = problem.Request{Edges: r.Perm(m)[:size], Cost: cost}
	}
	return caps, reqs
}

// twinModes are the §2 configurations the differential tests cover.
var twinModes = []struct {
	name string
	cfg  func(seed uint64) Config
}{
	{"weighted-doubling", func(uint64) Config { return DefaultConfig() }},
	{"oracle-alpha", func(seed uint64) Config { return oracleCfg(float64(5 + 7*(seed%12))) }},
	{"unweighted", func(uint64) Config { return UnweightedConfig() }},
}

// TestAugmentRunsMatchStepwise drives the run-structured augmentation and
// the per-step reference through identical Offer/ShrinkCapacity/ForceReject
// sequences and requires bit-identical changesets and state after every
// operation: 50 seeds of small random instances and 4 seeds of the long-run
// shape, each in every mode.
func TestAugmentRunsMatchStepwise(t *testing.T) {
	for _, mode := range twinModes {
		t.Run(mode.name, func(t *testing.T) {
			for seed := uint64(0); seed < 50; seed++ {
				cfg := mode.cfg(seed)
				ins := genInstance(seed*7919+1, cfg.Unweighted)
				driveTwins(t, ins.Capacities, cfg, ins.Requests, rng.New(seed), 0.1, 0.05)
			}
			offers, augs := 0, 0
			var cfg Config
			for seed := uint64(0); seed < 4; seed++ {
				cfg = mode.cfg(seed)
				caps, reqs := longRunShape(seed, 2000, cfg.Unweighted)
				tw := driveTwins(t, caps, cfg, reqs, rng.New(seed), 0.01, 0.01)
				offers += tw.offers
				augs += tw.run.Augmentations()
			}
			per := float64(augs) / float64(offers)
			t.Logf("long-run shape: %.1f augmentations per offer", per)
			if !cfg.Unweighted && cfg.AlphaMode == AlphaDoubling && per < 30 {
				t.Fatalf("long-run shape averages %.1f augmentations per offer, want ≥ 30: runs no longer long", per)
			}
		})
	}
}
