package core

import (
	"strings"
	"testing"

	"admission/internal/problem"
	"admission/internal/rng"
)

// TestAugmentEdgesGuardError verifies that the fixpoint guards report a
// descriptive error instead of silently breaking out with the covering
// invariant possibly unrestored. The guarded states are unreachable through
// the public API (they indicate an accounting bug), so the test corrupts the
// capacity vector directly.
func TestAugmentEdgesGuardError(t *testing.T) {
	f, err := NewFractional([]int{1}, UnweightedConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Negative capacity with no alive requests: n_e > 0 can never be
	// covered, which the overloaded-empty-edge guard must catch.
	f.caps[0] = -1
	var cs Changeset
	cs.reset(-1)
	if _, err := f.augmentEdges([]int{0}, &cs); err == nil {
		t.Fatal("augmentEdges on an uncoverable edge returned no error")
	} else if !strings.Contains(err.Error(), "no alive requests") {
		t.Fatalf("unexpected guard error: %v", err)
	}
}

// TestOfferPlumbsGuardError verifies the guard error surfaces through the
// public Offer path.
func TestOfferPlumbsGuardError(t *testing.T) {
	f, err := NewFractional([]int{1}, UnweightedConfig())
	if err != nil {
		t.Fatal(err)
	}
	f.caps[0] = -2
	// The arrival and any prior requests die instantly (unweighted initial
	// weight is 1/(g·c) = 1), leaving the edge overloaded and empty.
	if _, err := f.Offer(problem.Request{Edges: []int{0}, Cost: 1}); err == nil {
		t.Fatal("Offer on a corrupted instance returned no error")
	} else if !strings.Contains(err.Error(), "augmentEdges") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestOfferIntoReuseEquivalent runs twin instances — one through the
// allocating Offer, one through OfferInto with a single recycled changeset —
// and asserts identical changesets arrival by arrival.
func TestOfferIntoReuseEquivalent(t *testing.T) {
	ins := genInstance(4242, false)
	a, err := NewFractional(ins.Capacities, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFractional(ins.Capacities, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var reused Changeset
	for i, r := range ins.Requests {
		want, err := a.Offer(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.OfferInto(r, &reused); err != nil {
			t.Fatal(err)
		}
		if err := changesetsIdentical(&reused, &want); err != nil {
			t.Fatalf("arrival %d: %v", i, err)
		}
	}
	if a.Cost() != b.Cost() {
		t.Fatalf("costs diverged: %v vs %v", a.Cost(), b.Cost())
	}
}

// TestSteadyStateOfferZeroAllocs pins DESIGN §6's claim that a steady-state
// Offer allocates nothing: after a warm-up on the long-run shape, cycling
// Offers must average zero heap allocations, both weighted (many
// augmentations per Offer) and unweighted. Request pruning is disabled so
// the 4mc² safeguard cannot turn the weighted stream into reject-all.
func TestSteadyStateOfferZeroAllocs(t *testing.T) {
	for _, unweighted := range []bool{false, true} {
		caps, reqs := longRunShape(11, 2000, unweighted)
		cfg := DefaultConfig()
		if unweighted {
			cfg = UnweightedConfig()
		}
		cfg.Seed = 1
		cfg.DisableReqPruning = true
		a, err := NewRandomized(caps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		id := 0
		offer := func() {
			if _, err := a.Offer(id, reqs[id%len(reqs)]); err != nil {
				t.Fatal(err)
			}
			id++
		}
		for range reqs {
			offer()
		}
		before, start := a.Augmentations(), id
		allocs := testing.AllocsPerRun(1000, offer)
		t.Logf("unweighted=%v: %.1f augmentations per Offer", unweighted,
			float64(a.Augmentations()-before)/float64(id-start))
		if allocs != 0 {
			t.Errorf("unweighted=%v: steady-state Offer allocates %v times per call, want 0", unweighted, allocs)
		}
	}
}

// TestAccountingAuditRandomized drives the randomized algorithm (offers
// interleaved with shrinks) and cross-checks the incremental per-edge
// accounting — alive counts, alive free list, clean cached sums — against a
// from-scratch recomputation after every step.
func TestAccountingAuditRandomized(t *testing.T) {
	for _, w := range goldenWorkloads() {
		a, err := NewRandomized(w.caps, w.cfg)
		if err != nil {
			t.Fatal(err)
		}
		id := 0
		for i, op := range w.ops {
			if op.req == nil {
				if _, err := a.ShrinkCapacity(op.edge); err != nil {
					if strings.Contains(err.Error(), "no capacity left to shrink") {
						continue
					}
					t.Fatalf("%s op %d: %v", w.name, i, err)
				}
			} else {
				if _, err := a.Offer(id, *op.req); err != nil {
					t.Fatalf("%s op %d: %v", w.name, i, err)
				}
				id++
			}
			if err := a.frac.auditAccounting(); err != nil {
				t.Fatalf("%s after op %d: %v", w.name, i, err)
			}
		}
	}
}

// TestAccountingAuditFractional audits the fractional layer alone across
// random instances, including ForceReject interleavings.
func TestAccountingAuditFractional(t *testing.T) {
	r := rng.New(31337)
	for trial := 0; trial < 20; trial++ {
		unweighted := trial%2 == 0
		ins := genInstance(uint64(9000+trial), unweighted)
		cfg := DefaultConfig()
		if unweighted {
			cfg = UnweightedConfig()
		}
		f, err := NewFractional(ins.Capacities, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, req := range ins.Requests {
			cs, err := f.Offer(req)
			if err != nil {
				t.Fatalf("trial %d offer %d: %v", trial, i, err)
			}
			if r.Bernoulli(0.2) {
				if alive, _, _, _ := f.Status(cs.NewID); alive {
					if err := f.ForceReject(cs.NewID); err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					}
				}
			}
			if err := f.auditAccounting(); err != nil {
				t.Fatalf("trial %d after offer %d: %v", trial, i, err)
			}
		}
	}
}
