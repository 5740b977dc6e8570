package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"admission/internal/problem"
	"admission/internal/rng"
)

// twinRandomized holds two Randomized instances fed identical operations:
// lazy compacts only when Offer finds it due, packed also after every
// operation. Compaction must be invisible, so after every operation both
// must report identical outcomes, changesets, costs and per-request state.
type twinRandomized struct {
	tb           testing.TB
	lazy, packed *Randomized
	ops          int
	r            *rng.RNG
}

func newTwinRandomized(tb testing.TB, caps []int, cfg Config, seed uint64) *twinRandomized {
	tb.Helper()
	tw := &twinRandomized{tb: tb, r: rng.New(seed)}
	for _, a := range []**Randomized{&tw.lazy, &tw.packed} {
		var err error
		if *a, err = NewRandomized(caps, cfg); err != nil {
			tb.Fatal(err)
		}
	}
	return tw
}

// apply runs op on both twins, with their changeset scratch cleared first
// so an operation that builds none leaves equal (empty) ones, then
// compares them and compacts packed.
func (tw *twinRandomized) apply(name string, op func(a *Randomized) (problem.Outcome, error)) {
	tw.tb.Helper()
	tw.ops++
	tw.lazy.cs.reset(-1)
	tw.packed.cs.reset(-1)
	outL, errL := op(tw.lazy)
	outP, errP := op(tw.packed)
	where := fmt.Sprintf("op %d (%s)", tw.ops, name)
	if fmt.Sprint(errL) != fmt.Sprint(errP) {
		tw.tb.Fatalf("%s: error %v, compacted twin %v", where, errL, errP)
	}
	if outL.Accepted != outP.Accepted || !slices.Equal(outL.Preempted, outP.Preempted) {
		tw.tb.Fatalf("%s: outcome %+v, compacted twin %+v", where, outL, outP)
	}
	csL, csP := changesetIDs(tw.lazy), changesetIDs(tw.packed)
	if err := changesetsIdentical(&csP, &csL); err != nil {
		tw.tb.Fatalf("%s: changeset: %v", where, err)
	}
	tw.compareState(where)
	tw.packed.Compact()
	if slots, live := tw.packed.Footprint(); slots != live {
		tw.tb.Fatalf("%s: %d slots after compaction, %d live", where, slots, live)
	}
	for _, a := range []*Randomized{tw.lazy, tw.packed} {
		if err := a.audit(); err != nil {
			tw.tb.Fatalf("%s: %v", where, err)
		}
	}
}

// changesetIDs copies a's last changeset with its slots mapped to IDs.
func changesetIDs(a *Randomized) Changeset {
	cs := a.cs
	cs.Changes = slices.Clone(cs.Changes)
	cs.FullyRejected = slices.Clone(cs.FullyRejected)
	a.frac.toIDs(&cs)
	return cs
}

// compareState compares the twins' scalar state bitwise, and the
// per-request state of the newest request and a few random earlier ones.
func (tw *twinRandomized) compareState(where string) {
	tw.tb.Helper()
	a, b := tw.lazy, tw.packed
	switch {
	case math.Float64bits(a.RejectedCost()) != math.Float64bits(b.RejectedCost()):
		tw.tb.Fatalf("%s: RejectedCost %v, compacted twin %v", where, a.RejectedCost(), b.RejectedCost())
	case math.Float64bits(a.FractionalCost()) != math.Float64bits(b.FractionalCost()):
		tw.tb.Fatalf("%s: Cost %v, compacted twin %v", where, a.FractionalCost(), b.FractionalCost())
	case a.Augmentations() != b.Augmentations() || a.Preemptions() != b.Preemptions() ||
		a.frac.Phases() != b.frac.Phases() || math.Float64bits(a.frac.Alpha()) != math.Float64bits(b.frac.Alpha()):
		tw.tb.Fatalf("%s: counters differ from the compacted twin's", where)
	case !slices.Equal(a.Loads(), b.Loads()) || !slices.Equal(a.Capacities(), b.Capacities()):
		tw.tb.Fatalf("%s: loads %v caps %v, compacted twin %v %v", where, a.Loads(), a.Capacities(), b.Loads(), b.Capacities())
	}
	if n := a.frac.NumRequests(); n > 0 {
		tw.compareRequest(where, n-1)
		for range 4 {
			tw.compareRequest(where, tw.r.Intn(n))
		}
	}
}

// compareRequest compares what both twins answer about request id.
func (tw *twinRandomized) compareRequest(where string, id int) {
	tw.tb.Helper()
	a, b := tw.lazy, tw.packed
	wa, wb := a.frac.Weight(id), b.frac.Weight(id)
	sa := fmt.Sprint(a.frac.Status(id))
	sb := fmt.Sprint(b.frac.Status(id))
	if math.Float64bits(wa) != math.Float64bits(wb) || sa != sb || a.Accepted(id) != b.Accepted(id) {
		tw.tb.Fatalf("%s: request %d: weight %v status %s accepted %v, compacted twin %v %s %v",
			where, id, wa, sa, a.Accepted(id), wb, sb, b.Accepted(id))
	}
	if a.frac.slotOf(id) >= 0 && b.frac.slotOf(id) >= 0 &&
		(!slices.Equal(a.frac.RequestEdges(id), b.frac.RequestEdges(id)) || a.frac.RequestCost(id) != b.frac.RequestCost(id)) {
		tw.tb.Fatalf("%s: request %d: edges or cost differ from the compacted twin's", where, id)
	}
}

// audit checks the randomized layer's per-slot invariants on top of the
// fractional layer's: one integral state per slot, no retired slot
// accepted, and every accepted index ascending.
func (a *Randomized) audit() error {
	if err := a.frac.auditAccounting(); err != nil {
		return err
	}
	if len(a.state) != len(a.frac.reqs) {
		return fmt.Errorf("core: audit: %d integral states for %d slots", len(a.state), len(a.frac.reqs))
	}
	for s, st := range a.state {
		if rs := a.frac.reqs[s].status; st == intAccepted && (rs == statusFullyRejected || rs == statusPrunedRejected) {
			return fmt.Errorf("core: audit: slot %d accepted with fractional status %d", s, rs)
		}
	}
	for e, list := range a.acceptedOn {
		if !slices.IsSorted(list) {
			return fmt.Errorf("core: audit: edge %d accepted index %v not ascending", e, list)
		}
	}
	return nil
}

// final compares every request both twins have seen.
func (tw *twinRandomized) final() {
	tw.tb.Helper()
	for id := range tw.lazy.frac.NumRequests() {
		tw.compareRequest("final", id)
	}
}

// driveCompactTwins offers reqs to a fresh twin pair, interleaving before
// each arrival, each with probability p: a shrink of a random edge, a grow
// back of a shrunk one, a raise (at p/4), and a ForceReject of a random
// request the instance does not hold accepted (the safeguard force-rejects
// its victims only after preempting them).
func driveCompactTwins(tb testing.TB, caps []int, cfg Config, reqs []problem.Request, seed uint64, p float64) *twinRandomized {
	tb.Helper()
	tw := newTwinRandomized(tb, caps, cfg, seed)
	r := rng.New(seed ^ 0x5eed)
	for id, req := range reqs {
		if r.Bernoulli(p) {
			if e := r.Intn(len(caps)); tw.lazy.CanShrink(e) {
				tw.apply(fmt.Sprintf("shrink %d", e), func(a *Randomized) (problem.Outcome, error) { return a.ShrinkCapacity(e) })
			}
		}
		if r.Bernoulli(p) {
			if e := r.Intn(len(caps)); tw.lazy.effCap[e] < tw.lazy.origCap[e] {
				tw.apply(fmt.Sprintf("grow %d", e), func(a *Randomized) (problem.Outcome, error) { return problem.Outcome{}, a.GrowCapacity(e) })
			}
		}
		if r.Bernoulli(p / 4) {
			e := r.Intn(len(caps))
			tw.apply(fmt.Sprintf("raise %d", e), func(a *Randomized) (problem.Outcome, error) { return problem.Outcome{}, a.RaiseCapacity(e) })
		}
		if id > 0 && r.Bernoulli(p) {
			if v := r.Intn(id); !tw.lazy.Accepted(v) {
				tw.apply(fmt.Sprintf("ForceReject %d", v), func(a *Randomized) (problem.Outcome, error) { return problem.Outcome{}, a.frac.ForceReject(v) })
			}
		}
		tw.apply(fmt.Sprintf("offer %d", id), func(a *Randomized) (problem.Outcome, error) { return a.Offer(id, req) })
	}
	tw.final()
	return tw
}

// compactModes are the §3 configurations the compaction tests cover: the
// weighted α-doubling scheme with the 4mc² safeguard on and off, oracle α,
// and unweighted.
var compactModes = []struct {
	name string
	cfg  func(seed uint64) Config
}{
	{"weighted-doubling", func(uint64) Config { return DefaultConfig() }},
	{"weighted-doubling-no-safeguard", func(uint64) Config {
		cfg := DefaultConfig()
		cfg.DisableReqPruning = true
		return cfg
	}},
	{"oracle-alpha", func(seed uint64) Config { return oracleCfg(float64(5 + 7*(seed%12))) }},
	{"unweighted", func(uint64) Config { return UnweightedConfig() }},
}

// TestCompactionInvisible drives twin Randomized instances through
// identical Offer/ShrinkCapacity/GrowCapacity/RaiseCapacity/ForceReject
// sequences, one of them compacting after every operation, and requires
// identical outcomes, changesets, costs and per-request answers: 40 seeds
// of small random instances, a small-capacity shape on which the 4mc²
// safeguard fires, and the long-run shape, in every mode.
func TestCompactionInvisible(t *testing.T) {
	for _, mode := range compactModes {
		t.Run(mode.name, func(t *testing.T) {
			for seed := uint64(0); seed < 40; seed++ {
				cfg := mode.cfg(seed)
				cfg.Seed = seed
				ins := genInstance(seed*7919+3, cfg.Unweighted)
				driveCompactTwins(t, ins.Capacities, cfg, ins.Requests, seed, 0.1)
			}
			for seed := uint64(0); seed < 2; seed++ {
				cfg := mode.cfg(seed)
				cfg.Seed = seed
				// 4 edges of capacity 2: the safeguard trips after 64
				// requests on an edge.
				_, reqs := longRunShape(seed, 600, cfg.Unweighted)
				for i := range reqs {
					reqs[i].Edges = []int{reqs[i].Edges[0] % 4}
				}
				driveCompactTwins(t, []int{2, 2, 2, 2}, cfg, reqs, seed, 0.05)

				caps, reqs := longRunShape(seed, 1500, cfg.Unweighted)
				tw := driveCompactTwins(t, caps, cfg, reqs, seed, 0.01)
				slots, live := tw.lazy.Footprint()
				t.Logf("long-run shape seed %d: %d requests, %d slots held, %d live", seed, len(reqs), slots, live)
			}
		})
	}
}

// FuzzCompactionInvisible is TestCompactionInvisible on an arbitrary
// instance, in the mode the mode byte selects, with operations drawn from
// opSeed. Run with
//
//	go test -fuzz FuzzCompactionInvisible ./internal/core
func FuzzCompactionInvisible(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0, 1, 0, 1, 0}, uint8(0), uint64(1))
	f.Add([]byte{2, 3, 1, 0, 1, 1, 5, 0, 1, 90, 0, 1, 40}, uint8(1), uint64(7))
	f.Add([]byte{4, 1, 1, 1, 1, 0, 1, 2, 3, 3, 0, 1, 2, 3}, uint8(2), uint64(3))
	f.Add([]byte{3, 2, 2, 2, 0, 0, 1, 0, 1, 2, 0, 1, 1, 2}, uint8(3), uint64(9))

	f.Fuzz(func(t *testing.T, data []byte, mode uint8, opSeed uint64) {
		cfg := compactModes[int(mode)%len(compactModes)].cfg(opSeed)
		cfg.Seed = opSeed
		ins := decodeInstance(data, cfg.Unweighted)
		if ins == nil {
			return
		}
		driveCompactTwins(t, ins.Capacities, cfg, ins.Requests, opSeed, 0.15)
	})
}
