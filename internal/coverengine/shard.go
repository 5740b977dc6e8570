package coverengine

import (
	"fmt"

	"admission/internal/core"
	"admission/internal/problem"
	"admission/internal/setcover"
	"admission/internal/shard"
)

// item is one element arrival of a batch, served inside its shard's run.
// The shard writes the outcome into *d: the arrival count, or Err, and
// the global ids of the sets bought locally, which the engine then claims
// in the global ledger.
type item struct {
	d    *Decision
	elem int // local element index
}

// shardSnapshot is a consistent view of one shard's accounting.
type shardSnapshot struct {
	arrivals      int
	preemptions   int
	augmentations int
	// countDigest hashes the per-element arrival counts, feeding the
	// engine's StateDigest without copying the whole vector per snapshot.
	countDigest uint64
}

// shardState owns one element partition and a full local instance of the
// online algorithm over the set system restricted to its elements. After
// construction its fields are touched only under the shard's lock
// (shard.Runtime), by its event loop or by a submitter.
type shardState struct {
	idx int

	// setGlobal maps local set ids (portions) to global set ids.
	setGlobal []int
	// deg is each local element's degree (number of sets containing it —
	// identical locally and globally, since every set containing the
	// element contributes a portion here).
	deg   []int
	count []int // arrivals per local element

	// Exactly one of alg (ModeReduction) and bic (ModeBicriteria) is set;
	// bic may additionally be nil when the shard's elements lie in no set
	// (every arrival then fails before touching it).
	alg *core.Randomized
	bic *setcover.Bicriteria

	arrivals    int
	preemptions int

	// initialChosen lists global set ids bought during setup (phase-1
	// rejections of the §4 reduction). Read once by New before the loop
	// starts.
	initialChosen []int
}

// newShard builds the shard's restricted sub-instance and runs its setup
// phase. part lists the shard's global element ids; byElem is the global
// element→sets index.
func newShard(si int, ins *setcover.Instance, byElem [][]int, part []int, cfg Config) (*shardState, error) {
	s := &shardState{
		idx:   si,
		deg:   make([]int, len(part)),
		count: make([]int, len(part)),
	}
	// Portions: for each global set, the local indices of its elements
	// owned by this shard, ascending. They share one flat array, each
	// capped at its own length.
	end := make([]int, ins.M())
	for li, ge := range part {
		s.deg[li] = len(byElem[ge])
		for _, setID := range byElem[ge] {
			end[setID]++
		}
	}
	for setID := 1; setID < len(end); setID++ {
		end[setID] += end[setID-1]
	}
	flat := make([]int, end[len(end)-1])
	portion := make([][]int, ins.M())
	for setID := range portion {
		lo := 0
		if setID > 0 {
			lo = end[setID-1]
		}
		portion[setID] = flat[lo:lo:end[setID]]
	}
	for li, ge := range part {
		for _, setID := range byElem[ge] {
			portion[setID] = append(portion[setID], li)
		}
	}
	// Local sets in ascending global id order, so the one-shard engine
	// offers phase-1 requests in exactly the sequential reduction's order.
	for setID, p := range portion {
		if len(p) > 0 {
			s.setGlobal = append(s.setGlobal, setID)
		}
	}

	switch cfg.Mode {
	case ModeReduction:
		// The sequential runner's derivation, re-seeded per shard; sharing
		// it is what keeps the one-shard engine decision-identical to
		// ReductionRunner if the defaults ever change.
		ccfg := setcover.CoreConfigFor(ins, setcover.ReductionConfig{Core: cfg.Core, Seed: cfg.Seed})
		ccfg.Seed = shard.Seed(ccfg.Seed, si)
		caps := make([]int, len(part))
		for li, d := range s.deg {
			caps[li] = d
			if caps[li] == 0 {
				// Positive capacities are required; a degree-0 element
				// refuses arrivals before the algorithm is consulted.
				caps[li] = 1
			}
		}
		alg, err := core.NewRandomized(caps, ccfg)
		if err != nil {
			return nil, err
		}
		s.alg = alg
		// Phase 1: one request per portion. Rejections (and preemptions of
		// earlier portions) are bought immediately.
		for ls, setID := range s.setGlobal {
			out, err := alg.Offer(ls, problem.Request{Edges: portion[setID], Cost: ins.Cost(setID)})
			if err != nil {
				return nil, fmt.Errorf("phase 1 set %d: %w", setID, err)
			}
			if !out.Accepted {
				s.initialChosen = append(s.initialChosen, setID)
			}
			for _, id := range out.Preempted {
				s.initialChosen = append(s.initialChosen, s.setGlobal[id])
			}
		}
	case ModeBicriteria:
		if len(s.setGlobal) == 0 {
			// No set touches this shard's elements; every arrival will be
			// refused (degree 0), so there is nothing to run.
			break
		}
		sub := &setcover.Instance{N: len(part), Sets: make([][]int, len(s.setGlobal))}
		if ins.Costs != nil {
			sub.Costs = make([]float64, len(s.setGlobal))
		}
		for ls, setID := range s.setGlobal {
			sub.Sets[ls] = portion[setID]
			if sub.Costs != nil {
				sub.Costs[ls] = ins.Costs[setID]
			}
		}
		bic, err := setcover.NewBicriteria(sub, cfg.eps())
		if err != nil {
			return nil, err
		}
		s.bic = bic
	default:
		return nil, fmt.Errorf("unknown mode %v", cfg.Mode)
	}
	return s, nil
}

// Run serves a run of element arrivals in order.
func (s *shardState) Run(items []item) {
	for i := range items {
		s.arrive(&items[i])
	}
}

// arrive serves one element arrival: guard the degree budget, advance the
// local algorithm, and report the newly bought global sets.
func (s *shardState) arrive(it *item) {
	le := it.elem
	d := it.d
	if s.deg[le] == 0 {
		d.Err = fmt.Errorf("coverengine: element is in no set; it can never be covered")
		return
	}
	if s.count[le] >= s.deg[le] {
		d.Err = fmt.Errorf("coverengine: %w", setcover.ErrElementSaturated)
		return
	}
	switch {
	case s.alg != nil:
		out, err := s.alg.ShrinkCapacity(le)
		if err != nil {
			d.Err = fmt.Errorf("coverengine: shard %d: %w", s.idx, err)
			return
		}
		s.preemptions += len(out.Preempted)
		for _, id := range out.Preempted {
			d.NewSets = append(d.NewSets, s.setGlobal[id])
		}
	case s.bic != nil:
		added, err := s.bic.Arrive(le)
		if err != nil {
			d.Err = fmt.Errorf("coverengine: shard %d: %w", s.idx, err)
			return
		}
		for _, id := range added {
			d.NewSets = append(d.NewSets, s.setGlobal[id])
		}
	default:
		d.Err = fmt.Errorf("coverengine: shard %d has no algorithm", s.idx)
		return
	}
	s.count[le]++
	s.arrivals++
	d.Arrival = s.count[le]
}

// snapshot captures the shard's accounting.
func (s *shardState) snapshot() shardSnapshot {
	snap := shardSnapshot{arrivals: s.arrivals, preemptions: s.preemptions}
	if s.bic != nil {
		snap.augmentations = s.bic.Augmentations()
	}
	h := shard.NewDigest()
	for _, c := range s.count {
		h.Int(c)
	}
	snap.countDigest = uint64(h)
	return snap
}
