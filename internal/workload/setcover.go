package workload

import (
	"fmt"
	"sort"
	"strings"

	"admission/internal/rng"
	"admission/internal/setcover"
)

// Named set-cover workloads: deterministic (instance, arrival sequence)
// pairs shared by acserve (which registers the instance) and acload (which
// generates the matching arrivals), keyed by name and seed so the two
// binaries agree on the set system without shipping it over the wire;
// acreplay rebuilds the same instance to audit a cover log.

// CoverWorkload is one named online-set-cover workload: the set system to
// register with the cover engine, and an arrival sequence (with
// repetitions) to drive it with.
type CoverWorkload struct {
	// Name is the registry key the workload was built from.
	Name string
	// Instance is the set system (identical for a given name and seed).
	Instance *setcover.Instance
	// Arrivals is the element arrival sequence, length as requested.
	Arrivals []int
}

// coverBuilder constructs one named cover workload with n arrivals.
type coverBuilder func(n int, r *rng.RNG) (*CoverWorkload, error)

// coverWorkloads is the registry behind BuildNamedCover.
var coverWorkloads = map[string]coverBuilder{
	// cover-random: moderate-density random instance, Zipf arrivals — the
	// E15 baseline workload (empirically within 2x of the offline optimum
	// under the §4 reduction).
	"cover-random": func(n int, r *rng.RNG) (*CoverWorkload, error) {
		return randomCover(48, 96, 0.3, 3, false, n, 1.0, r)
	},
	// cover-weighted: same shape with Pareto set costs.
	"cover-weighted": func(n int, r *rng.RNG) (*CoverWorkload, error) {
		return randomCover(48, 96, 0.3, 3, true, n, 1.0, r)
	},
	// cover-zipf: heavier skew concentrates arrivals on few elements,
	// forcing repetition-heavy traffic.
	"cover-zipf": func(n int, r *rng.RNG) (*CoverWorkload, error) {
		return randomCover(64, 128, 0.25, 4, false, n, 1.6, r)
	},
	// cover-repeat: the repeated-element adversary — every element is
	// re-requested pass after pass until its degree budget is exhausted,
	// maximizing the k-distinct-sets pressure of §4's repetition model.
	"cover-repeat": func(n int, r *rng.RNG) (*CoverWorkload, error) {
		ins, err := setcover.RandomInstance(40, 80, 0.3, 4, false, r)
		if err != nil {
			return nil, err
		}
		return &CoverWorkload{Instance: ins, Arrivals: repeatedArrivals(ins, defaultArrivals(n, ins))}, nil
	},
	// cover-blocks: disjoint element/set blocks, the shard-friendly
	// topology (a balanced partition keeps every set single-shard).
	"cover-blocks": func(n int, r *rng.RNG) (*CoverWorkload, error) {
		ins, err := blockCoverInstance(6, 12, 24, r)
		if err != nil {
			return nil, err
		}
		arr, err := setcover.RandomArrivals(ins, defaultArrivals(n, ins), 0.8, r)
		if err != nil {
			return nil, err
		}
		return &CoverWorkload{Instance: ins, Arrivals: arr}, nil
	},
}

// defaultArrivals resolves a non-positive arrival count to 4·N.
func defaultArrivals(n int, ins *setcover.Instance) int {
	if n <= 0 {
		return 4 * ins.N
	}
	return n
}

// randomCover draws a RandomInstance and Zipf arrivals.
func randomCover(elems, sets int, density float64, minDeg int, weighted bool, n int, skew float64, r *rng.RNG) (*CoverWorkload, error) {
	ins, err := setcover.RandomInstance(elems, sets, density, minDeg, weighted, r)
	if err != nil {
		return nil, err
	}
	arr, err := setcover.RandomArrivals(ins, defaultArrivals(n, ins), skew, r)
	if err != nil {
		return nil, err
	}
	return &CoverWorkload{Instance: ins, Arrivals: arr}, nil
}

// repeatedArrivals builds the repeated-element adversary sequence: sweep
// the elements in descending-degree order, requesting each element once
// per sweep while it still has degree budget, until length arrivals are
// produced or every element is saturated. An element of degree d therefore
// arrives min(sweeps, d) times — the maximum repetition pressure a
// coverable sequence allows.
func repeatedArrivals(ins *setcover.Instance, length int) []int {
	byElem := ins.SetsOf()
	order := make([]int, ins.N)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(byElem[order[a]]) > len(byElem[order[b]])
	})
	counts := make([]int, ins.N)
	out := make([]int, 0, length)
	for len(out) < length {
		progressed := false
		for _, j := range order {
			if len(out) >= length {
				break
			}
			if counts[j] < len(byElem[j]) {
				counts[j]++
				out = append(out, j)
				progressed = true
			}
		}
		if !progressed {
			break // every element saturated
		}
	}
	return out
}

// blockCoverInstance builds `blocks` disjoint sub-instances of elemsPer
// elements and setsPer sets each, offset so blocks share nothing.
func blockCoverInstance(blocks, elemsPer, setsPer int, r *rng.RNG) (*setcover.Instance, error) {
	ins := &setcover.Instance{N: blocks * elemsPer}
	for b := 0; b < blocks; b++ {
		sub, err := setcover.RandomInstance(elemsPer, setsPer, 0.35, 3, false, r)
		if err != nil {
			return nil, err
		}
		for _, s := range sub.Sets {
			shifted := make([]int, len(s))
			for i, j := range s {
				shifted[i] = j + b*elemsPer
			}
			ins.Sets = append(ins.Sets, shifted)
		}
	}
	return ins, nil
}

// CoverNames returns the sorted list of workloads BuildNamedCover accepts.
func CoverNames() []string {
	out := make([]string, 0, len(coverWorkloads))
	for name := range coverWorkloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// BuildNamedCover constructs the named set-cover workload with n arrivals
// (default 4·N when n ≤ 0) and the given seed. Every builder draws its
// instance before its arrivals from the same seeded stream, so identical
// (name, seed) pairs produce identical instances regardless of n — a
// server and a load generator started with the same pair agree on the set
// system without shipping it over the wire.
func BuildNamedCover(name string, n int, seed uint64) (*CoverWorkload, error) {
	builder, ok := coverWorkloads[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("workload: unknown cover workload %q (want one of %s)", name, strings.Join(CoverNames(), "|"))
	}
	w, err := builder(n, rng.New(seed^0xC07E12))
	if err != nil {
		return nil, err
	}
	w.Name = strings.ToLower(name)
	if err := w.Instance.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated cover instance invalid: %w", err)
	}
	if err := w.Instance.ValidateArrivals(w.Arrivals); err != nil {
		return nil, fmt.Errorf("workload: generated arrivals invalid: %w", err)
	}
	return w, nil
}
