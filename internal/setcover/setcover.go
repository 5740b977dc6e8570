// Package setcover implements the online set cover with repetitions problem
// (§§4–5 of the paper): the instance model, the reduction to admission
// control (§4) that yields the randomized online algorithm, the
// deterministic bicriteria algorithm (§5), and offline optima for ratio
// measurement.
//
// In the problem, a ground set of n elements and a family of m subsets are
// known in advance; an adversary reveals elements one at a time, possibly
// repeating them. An element that has arrived k times must be covered by k
// *distinct* chosen sets. The objective is the total cost of chosen sets;
// sets are never un-chosen.
//
// Concurrency contract: Bicriteria and the reduction runner are
// sequential online algorithms (one arrival at a time, single goroutine);
// an Instance is immutable once validated and may be shared across
// concurrent runs.
package setcover

import (
	"fmt"
	"math"
	"sort"

	"admission/internal/lp"
	"admission/internal/rng"
)

// Instance is a set system: N ground elements (0..N-1), Sets[i] listing the
// elements of set i, and Costs[i] > 0 per set (nil Costs means unit costs).
type Instance struct {
	N     int
	Sets  [][]int
	Costs []float64
}

// M returns the number of sets.
func (ins *Instance) M() int { return len(ins.Sets) }

// Cost returns the cost of set i (1 when Costs is nil).
func (ins *Instance) Cost(i int) float64 {
	if ins.Costs == nil {
		return 1
	}
	return ins.Costs[i]
}

// Unweighted reports whether all set costs equal 1.
func (ins *Instance) Unweighted() bool {
	if ins.Costs == nil {
		return true
	}
	for _, c := range ins.Costs {
		if c != 1 {
			return false
		}
	}
	return true
}

// Validate checks the instance.
func (ins *Instance) Validate() error {
	if ins.N <= 0 {
		return fmt.Errorf("setcover: N = %d, want > 0", ins.N)
	}
	if len(ins.Sets) == 0 {
		return fmt.Errorf("setcover: no sets")
	}
	if ins.Costs != nil && len(ins.Costs) != len(ins.Sets) {
		return fmt.Errorf("setcover: %d costs for %d sets", len(ins.Costs), len(ins.Sets))
	}
	// stamp[j] == i+1 once set i has listed element j.
	stamp := make([]int, ins.N)
	for i, s := range ins.Sets {
		if len(s) == 0 {
			return fmt.Errorf("setcover: set %d is empty", i)
		}
		for _, j := range s {
			if j < 0 || j >= ins.N {
				return fmt.Errorf("setcover: set %d contains element %d outside [0,%d)", i, j, ins.N)
			}
			if stamp[j] == i+1 {
				return fmt.Errorf("setcover: set %d repeats element %d", i, j)
			}
			stamp[j] = i + 1
		}
		if ins.Costs != nil && !(ins.Costs[i] > 0) {
			return fmt.Errorf("setcover: set %d has cost %v, want > 0", i, ins.Costs[i])
		}
	}
	return nil
}

// SetsOf returns, per element, the ids of sets containing it, ascending.
// The lists share one backing array, each capped at its own length.
func (ins *Instance) SetsOf() [][]int {
	end := ins.degrees()
	for j := 1; j < len(end); j++ {
		end[j] += end[j-1]
	}
	flat := make([]int, end[len(end)-1])
	byElem := make([][]int, ins.N)
	for j := range byElem {
		lo := 0
		if j > 0 {
			lo = end[j-1]
		}
		byElem[j] = flat[lo:lo:end[j]]
	}
	for i, s := range ins.Sets {
		for _, j := range s {
			byElem[j] = append(byElem[j], i)
		}
	}
	return byElem
}

// degrees returns how many sets contain each element.
func (ins *Instance) degrees() []int {
	deg := make([]int, ins.N)
	for _, s := range ins.Sets {
		for _, j := range s {
			deg[j]++
		}
	}
	return deg
}

// Degree returns how many sets contain element j.
func (ins *Instance) Degree(j int) int {
	d := 0
	for _, s := range ins.Sets {
		for _, e := range s {
			if e == j {
				d++
				break
			}
		}
	}
	return d
}

// ValidateArrivals checks that the arrival sequence references known
// elements and is coverable: no element arrives more often than its degree
// (an element requested k times needs k distinct covering sets).
func (ins *Instance) ValidateArrivals(arrivals []int) error {
	counts := make([]int, ins.N)
	for t, j := range arrivals {
		if j < 0 || j >= ins.N {
			return fmt.Errorf("setcover: arrival %d references element %d outside [0,%d)", t, j, ins.N)
		}
		counts[j]++
	}
	deg := ins.degrees()
	for j, k := range counts {
		if k > deg[j] {
			return fmt.Errorf("setcover: element %d arrives %d times but only %d sets contain it", j, k, deg[j])
		}
	}
	return nil
}

// Covering builds the offline covering program for the arrival sequence:
// variable i = "choose set i", one row per requested element with demand =
// its arrival count. Solvable by internal/opt (exact/greedy) and internal/lp
// (fractional lower bound).
func (ins *Instance) Covering(arrivals []int) *lp.CoveringLP {
	counts := make([]int, ins.N)
	for _, j := range arrivals {
		counts[j]++
	}
	c := &lp.CoveringLP{Cost: make([]float64, ins.M())}
	for i := range c.Cost {
		c.Cost[i] = ins.Cost(i)
	}
	byElem := ins.SetsOf()
	for j, k := range counts {
		if k > 0 {
			c.Rows = append(c.Rows, byElem[j])
			c.Demand = append(c.Demand, float64(k))
		}
	}
	return c
}

// CheckMultiCover verifies that the chosen (distinct) sets cover every
// element at least as many times as it arrived.
func CheckMultiCover(ins *Instance, arrivals []int, chosen []int) error {
	pick := make([]bool, ins.M())
	for _, i := range chosen {
		if i < 0 || i >= ins.M() {
			return fmt.Errorf("setcover: chosen set %d out of range", i)
		}
		if pick[i] {
			return fmt.Errorf("setcover: set %d chosen twice", i)
		}
		pick[i] = true
	}
	counts := make([]int, ins.N)
	for _, j := range arrivals {
		counts[j]++
	}
	byElem := ins.SetsOf()
	for j, k := range counts {
		if k == 0 {
			continue
		}
		got := 0
		for _, i := range byElem[j] {
			if pick[i] {
				got++
			}
		}
		if got < k {
			return fmt.Errorf("setcover: element %d covered %d < %d times", j, got, k)
		}
	}
	return nil
}

// ChosenCost sums the costs of the chosen sets.
func ChosenCost(ins *Instance, chosen []int) float64 {
	total := 0.0
	for _, i := range chosen {
		total += ins.Cost(i)
	}
	return total
}

// RandomInstance generates a random set system: each element joins each set
// independently with probability density, then every set is patched to be
// nonempty and every element to be in at least minDegree sets (so arrival
// sequences with repetitions up to minDegree are always coverable).
func RandomInstance(n, m int, density float64, minDegree int, weighted bool, r *rng.RNG) (*Instance, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("setcover: RandomInstance requires n, m > 0 (got %d, %d)", n, m)
	}
	if density <= 0 || density > 1 {
		return nil, fmt.Errorf("setcover: density %v outside (0,1]", density)
	}
	if minDegree < 1 || minDegree > m {
		return nil, fmt.Errorf("setcover: minDegree %d outside [1,%d]", minDegree, m)
	}
	member := make([][]bool, m)
	for i := range member {
		member[i] = make([]bool, n)
	}
	deg := make([]int, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if r.Bernoulli(density) {
				member[i][j] = true
				deg[j]++
			}
		}
	}
	// Patch degrees.
	for j := 0; j < n; j++ {
		for deg[j] < minDegree {
			i := r.Intn(m)
			if !member[i][j] {
				member[i][j] = true
				deg[j]++
			}
		}
	}
	ins := &Instance{N: n, Sets: make([][]int, m)}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if member[i][j] {
				ins.Sets[i] = append(ins.Sets[i], j)
			}
		}
		if len(ins.Sets[i]) == 0 { // patch empty sets
			j := r.Intn(n)
			ins.Sets[i] = []int{j}
			deg[j]++
		}
	}
	if weighted {
		ins.Costs = make([]float64, m)
		for i := range ins.Costs {
			ins.Costs[i] = 1 + math.Floor(r.Pareto(1, 1.5))
			if ins.Costs[i] > 100 {
				ins.Costs[i] = 100
			}
		}
	}
	return ins, nil
}

// RandomArrivals draws an arrival sequence of the given length: elements
// are drawn Zipf(skew)-distributed and each element may repeat up to its
// degree (additional draws of a saturated element are redirected).
func RandomArrivals(ins *Instance, length int, skew float64, r *rng.RNG) ([]int, error) {
	if length < 0 {
		return nil, fmt.Errorf("setcover: negative arrival length")
	}
	byElem := ins.SetsOf()
	counts := make([]int, ins.N)
	z := rng.NewZipf(r, ins.N, skew)
	out := make([]int, 0, length)
	for len(out) < length {
		j := z.Draw()
		if counts[j] >= len(byElem[j]) {
			// Saturated: linear probe for a coverable element.
			found := false
			for d := 1; d < ins.N; d++ {
				jj := (j + d) % ins.N
				if counts[jj] < len(byElem[jj]) {
					j, found = jj, true
					break
				}
			}
			if !found {
				break // every element saturated: stop early
			}
		}
		counts[j]++
		out = append(out, j)
	}
	return out, nil
}

// sortedUnique sorts and deduplicates ids in place, returning the result.
func sortedUnique(ids []int) []int {
	sort.Ints(ids)
	w := 0
	for i, v := range ids {
		if i == 0 || v != ids[i-1] {
			ids[w] = v
			w++
		}
	}
	return ids[:w]
}
