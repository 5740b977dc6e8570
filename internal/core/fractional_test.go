package core

import (
	"math"
	"testing"

	"admission/internal/problem"
	"admission/internal/rng"
)

func oracleCfg(alpha float64) Config {
	cfg := DefaultConfig()
	cfg.AlphaMode = AlphaOracle
	cfg.Alpha = alpha
	return cfg
}

func unitReq(edges ...int) problem.Request {
	return problem.Request{Edges: edges, Cost: 1}
}

func costReq(cost float64, edges ...int) problem.Request {
	return problem.Request{Edges: edges, Cost: cost}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := UnweightedConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.LogBase = 1 },
		func(c *Config) { c.ThresholdFactor = 0 },
		func(c *Config) { c.ProbFactor = -1 },
		func(c *Config) { c.AlphaMode = AlphaOracle; c.Alpha = 0 },
		func(c *Config) { c.AlphaMode = AlphaOracle; c.Alpha = math.Inf(1) },
		func(c *Config) { c.AlphaMode = AlphaMode(7) },
		func(c *Config) { c.DoublingBudgetFactor = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestSeededConfig(t *testing.T) {
	want := UnweightedConfig()
	want.Seed = 9
	if got := SeededConfig(true, 9); got != want {
		t.Fatalf("SeededConfig(true, 9) = %+v, want %+v", got, want)
	}
	want = DefaultConfig()
	want.Seed = 3
	if got := SeededConfig(false, 3); got != want {
		t.Fatalf("SeededConfig(false, 3) = %+v, want %+v", got, want)
	}
}

func TestAlphaModeString(t *testing.T) {
	if AlphaDoubling.String() != "doubling" || AlphaOracle.String() != "oracle" {
		t.Fatal("mode strings wrong")
	}
	if AlphaMode(9).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}

func TestLogBClamp(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.logB(1) != 1 || cfg.logB(2) != 1 {
		t.Fatal("logB must clamp at 1")
	}
	if math.Abs(cfg.logB(8)-3) > 1e-12 {
		t.Fatalf("logB(8) = %v", cfg.logB(8))
	}
}

func TestNewFractionalValidation(t *testing.T) {
	if _, err := NewFractional(nil, DefaultConfig()); err == nil {
		t.Error("no edges must error")
	}
	if _, err := NewFractional([]int{0}, DefaultConfig()); err == nil {
		t.Error("zero capacity must error")
	}
	cfg := DefaultConfig()
	cfg.LogBase = 0
	if _, err := NewFractional([]int{1}, cfg); err == nil {
		t.Error("bad config must error")
	}
}

func TestFractionalZeroRejectionWhenFeasible(t *testing.T) {
	// OPT rejects 0 => the fractional algorithm must also pay 0
	// (all weights start at zero and no augmentation triggers).
	f, err := NewFractional([]int{2, 2}, UnweightedConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.Offer(unitReq(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if f.Cost() != 0 {
		t.Fatalf("cost = %v, want 0", f.Cost())
	}
	if f.Augmentations() != 0 {
		t.Fatalf("augmentations = %d, want 0", f.Augmentations())
	}
}

func TestFractionalCoveringInvariantSingleEdge(t *testing.T) {
	f, err := NewFractional([]int{3}, UnweightedConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := f.Offer(unitReq(0)); err != nil {
			t.Fatal(err)
		}
		if err := f.CheckCovered([]int{0}); err != nil {
			t.Fatalf("after request %d: %v", i, err)
		}
	}
	if f.Cost() <= 0 {
		t.Fatal("overloaded edge must incur fractional cost")
	}
	// OPT rejects 7; fractional cost must be within O(log c) of it.
	if f.Cost() > 7*10 {
		t.Fatalf("fractional cost %v wildly above OPT=7", f.Cost())
	}
}

func TestFractionalWeightsMonotoneOraclePhase(t *testing.T) {
	f, err := NewFractional([]int{2}, oracleCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	prev := map[int]float64{}
	for i := 0; i < 12; i++ {
		if _, err := f.Offer(costReq(1+float64(i%3), 0)); err != nil {
			t.Fatal(err)
		}
		for id := 0; id < f.NumRequests(); id++ {
			w := f.Weight(id)
			if w < prev[id]-1e-12 {
				t.Fatalf("weight of %d decreased: %v -> %v", id, prev[id], w)
			}
			prev[id] = w
		}
	}
}

func TestFractionalPruneSmall(t *testing.T) {
	// m=1, cmax=2 => window lower bound = alpha/(m·c) = 10/2 = 5.
	f, err := NewFractional([]int{2}, oracleCfg(10))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := f.Offer(costReq(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !cs.PrunedRejected {
		t.Fatal("cost-1 request below α/(mc) must be pruned-rejected")
	}
	if f.Cost() != 1 {
		t.Fatalf("pruned rejection must charge its cost, got %v", f.Cost())
	}
	_, fully, _, pruned := f.Status(cs.NewID)
	if fully || !pruned {
		t.Fatal("status should be pruned")
	}
}

func TestFractionalPermanentAccept(t *testing.T) {
	f, err := NewFractional([]int{2}, oracleCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := f.Offer(costReq(100, 0)) // > 2α = 2
	if err != nil {
		t.Fatal(err)
	}
	if !cs.PermAccepted {
		t.Fatal("expensive request must be permanently accepted")
	}
	if f.RemainingCapacity(0) != 1 {
		t.Fatalf("capacity not reserved: %d", f.RemainingCapacity(0))
	}
	if f.Cost() != 0 {
		t.Fatalf("permanent accept must cost 0, got %v", f.Cost())
	}
}

func TestFractionalPermanentAcceptFallback(t *testing.T) {
	// Capacity 1; two expensive requests: the second cannot reserve and
	// falls back to normal handling.
	f, err := NewFractional([]int{1}, oracleCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	cs1, err := f.Offer(costReq(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !cs1.PermAccepted {
		t.Fatal("first expensive request should reserve")
	}
	cs2, err := f.Offer(costReq(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if cs2.PermAccepted {
		t.Fatal("second expensive request cannot reserve on a full edge")
	}
	// It is now alive on an edge with zero remaining capacity: the covering
	// invariant forces its weight to 1 (fully rejected).
	if err := f.CheckCovered([]int{0}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionalDoublingPhases(t *testing.T) {
	// Costs grow so the initial guess (min cost on first overloaded edge)
	// must be doubled several times.
	cfg := DefaultConfig() // doubling mode
	f, err := NewFractional([]int{1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	costs := []float64{1, 1, 100, 100, 10000, 10000}
	for _, c := range costs {
		if _, err := f.Offer(costReq(c, 0)); err != nil {
			t.Fatal(err)
		}
		if err := f.CheckCovered([]int{0}); err != nil {
			t.Fatal(err)
		}
	}
	if f.Phases() == 0 {
		t.Fatal("expected at least one α doubling")
	}
	if f.Alpha() <= 1 {
		t.Fatalf("α should have grown, got %v", f.Alpha())
	}
}

func TestFractionalDoublingCostReasonable(t *testing.T) {
	// Doubling should stay within a constant factor of oracle on the same
	// input (E9's claim, spot-checked).
	r := rng.New(123)
	caps := []int{2, 2, 2}
	build := func(cfg Config) *Fractional {
		f, err := NewFractional(caps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	var reqs []problem.Request
	for i := 0; i < 30; i++ {
		edges := []int{r.Intn(3)}
		if r.Bernoulli(0.5) {
			e2 := (edges[0] + 1 + r.Intn(2)) % 3
			edges = append(edges, e2)
		}
		reqs = append(reqs, problem.Request{Edges: edges, Cost: 1 + r.Float64()*9})
	}
	fd := build(DefaultConfig())
	for _, q := range reqs {
		if _, err := fd.Offer(q); err != nil {
			t.Fatal(err)
		}
	}
	fo := build(oracleCfg(5)) // rough magnitude of OPT
	for _, q := range reqs {
		if _, err := fo.Offer(q); err != nil {
			t.Fatal(err)
		}
	}
	if fd.Cost() <= 0 || fo.Cost() <= 0 {
		t.Fatalf("both runs should pay: doubling %v oracle %v", fd.Cost(), fo.Cost())
	}
	if fd.Cost() > 50*fo.Cost() {
		t.Fatalf("doubling cost %v implausibly above oracle %v", fd.Cost(), fo.Cost())
	}
}

func TestFractionalUnweightedRejectsWeighted(t *testing.T) {
	f, err := NewFractional([]int{1}, UnweightedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Offer(costReq(2, 0)); err == nil {
		t.Fatal("unweighted mode must reject cost != 1")
	}
}

func TestFractionalOfferValidation(t *testing.T) {
	f, _ := NewFractional([]int{1}, UnweightedConfig())
	if _, err := f.Offer(problem.Request{Edges: []int{5}, Cost: 1}); err == nil {
		t.Error("out-of-range edge must error")
	}
	if _, err := f.Offer(problem.Request{Edges: nil, Cost: 1}); err == nil {
		t.Error("empty edge set must error")
	}
}

func TestFractionalShrink(t *testing.T) {
	f, err := NewFractional([]int{2}, UnweightedConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.Offer(unitReq(0)); err != nil {
			t.Fatal(err)
		}
	}
	if f.Cost() != 0 {
		t.Fatal("feasible so far")
	}
	cs, err := f.ShrinkCapacity(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Changes) == 0 {
		t.Fatal("shrink into overload must augment weights")
	}
	if err := f.CheckCovered([]int{0}); err != nil {
		t.Fatal(err)
	}
	if f.RemainingCapacity(0) != 1 {
		t.Fatalf("capacity = %d", f.RemainingCapacity(0))
	}
	// Shrink to zero, then shrinking again must error.
	if _, err := f.ShrinkCapacity(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ShrinkCapacity(0); err == nil {
		t.Fatal("shrink below zero must error")
	}
	if _, err := f.ShrinkCapacity(9); err == nil {
		t.Fatal("bad edge must error")
	}
}

func TestFractionalForceReject(t *testing.T) {
	f, _ := NewFractional([]int{1}, UnweightedConfig())
	cs, _ := f.Offer(unitReq(0))
	if err := f.ForceReject(cs.NewID); err != nil {
		t.Fatal(err)
	}
	if f.Cost() != 1 {
		t.Fatalf("force-rejected cost = %v", f.Cost())
	}
	// idempotent
	if err := f.ForceReject(cs.NewID); err != nil {
		t.Fatal(err)
	}
	if f.Cost() != 1 {
		t.Fatal("double charge on ForceReject")
	}
	if err := f.ForceReject(99); err == nil {
		t.Fatal("unknown id must error")
	}
	// permanently accepted requests cannot be force-rejected
	f2, _ := NewFractional([]int{2}, oracleCfg(1))
	cs2, _ := f2.Offer(costReq(100, 0))
	if err := f2.ForceReject(cs2.NewID); err == nil {
		t.Fatal("ForceReject of permanent accept must error")
	}
}

func TestFractionalRegisterInert(t *testing.T) {
	f, _ := NewFractional([]int{1}, UnweightedConfig())
	id := f.RegisterInert(unitReq(0))
	if id != 0 {
		t.Fatalf("id = %d", id)
	}
	if f.Cost() != 0 {
		t.Fatal("inert request must not be charged")
	}
	if f.AliveCount(0) != 0 {
		t.Fatal("inert request must not join edge lists")
	}
	// IDs stay aligned for subsequent offers.
	cs, err := f.Offer(unitReq(0))
	if err != nil {
		t.Fatal(err)
	}
	if cs.NewID != 1 {
		t.Fatalf("next id = %d, want 1", cs.NewID)
	}
}

func TestFractionalLemma1AugmentationBound(t *testing.T) {
	// Lemma 1: augmentations = O(α·log(gc)). Verify with a generous
	// constant on random unweighted instances, α replaced by the trivial
	// upper bound (number of requests beyond capacity per edge, summed).
	r := rng.New(55)
	for trial := 0; trial < 10; trial++ {
		m := 2 + r.Intn(4)
		caps := make([]int, m)
		for e := range caps {
			caps[e] = 1 + r.Intn(4)
		}
		f, err := NewFractional(caps, UnweightedConfig())
		if err != nil {
			t.Fatal(err)
		}
		optUB := 0.0 // Σ_e excess_e is an upper bound on OPT
		loads := make([]int, m)
		n := 10 + r.Intn(30)
		for i := 0; i < n; i++ {
			e := r.Intn(m)
			loads[e]++
			if loads[e] > caps[e] {
				optUB++
			}
			if _, err := f.Offer(unitReq(e)); err != nil {
				t.Fatal(err)
			}
			if err := f.CheckCovered([]int{e}); err != nil {
				t.Fatal(err)
			}
		}
		cmax := 0
		for _, c := range caps {
			if c > cmax {
				cmax = c
			}
		}
		bound := 20 * (optUB + 1) * math.Log2(2*float64(cmax)+2)
		if float64(f.Augmentations()) > bound {
			t.Fatalf("trial %d: %d augmentations exceeds bound %v (optUB=%v)",
				trial, f.Augmentations(), bound, optUB)
		}
	}
}

func TestFractionalQueryBounds(t *testing.T) {
	f, _ := NewFractional([]int{1}, UnweightedConfig())
	if f.Weight(-1) != 0 || f.Weight(5) != 0 {
		t.Fatal("out-of-range Weight must be 0")
	}
	if f.RemainingCapacity(-1) != 0 || f.RemainingCapacity(5) != 0 {
		t.Fatal("out-of-range RemainingCapacity must be 0")
	}
	if f.AliveCount(-1) != 0 || f.AliveCount(5) != 0 {
		t.Fatal("out-of-range AliveCount must be 0")
	}
	if f.RequestEdges(0) != nil || f.RequestCost(0) != 0 {
		t.Fatal("out-of-range request queries must be zero-valued")
	}
	a, fr, p, pr := f.Status(3)
	if a || fr || p || pr {
		t.Fatal("out-of-range Status must be all-false")
	}
	if err := f.CheckCovered([]int{7}); err == nil {
		t.Fatal("CheckCovered with bad edge must error")
	}
}

func TestFractionalFullRejectionHappens(t *testing.T) {
	// Heavy overload on capacity 1 must eventually drive weights to 1.
	f, _ := NewFractional([]int{1}, UnweightedConfig())
	sawFull := false
	for i := 0; i < 50; i++ {
		cs, err := f.Offer(unitReq(0))
		if err != nil {
			t.Fatal(err)
		}
		if len(cs.FullyRejected) > 0 {
			sawFull = true
		}
	}
	if !sawFull {
		t.Fatal("expected full fractional rejections under heavy overload")
	}
	// Cost must track at least the fully rejected requests.
	if f.Cost() < 1 {
		t.Fatalf("cost = %v", f.Cost())
	}
}
