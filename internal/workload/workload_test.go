package workload

import (
	"slices"
	"testing"

	"admission/internal/graph"
	"admission/internal/opt"
	"admission/internal/rng"
)

func TestCostModelString(t *testing.T) {
	for _, m := range []CostModel{CostUnit, CostUniform, CostPareto, CostModel(9)} {
		if m.String() == "" {
			t.Fatal("empty cost model string")
		}
	}
}

func TestCostModelDraw(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		if v, err := CostUnit.draw(r); err != nil || v != 1 {
			t.Fatalf("unit draw = %v, %v", v, err)
		}
		if v, err := CostUniform.draw(r); err != nil || v < 1 || v > 100 {
			t.Fatalf("uniform draw = %v, %v", v, err)
		}
		if v, err := CostPareto.draw(r); err != nil || v < 1 || v > 1e4 {
			t.Fatalf("pareto draw = %v, %v", v, err)
		}
	}
	if _, err := CostModel(9).draw(r); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestRandomTraffic(t *testing.T) {
	r := rng.New(2)
	g, err := graph.Grid(4, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := RandomTraffic(g, 50, CostUniform, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.Validate(); err != nil {
		t.Fatal(err)
	}
	if ins.N() != 50 {
		t.Fatalf("N = %d", ins.N())
	}
	// Zipf-skewed endpoints also work.
	ins2, err := RandomTraffic(g, 20, CostUnit, 1.1, r)
	if err != nil {
		t.Fatal(err)
	}
	if !ins2.Unweighted() {
		t.Fatal("unit model must give unweighted instance")
	}
}

func TestRandomTrafficErrors(t *testing.T) {
	r := rng.New(3)
	g, _ := graph.Grid(2, 2, 1)
	if _, err := RandomTraffic(g, -1, CostUnit, 0, r); err == nil {
		t.Error("negative n must error")
	}
	tiny := graph.MustNew(1)
	if _, err := RandomTraffic(tiny, 5, CostUnit, 0, r); err == nil {
		t.Error("tiny graph must error")
	}
	// Disconnected pair-only graph: routing can still fail forever between
	// isolated vertices; Line is directed so t->s is unreachable — with
	// only 2 vertices every retry eventually finds s->t though, so use a
	// graph with an isolated sink cluster. Simpler: all-isolated with one
	// edge is fine because s==t pairs redraw; skip this pathological case.
	if _, err := RandomTraffic(g, 3, CostModel(9), 0, r); err == nil {
		t.Error("bad cost model must error")
	}
}

func TestSingleEdgeOverload(t *testing.T) {
	r := rng.New(4)
	ins, err := SingleEdgeOverload(3, 10, CostUnit, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.Validate(); err != nil {
		t.Fatal(err)
	}
	if ins.MaxExcess() != 7 {
		t.Fatalf("excess = %d", ins.MaxExcess())
	}
	if _, err := SingleEdgeOverload(0, 5, CostUnit, r); err == nil {
		t.Error("zero capacity must error")
	}
	if _, err := SingleEdgeOverload(1, -5, CostUnit, r); err == nil {
		t.Error("negative n must error")
	}
}

func TestBlockOverload(t *testing.T) {
	r := rng.New(5)
	ins, err := BlockOverload(4, 2, 5, CostUnit, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.Validate(); err != nil {
		t.Fatal(err)
	}
	if ins.M() != 4 || ins.N() != 20 {
		t.Fatalf("M=%d N=%d", ins.M(), ins.N())
	}
	// Each block independently has excess 3 => OPT = 12 (unweighted).
	v, err := opt.FractionalOPT(ins)
	if err != nil {
		t.Fatal(err)
	}
	if v != 12 {
		t.Fatalf("fractional OPT = %v, want 12", v)
	}
	if _, err := BlockOverload(0, 1, 1, CostUnit, r); err == nil {
		t.Error("k=0 must error")
	}
}

func TestFeasibleHasZeroOPT(t *testing.T) {
	r := rng.New(6)
	g, err := graph.Grid(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := Feasible(g, 30, CostUniform, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.Validate(); err != nil {
		t.Fatal(err)
	}
	if ins.MaxExcess() != 0 {
		t.Fatalf("feasible instance has excess %d", ins.MaxExcess())
	}
	v, err := opt.FractionalOPT(ins)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("OPT = %v, want 0", v)
	}
}

func TestFeasibleStopsWhenSaturated(t *testing.T) {
	r := rng.New(7)
	g, _ := graph.SingleEdge(2)
	ins, err := Feasible(g, 100, CostUnit, r)
	if err != nil {
		t.Fatal(err)
	}
	if ins.N() > 2 {
		t.Fatalf("capacity-2 edge cannot feasibly carry %d requests", ins.N())
	}
}

func TestOverloadedTraffic(t *testing.T) {
	r := rng.New(8)
	g, err := graph.Random(12, 30, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := OverloadedTraffic(g, 2.0, CostUnit, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.Validate(); err != nil {
		t.Fatal(err)
	}
	// A 2x-oversubscribed network must actually overload something.
	if ins.MaxExcess() == 0 {
		t.Fatal("overloaded traffic produced no excess")
	}
	if _, err := OverloadedTraffic(g, 0, CostUnit, r); err == nil {
		t.Error("factor 0 must error")
	}
}

func TestParseCostModel(t *testing.T) {
	for name, want := range map[string]CostModel{
		"unit": CostUnit, "Uniform": CostUniform, "PARETO": CostPareto,
	} {
		got, err := ParseCostModel(name)
		if err != nil || got != want {
			t.Fatalf("ParseCostModel(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseCostModel("bogus"); err == nil {
		t.Fatal("bogus model must error")
	}
}

func TestBuildNamedAll(t *testing.T) {
	for _, name := range Names() {
		ins, err := BuildNamed(name, CostUnit, 3, 24, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ins.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name != "feasible" && ins.N() == 0 {
			t.Fatalf("%s: empty instance", name)
		}
	}
}

func TestBuildNamedDeterministic(t *testing.T) {
	a, err := BuildNamed("grid", CostUniform, 3, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildNamed("grid", CostUniform, 3, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() {
		t.Fatal("same seed produced different sizes")
	}
	for i := range a.Requests {
		if a.Requests[i].Cost != b.Requests[i].Cost {
			t.Fatal("same seed produced different costs")
		}
	}
}

func TestBuildNamedErrors(t *testing.T) {
	if _, err := BuildNamed("nope", CostUnit, 1, 1, 1); err == nil {
		t.Error("unknown name must error")
	}
	if _, err := BuildNamed("grid", CostUnit, 0, 1, 1); err == nil {
		t.Error("zero capacity must error")
	}
	if _, err := BuildNamed("grid", CostUnit, 1, -1, 1); err == nil {
		t.Error("negative n must error")
	}
}

func TestNamesSortedNonEmpty(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("names not sorted")
		}
	}
}

func TestCapacities(t *testing.T) {
	flat, err := Capacities("", 3, 5, 1)
	if err != nil || len(flat) != 3 || flat[0] != 5 || flat[2] != 5 {
		t.Fatalf("flat capacities = %v, %v; want [5 5 5]", flat, err)
	}
	ins, err := BuildNamed("grid", CostUnit, 4, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	named, err := Capacities("grid", 3, 4, 7)
	if err != nil || !slices.Equal(named, ins.Capacities) {
		t.Fatalf("named capacities = %v, %v; want the grid workload's %v", named, err, ins.Capacities)
	}
	if _, err := Capacities("", 0, 5, 1); err == nil {
		t.Fatal("Capacities accepted zero edges")
	}
}
