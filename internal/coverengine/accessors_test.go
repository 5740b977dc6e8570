package coverengine

import (
	"context"
	"errors"
	"testing"

	"admission/internal/core"
)

// TestAccessorsAndStats covers the small introspection surface the serving
// layer and binaries read at startup — Shards/Mode/NumElements/NumSets,
// the uniform Stats snapshot, DecisionErr, Drain — and the Fingerprint
// branch that folds an explicitly pinned core configuration.
func TestAccessorsAndStats(t *testing.T) {
	ctx := context.Background()
	ins, arr := genInstance(t, 71, 12, 20, true, 24)

	e, err := New(ins, Config{Shards: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", e.Shards())
	}
	if e.Mode() != ModeReduction || e.Mode().String() != "reduction" {
		t.Fatalf("Mode() = %v (%q), want ModeReduction", e.Mode(), e.Mode().String())
	}
	if e.NumElements() != ins.N || e.NumSets() != ins.M() {
		t.Fatalf("dims %d/%d, want %d/%d", e.NumElements(), e.NumSets(), ins.N, ins.M())
	}

	for _, j := range arr {
		if _, err := e.Submit(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
	// A malformed submission must fail without being charged to any
	// counter — Submit's own error is not a per-request decision error.
	if _, err := e.Submit(ctx, ins.N+3); err == nil {
		t.Fatal("out-of-range element was accepted")
	}
	st := e.Stats()
	if st.Requests != st.Accepted+st.Errors {
		t.Fatalf("stats inconsistent: %d requests != %d accepted + %d errors", st.Requests, st.Accepted, st.Errors)
	}
	if st.Accepted != int64(len(arr)) || st.Shards != 3 {
		t.Fatalf("stats %+v, want %d accepted / 3 shards", st, len(arr))
	}
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	sentinel := errors.New("boom")
	if got := (Decision{Err: sentinel}).DecisionErr(); !errors.Is(got, sentinel) {
		t.Fatalf("DecisionErr() = %v, want the wrapped error", got)
	}
	if got := (Decision{}).DecisionErr(); got != nil {
		t.Fatalf("clean decision reports error %v", got)
	}
}

// TestFingerprintPinnedCore: an explicitly pinned core configuration must
// be folded into the fingerprint — two engines over the same instance that
// differ only in the pinned config (or in whether one is pinned at all)
// must not collide.
func TestFingerprintPinnedCore(t *testing.T) {
	ins, _ := genInstance(t, 72, 10, 16, false, 0)

	derived, err := New(ins, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer derived.Close()

	cfgA := core.UnweightedConfig()
	cfgA.Seed = 5
	pinnedA, err := New(ins, Config{Seed: 5, Core: &cfgA})
	if err != nil {
		t.Fatal(err)
	}
	defer pinnedA.Close()

	cfgB := cfgA
	cfgB.ThresholdFactor *= 2
	pinnedB, err := New(ins, Config{Seed: 5, Core: &cfgB})
	if err != nil {
		t.Fatal(err)
	}
	defer pinnedB.Close()

	fpD, fpA, fpB := derived.Fingerprint(), pinnedA.Fingerprint(), pinnedB.Fingerprint()
	if fpA == fpD {
		t.Fatal("pinned-core fingerprint collides with the derived-config fingerprint")
	}
	if fpA == fpB {
		t.Fatal("fingerprint ignores the pinned core configuration's fields")
	}
	// Deterministic: same pinned config, same fingerprint.
	again, err := New(ins, Config{Seed: 5, Core: &cfgA})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Fingerprint() != fpA {
		t.Fatal("pinned-core fingerprint is not deterministic")
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModeReduction, ModeBicriteria} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := ParseMode("greedy"); err == nil {
		t.Fatal("ParseMode accepted an unknown mode")
	}
}
