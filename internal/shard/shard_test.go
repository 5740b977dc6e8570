package shard

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
)

// toyItem is one run item: the batch position it came from, and the
// shard-side count of items decided before it, written by the shard.
type toyItem struct {
	pos    int
	before int
}

// toyShard records the positions it decided, in order.
type toyShard struct{ seen []int }

func (s *toyShard) Run(items []toyItem) {
	for i := range items {
		items[i].before = len(s.seen)
		s.seen = append(s.seen, items[i].pos)
	}
}

func startToy(k int) (*Runtime[toyItem], []*toyShard) {
	shards := make([]*toyShard, k)
	hs := make([]Handler[toyItem], k)
	for i := range shards {
		shards[i] = &toyShard{}
		hs[i] = shards[i]
	}
	return Start(hs), shards
}

// decided reads how many items shard s has decided, under its lock.
func decided(rt *Runtime[toyItem], shards []*toyShard, s int) int {
	rt.Lock(s)
	defer rt.Unlock(s)
	return len(shards[s].seen)
}

// TestBatchRunsKeepArrivalOrder lays a batch out over three shards with
// positions no shard owns in between, deciding the shards such a position
// involves before it the way the admission engine does before a
// cross-shard request. Decide must decide exactly a shard's items added
// since its last decision and leave the other shards' pending, and after
// Finish each shard must have decided its items in batch order, one run
// per decision.
func TestBatchRunsKeepArrivalOrder(t *testing.T) {
	rt, shards := startToy(3)
	defer rt.Close()
	owner := []int{0, 1, 1, -1, 2, 0, 0, 2, -1, -1, 1, 0, 2, 2}
	involves := map[int][]int{3: {0, 1}, 8: {0, 2}, 9: {1}}
	if !rt.Enter() {
		t.Fatal("fresh runtime refused Enter")
	}
	defer rt.Exit()

	var b Batch[toyItem]
	b.Layout(rt, len(owner), func(i int) int { return owner[i] })
	added := make([]int, 3)    // per shard: items added before the current position
	lastDone := make([]int, 3) // per shard: items decided at its last Decide
	for i, s := range owner {
		if s >= 0 {
			*b.Add(s) = toyItem{pos: i}
			added[s]++
			continue
		}
		for _, si := range involves[i] {
			if n := b.Decide(si); n != added[si]-lastDone[si] {
				t.Fatalf("position %d: Decide(%d) decided %d items, want %d", i, si, n, added[si]-lastDone[si])
			}
			lastDone[si] = added[si]
		}
		for si := range shards {
			if got := decided(rt, shards, si); got != lastDone[si] {
				t.Fatalf("position %d: shard %d had decided %d items, want %d", i, si, got, lastDone[si])
			}
		}
	}
	if n := b.Finish(); n != 4 {
		t.Fatalf("Finish decided %d items, want 4", n)
	}

	if got := len(b.Runs()); got != 7 {
		t.Fatalf("decided %d runs, want 7 (one per nonempty Decide, one per shard pending at Finish)", got)
	}
	for si, sh := range shards {
		var want []int
		for i, s := range owner {
			if s == si {
				want = append(want, i)
			}
		}
		if !slices.Equal(sh.seen, want) {
			t.Fatalf("shard %d decided positions %v, want %v", si, sh.seen, want)
		}
	}
	for _, run := range b.Runs() {
		for k := 1; k < len(run); k++ {
			if run[k].before != run[k-1].before+1 {
				t.Fatalf("run %v is not decided contiguously", run)
			}
		}
	}
}

// TestLifecycle covers a batch decided by two shards' loops, Drain
// waiting for a caller inside, Close's idempotence, Enter after Close, and
// a one-shard batch finishing inline with no loop left.
func TestLifecycle(t *testing.T) {
	rt, shards := startToy(2)
	if !rt.Enter() {
		t.Fatal("fresh runtime refused Enter")
	}
	var b Batch[toyItem]
	b.Layout(rt, 3, func(i int) int { return i % 2 })
	for i := 0; i < 3; i++ {
		*b.Add(i % 2) = toyItem{pos: i}
	}
	if n := b.Finish(); n != 3 {
		t.Fatalf("Finish decided %d items, want 3", n)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt.Drain(dead); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain with a caller inside: %v, want context.Canceled", err)
	}
	rt.Exit()
	if err := rt.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	rt.Close()
	if rt.Enter() {
		t.Fatal("Enter succeeded after Close")
	}
	// The loops are gone; a batch pending on one shard still decides, on
	// the caller.
	b.Layout(rt, 2, func(int) int { return 1 })
	*b.Add(1) = toyItem{pos: 3}
	*b.Add(1) = toyItem{pos: 4}
	if n := b.Finish(); n != 2 {
		t.Fatalf("one-shard Finish decided %d items, want 2", n)
	}
	if got := []int{decided(rt, shards, 0), decided(rt, shards, 1)}; !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("shards decided %v items, want [2 3]", got)
	}
}

// TestPartition covers the default range partition and every way an
// explicit partition can fail to be an exact cover.
func TestPartition(t *testing.T) {
	parts, err := Partition(5, 0, nil, "edge")
	if err != nil || len(parts) != 1 || len(parts[0]) != 5 {
		t.Fatalf("default partition: %v, %v", parts, err)
	}
	if parts, err := Partition(3, 8, nil, "edge"); err != nil || len(parts) != 3 {
		t.Fatalf("k > n clamps to n: %v, %v", parts, err)
	}
	for _, tc := range []struct {
		parts [][]int
		want  string
	}{
		{[][]int{}, "empty partition"},
		{[][]int{{0, 1}, {}}, "shard 1 is empty"},
		{[][]int{{0, 3}}, "references element 3"},
		{[][]int{{0, 1}, {1, 2}}, "element 1 in both"},
		{[][]int{{0}, {2}}, "element 1 missing"},
	} {
		_, err := Partition(3, 0, tc.parts, "element")
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Partition(%v) = %v, want an error containing %q", tc.parts, err, tc.want)
		}
	}
}
