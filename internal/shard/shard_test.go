package shard

import (
	"context"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// toyItem is one run item: the batch position it came from, and the
// shard-side count of items decided before it, written by the shard.
type toyItem struct {
	pos    int
	before int
}

// toyShard records the positions it decided, in order. Its op asks how
// many items it has decided so far.
type toyShard struct{ seen []int }

func (s *toyShard) Run(items []toyItem) {
	for i := range items {
		items[i].before = len(s.seen)
		s.seen = append(s.seen, items[i].pos)
	}
}

func (s *toyShard) Handle(struct{}) int { return len(s.seen) }

func startToy(k int) (*Runtime[toyItem, struct{}, int], []*toyShard) {
	shards := make([]*toyShard, k)
	hs := make([]Handler[toyItem, struct{}, int], k)
	for i := range shards {
		shards[i] = &toyShard{}
		hs[i] = shards[i]
	}
	return Start(hs, struct{}{}), shards
}

// TestBatchRunsKeepArrivalOrder lays a batch out over three shards with
// positions no shard owns in between, flushing before each of them the way
// the admission engine does before a cross-shard request. Each shard must
// decide its items in batch order, one run per shard per flush, and an op
// sent right after a flush must be decided after every item sent before it.
func TestBatchRunsKeepArrivalOrder(t *testing.T) {
	rt, shards := startToy(3)
	defer rt.Close()
	owner := []int{0, 1, 1, -1, 2, 0, 0, 2, -1, -1, 1, 0, 2, 2}
	if !rt.Enter() {
		t.Fatal("fresh runtime refused Enter")
	}
	defer rt.Exit()

	var b Batch[toyItem, struct{}, int]
	b.Layout(rt, len(owner), func(i int) int { return owner[i] })
	sentBefore := make([]int, 3) // per shard: items added before the current position
	for i, s := range owner {
		if s >= 0 {
			*b.Add(s) = toyItem{pos: i}
			sentBefore[s]++
			continue
		}
		if _, err := b.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		for si := range shards {
			if got := rt.Call(si, struct{}{}); got != sentBefore[si] {
				t.Fatalf("position %d: shard %d had decided %d items, want %d", i, si, got, sentBefore[si])
			}
		}
	}
	n, err := b.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("final flush sent %d items, want 4", n)
	}
	b.Wait()

	if got := len(b.Runs()); got != 7 {
		t.Fatalf("sent %d runs, want 7 (one per shard with pending items per flush)", got)
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

// TestLifecycle covers the snapshot read before and after Close, Close's
// idempotence, Enter after Close, and Drain waiting for a drainer.
func TestLifecycle(t *testing.T) {
	rt, _ := startToy(2)
	if !rt.Enter() {
		t.Fatal("fresh runtime refused Enter")
	}
	var b Batch[toyItem, struct{}, int]
	b.Layout(rt, 3, func(i int) int { return i % 2 })
	for i := 0; i < 3; i++ {
		*b.Add(i % 2) = toyItem{pos: i}
	}
	if _, err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	var drained atomic.Bool
	rt.Go(func() {
		b.Wait()
		drained.Store(true)
	})
	rt.Exit()
	if err := rt.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !drained.Load() {
		t.Fatal("Drain returned before the drainer finished")
	}
	if live := rt.Snapshots(); !slices.Equal(live, []int{2, 1}) {
		t.Fatalf("live snapshots %v, want [2 1]", live)
	}
	rt.Close()
	rt.Close()
	if rt.Enter() {
		t.Fatal("Enter succeeded after Close")
	}
	if final := rt.Snapshots(); !slices.Equal(final, []int{2, 1}) {
		t.Fatalf("final snapshots %v, want [2 1]", final)
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
