package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"admission/internal/core"
	"admission/internal/graph"
	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/workload"
)

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapGrowth feeds an engine n requests, measures the live heap, feeds it
// 3n more and returns the heap's growth in bytes. next fills a batch with
// the stream's next requests.
func heapGrowth(t *testing.T, caps []int, acfg core.Config, n int, next func([]problem.Request)) int64 {
	t.Helper()
	eng, err := New(caps, Config{Shards: 4, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	batch := make([]problem.Request, 1024)
	feed := func(count int) {
		for done := 0; done < count; done += len(batch) {
			next(batch)
			if _, err := eng.SubmitBatchPrevalidated(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(n)
	before := liveHeap()
	feed(3 * n)
	after := liveHeap()
	if got := eng.Stats().Requests; got != int64(4*n) {
		t.Fatalf("engine decided %d requests, want %d", got, 4*n)
	}
	runtime.KeepAlive(eng)
	return int64(after) - int64(before)
}

// maxHeapGrowth is how far the live heap may grow from 1× to 4× the
// requests: the one bit per retired request that tells pruned from fully
// rejected, and slack for the runtime, but not bytes per request.
const maxHeapGrowth = 2 << 20

// TestBoundedStateAdmitWire offers admit-wire's traffic — 64 edges of
// capacity 8, single-edge unit-cost requests, unweighted §3, four shards —
// 1M and then 3M more requests: the live heap after 4M must be within
// 2 MiB of the heap after 1M, because retired requests leave the core and
// the shards' ID maps.
func TestBoundedStateAdmitWire(t *testing.T) {
	if raceEnabled {
		t.Skip("4M offers take minutes under the race detector")
	}
	caps := make([]int, 64)
	for e := range caps {
		caps[e] = 8
	}
	acfg := core.UnweightedConfig()
	acfg.Seed = 7
	r := rng.New(8)
	edges := make([]int, 1<<16)
	growth := heapGrowth(t, caps, acfg, 1<<20, func(batch []problem.Request) {
		for i := range batch {
			if len(edges) == 0 {
				edges = make([]int, 1<<16)
				for j := range edges {
					edges[j] = r.Intn(len(caps))
				}
			}
			batch[i] = problem.Request{Edges: edges[:1:1], Cost: 1}
			edges = edges[1:]
		}
	})
	t.Logf("live heap grew %d B from 1M to 4M offers", growth)
	if growth > maxHeapGrowth {
		t.Fatalf("live heap grew %d B from 1M to 4M offers, want ≤ %d", growth, maxHeapGrowth)
	}
}

// TestBoundedStateAdmitPaths is the same check on admit-paths' traffic —
// weighted multi-edge paths with uniform costs on a random 16-node,
// 64-edge graph of capacity 8, four shards, many requests crossing shards
// — with the 4mc² safeguard on and off, at 100k and 400k requests.
func TestBoundedStateAdmitPaths(t *testing.T) {
	if raceEnabled {
		t.Skip("400k weighted offers take minutes under the race detector")
	}
	g, err := graph.Random(16, 64, 8, rng.New(2025))
	if err != nil {
		t.Fatal(err)
	}
	for _, safeguard := range []bool{true, false} {
		t.Run(fmt.Sprintf("safeguard=%v", safeguard), func(t *testing.T) {
			acfg := core.DefaultConfig()
			acfg.Seed = 5
			acfg.DisableReqPruning = !safeguard
			r := rng.New(6)
			var pending []problem.Request
			next := func(batch []problem.Request) {
				for i := range batch {
					if len(pending) == 0 {
						ins, err := workload.RandomTraffic(g, 1<<14, workload.CostUniform, 0, r)
						if err != nil {
							t.Fatal(err)
						}
						pending = ins.Requests
					}
					batch[i] = pending[0]
					pending = pending[1:]
				}
			}
			growth := heapGrowth(t, g.Capacities(), acfg, 100<<10, next)
			t.Logf("live heap grew %d B from 100k to 400k requests", growth)
			if growth > maxHeapGrowth {
				t.Fatalf("live heap grew %d B from 100k to 400k requests, want ≤ %d", growth, maxHeapGrowth)
			}
		})
	}
}
