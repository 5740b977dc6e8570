// Package shard is the shard runtime both streaming engines run on
// (DESIGN.md §5 and §9): one mutex and one event-loop goroutine per shard,
// each shard owning one partition's state, plus the lifecycle around
// them: caller registration (a service.Gate) and the drain and close
// ordering.
//
// A shard's state is touched only under its lock. Most work is decided
// on the submitting goroutine under that lock: a batch's items for one
// shard, a cross-shard reservation, a resize, a stats read. The loops
// decide only what can overlap: a batch ends with items pending on two or
// more shards, and each such shard's items — a run — travel to its loop
// as one message, so the shards decide them in parallel (see Batch).
// Locks are taken in ascending shard order, and no goroutine holds one
// while it sends on a queue or waits for a run. A batch that has started
// is decided whole: nothing here watches a context. The runtime is generic
// over the engine's item type and never branches on which engine it
// serves.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"admission/internal/graph"
	"admission/internal/service"
)

// queueLen is each shard's message queue capacity. A queued run carries a
// whole batch's worth of a shard's items, so the bound only throttles
// submitters that outrun the shards.
const queueLen = 256

// Handler is one shard's state. The runtime calls it under that shard's
// lock only.
type Handler[T any] interface {
	// Run decides a run of items in order, writing each item's outcome
	// into the item itself.
	Run(items []T)
}

// msg is one queued run and the batch waiting for it.
type msg[T any] struct {
	run  []T
	done *sync.WaitGroup
}

// Runtime owns the shards' locks and loops and the lifecycle around them.
type Runtime[T any] struct {
	shards []Handler[T]
	locks  []sync.Mutex
	queues []chan msg[T]

	gate  service.Gate // callers between Enter and Exit
	loops sync.WaitGroup
}

// Start runs one event loop per handler.
func Start[T any](shards []Handler[T]) *Runtime[T] {
	rt := &Runtime[T]{
		shards: shards,
		locks:  make([]sync.Mutex, len(shards)),
		queues: make([]chan msg[T], len(shards)),
	}
	for s, h := range shards {
		q := make(chan msg[T], queueLen)
		rt.queues[s] = q
		rt.loops.Add(1)
		go func() {
			defer rt.loops.Done()
			for m := range q {
				rt.Lock(s)
				h.Run(m.run)
				rt.Unlock(s)
				m.done.Done()
			}
		}()
	}
	return rt
}

// Shards returns the number of shards.
func (rt *Runtime[T]) Shards() int { return len(rt.shards) }

// Lock locks shard s's state. A caller holding several shard locks takes
// them in ascending shard order, and sends on no queue and waits for no
// run until it has released them all.
func (rt *Runtime[T]) Lock(s int) { rt.locks[s].Lock() }

// Unlock releases shard s's lock.
func (rt *Runtime[T]) Unlock(s int) { rt.locks[s].Unlock() }

// Enter registers a caller on the submission path. It returns false once
// the runtime is closed.
func (rt *Runtime[T]) Enter() bool { return rt.gate.Enter() }

// Exit balances Enter.
func (rt *Runtime[T]) Exit() { rt.gate.Exit() }

// Drain blocks until no caller is between Enter and Exit, or ctx is done.
// It does not stop new submissions; callers quiesce traffic first.
func (rt *Runtime[T]) Drain(ctx context.Context) error { return rt.gate.Wait(ctx) }

// Close shuts the runtime down: it closes the gate, waits for the callers
// inside, closes the queues and waits for every loop to exit. The shards'
// state stays readable under their locks. Close is idempotent; every call
// returns once the loops have exited.
func (rt *Runtime[T]) Close() {
	if rt.gate.Close() {
		_ = rt.gate.Wait(context.Background()) // no deadline: cannot fail
		for _, q := range rt.queues {
			close(q)
		}
	}
	rt.loops.Wait()
}

// Partition resolves an engine's partition of the ids [0, n) — edges for
// admission, elements for set cover — into shards: nil means a contiguous
// balanced partition into max(k, 1) shards (graph.PartitionRange, which
// clamps k to n); anything else must be an exact cover of [0, n) by
// non-empty shards. unit names an id in errors.
func Partition(n, k int, parts [][]int, unit string) ([][]int, error) {
	if parts == nil {
		return graph.PartitionRange(n, max(k, 1))
	}
	if len(parts) == 0 {
		return nil, errors.New("empty partition")
	}
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	for s, part := range parts {
		if len(part) == 0 {
			return nil, fmt.Errorf("partition shard %d is empty", s)
		}
		for _, id := range part {
			if id < 0 || id >= n {
				return nil, fmt.Errorf("partition shard %d references %s %d, have %d %ss", s, unit, id, n, unit)
			}
			if owner[id] != -1 {
				return nil, fmt.Errorf("%s %d in both shard %d and shard %d", unit, id, owner[id], s)
			}
			owner[id] = s
		}
	}
	for id, s := range owner {
		if s == -1 {
			return nil, fmt.Errorf("%s %d missing from partition", unit, id)
		}
	}
	return parts, nil
}

// Seed derives shard i's RNG seed. Shard 0 keeps the base seed, so a
// one-shard engine is bit-identical to the unsharded algorithm.
func Seed(base uint64, i int) uint64 {
	return base ^ (uint64(i) * 0x9e3779b97f4a7c15)
}
