package shard

import (
	"slices"
	"sync"
)

// Batch is one batch submission's working memory. Shard s's items fill
// one region of a flat item array in arrival order, so the items a shard
// receives between two decisions — a run — are a contiguous subslice.
// Engines recycle Batches through a sync.Pool.
//
// Use: Layout, then per item Add and fill the slot, calling Decide on a
// shard before any work that must be decided after the items added to it
// so far; then Finish. Release the batch before returning it to a pool.
//
// Finish is the only place a batch sends, so no shard decides an item of
// the batch inline after a run of the same batch went to its loop: each
// shard decides the batch's items in batch order.
type Batch[T any] struct {
	rt    *Runtime[T]
	items []T
	owner []int32 // per batch position: owning shard, or -1
	next  []int   // per shard: next free slot of its region
	done  []int   // per shard: first slot not yet decided or sent
	runs  [][]T   // the runs decided, in order
	sent  sync.WaitGroup
}

// Layout prepares b for n batch positions on rt: owner(i) is the shard
// that decides position i inside a run, or -1 for a position the engine
// decides some other way. Each shard's region is sized to its count.
func (b *Batch[T]) Layout(rt *Runtime[T], n int, owner func(i int) int) {
	b.rt = rt
	b.next = slices.Grow(b.next[:0], rt.Shards())[:rt.Shards()]
	clear(b.next)
	b.owner = slices.Grow(b.owner[:0], n)[:n]
	for i := range b.owner {
		s := owner(i)
		b.owner[i] = int32(s)
		if s >= 0 {
			b.next[s]++
		}
	}
	total := 0
	for s, c := range b.next {
		b.next[s] = total
		total += c
	}
	b.done = append(b.done[:0], b.next...)
	b.items = slices.Grow(b.items[:0], total)[:total]
	b.runs = b.runs[:0]
}

// Owner returns the shard Layout recorded for position i, or -1.
func (b *Batch[T]) Owner(i int) int { return int(b.owner[i]) }

// Add returns the next slot of shard s's region. Fill it before the
// shard's next decision.
func (b *Batch[T]) Add(s int) *T {
	it := &b.items[b.next[s]]
	b.next[s]++
	return it
}

// Decide decides, on the caller and under shard s's lock, the items added
// to s since its last decision, and returns how many it decided. It must
// not be called after Finish.
func (b *Batch[T]) Decide(s int) int {
	run := b.items[b.done[s]:b.next[s]]
	if len(run) == 0 {
		return 0
	}
	b.rt.Lock(s)
	b.rt.shards[s].Run(run)
	b.rt.Unlock(s)
	b.runs = append(b.runs, run)
	b.done[s] = b.next[s]
	return len(run)
}

// Finish ends the batch and returns how many items it decided. When only
// one shard has items pending, Finish decides them inline. When two or
// more have, each shard's go to its loop as one run, in shard order, and
// Finish waits for them: the shards decide them in parallel.
func (b *Batch[T]) Finish() int {
	pending, last := 0, -1
	for s := range b.next {
		if b.done[s] != b.next[s] {
			pending, last = pending+1, s
		}
	}
	switch pending {
	case 0:
		return 0
	case 1:
		return b.Decide(last)
	}
	n := 0
	for s := range b.next {
		run := b.items[b.done[s]:b.next[s]]
		if len(run) == 0 {
			continue
		}
		b.sent.Add(1)
		b.rt.queues[s] <- msg[T]{run: run, done: &b.sent}
		b.runs = append(b.runs, run)
		b.done[s] = b.next[s]
		n += len(run)
	}
	b.sent.Wait()
	return n
}

// Runs returns the runs decided so far, in order; their items hold the
// outcomes.
func (b *Batch[T]) Runs() [][]T { return b.runs }

// Release drops b's runtime. The runtime holds the shards' handlers, so a
// pooled Batch that kept it would keep a closed engine's whole state
// reachable until the pool is cleared, two garbage collections later.
func (b *Batch[T]) Release() { b.rt = nil }
