package shard

import (
	"context"
	"slices"
)

// Batch is one batch submission's working memory. Shard s's items fill
// one region of a flat item array in arrival order, so the items a shard
// receives between two flushes — a run — are a contiguous subslice, sent
// as one message carrying one pointer to it. Engines recycle Batches
// through a sync.Pool.
//
// Use: Layout, then per item Add and fill the slot (calling Flush before
// any work that must queue behind the items added so far), then a final
// Flush and Wait. After a failed Flush, Wait for the runs already sent on
// a drainer (Runtime.Go) instead.
type Batch[T, O, R any] struct {
	rt    *Runtime[T, O, R]
	items []T
	owner []int32  // per batch position: owning shard, or -1
	next  []int    // per shard: next free slot of its region
	sent  []int    // per shard: first slot not yet sent
	runs  [][]T    // the runs sent, in send order
	pend  []chan R // their replies, same order
}

// Layout prepares b for n batch positions on rt: owner(i) is the shard
// that decides position i inside a run, or -1 for a position the engine
// decides some other way. Each shard's region is sized to its count.
func (b *Batch[T, O, R]) Layout(rt *Runtime[T, O, R], n int, owner func(i int) int) {
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
	b.sent = append(b.sent[:0], b.next...)
	b.items = slices.Grow(b.items[:0], total)[:total]
	// At most one run per item, so run pointers never move.
	b.runs = slices.Grow(b.runs[:0], total)
	b.pend = b.pend[:0]
}

// Owner returns the shard Layout recorded for position i, or -1.
func (b *Batch[T, O, R]) Owner(i int) int { return int(b.owner[i]) }

// Add returns the next slot of shard s's region. Fill it before the next
// Flush.
func (b *Batch[T, O, R]) Add(s int) *T {
	it := &b.items[b.next[s]]
	b.next[s]++
	return it
}

// Flush sends, in shard order, each shard's items added since the last
// Flush as one run, and returns how many items it sent. Per-shard queues
// are FIFO, so whatever is sent to a shard after Flush is decided after
// these items. A run is enqueued whole or not at all: on a ctx error the
// runs sent before it stay pending.
func (b *Batch[T, O, R]) Flush(ctx context.Context) (int, error) {
	n := 0
	for s := range b.next {
		if b.sent[s] == b.next[s] {
			continue
		}
		b.runs = append(b.runs, b.items[b.sent[s]:b.next[s]])
		ch, err := b.rt.send(ctx, s, msg[T, O, R]{run: &b.runs[len(b.runs)-1]})
		if err != nil {
			b.runs = b.runs[:len(b.runs)-1]
			return n, err
		}
		b.pend = append(b.pend, ch)
		n += b.next[s] - b.sent[s]
		b.sent[s] = b.next[s]
	}
	return n, nil
}

// Wait blocks until every sent run is decided.
func (b *Batch[T, O, R]) Wait() {
	for _, ch := range b.pend {
		b.rt.Recv(ch)
	}
}

// Runs returns the runs sent so far; after Wait their items hold the
// outcomes.
func (b *Batch[T, O, R]) Runs() [][]T { return b.runs }
