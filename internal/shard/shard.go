// Package shard is the shard runtime both streaming engines run on
// (DESIGN.md §5 and §9): one event-loop goroutine per shard, each owning
// one partition's state and deciding the work sent to it in arrival order,
// plus everything around the loops — caller registration, the
// cancellation boundary, background drainers, the live-or-final snapshot
// read, and the drain and close ordering.
//
// The unit of work is a run: the consecutive items of one batch that one
// shard owns travel to that shard as one message with one reply (see
// Batch). Everything else an engine sends — reservations, resizes,
// snapshot requests — is a single op with a reply of its own. The runtime
// is generic over the engine's item, op and reply types and never branches
// on which engine it serves.
package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"admission/internal/graph"
	"admission/internal/service"
)

// queueLen is each shard's message queue capacity. A queued run carries a
// whole batch's worth of a shard's items, so the bound only throttles
// submitters that outrun the shards.
const queueLen = 256

// Handler is one shard's state. The runtime calls it from that shard's
// event loop only, one message at a time.
type Handler[T, O, R any] interface {
	// Run decides a run of items in order, writing each item's outcome
	// into the item itself.
	Run(items []T)
	// Handle decides one op.
	Handle(op O) R
}

// msg is one queued unit of work: a run when run is non-nil, else op.
type msg[T, O, R any] struct {
	run   *[]T
	op    O
	reply chan R
}

// Runtime runs one event loop per shard and owns the lifecycle around
// them.
type Runtime[T, O, R any] struct {
	queues []chan msg[T, O, R]
	stats  O   // the op a shard answers with its snapshot
	final  []R // per shard: the snapshot recorded at loop exit
	// replies recycles the buffered reply channels: each carries exactly
	// one send and one receive, so it is reusable once received.
	replies sync.Pool

	closed   atomic.Bool
	inflight atomic.Int64 // callers between Enter and Exit
	// drainers finish the bookkeeping of work whose caller stopped waiting
	// after a cancellation; Drain and Close wait for them so statistics
	// stay exact.
	drainers service.DrainTracker
	loops    sync.WaitGroup
}

// Start runs one event loop per handler. stats is the op each shard
// answers with its snapshot; a loop also answers it once on exit, and
// that answer is what Snapshots reads after Close.
func Start[T, O, R any](shards []Handler[T, O, R], stats O) *Runtime[T, O, R] {
	rt := &Runtime[T, O, R]{
		queues: make([]chan msg[T, O, R], len(shards)),
		stats:  stats,
		final:  make([]R, len(shards)),
	}
	rt.replies.New = func() any { return make(chan R, 1) }
	for s, h := range shards {
		q := make(chan msg[T, O, R], queueLen)
		rt.queues[s] = q
		rt.loops.Add(1)
		go func() {
			defer rt.loops.Done()
			var done R
			for m := range q {
				if m.run != nil {
					h.Run(*m.run)
					m.reply <- done
					continue
				}
				m.reply <- h.Handle(m.op)
			}
			rt.final[s] = h.Handle(stats)
		}()
	}
	return rt
}

// Shards returns the number of shards.
func (rt *Runtime[T, O, R]) Shards() int { return len(rt.queues) }

// Enter registers a caller on the submission path. It returns false once
// the runtime is closed. The counter-then-flag order pairs with Close's
// flag-then-drain order: a caller that incremented before Close set the
// flag is drained; one that incremented after observes the flag and backs
// out. (A plain WaitGroup would panic here: Add may not race with Wait.)
func (rt *Runtime[T, O, R]) Enter() bool {
	rt.inflight.Add(1)
	if rt.closed.Load() {
		rt.inflight.Add(-1)
		return false
	}
	return true
}

// Exit balances Enter.
func (rt *Runtime[T, O, R]) Exit() { rt.inflight.Add(-1) }

// send enqueues m on shard s and returns its reply channel. Enqueueing
// honours ctx (service.TrySend): when the queue is full and ctx is done
// nothing is enqueued and ctx's error is returned — the cancellation
// boundary of the generic serving contract.
func (rt *Runtime[T, O, R]) send(ctx context.Context, s int, m msg[T, O, R]) (chan R, error) {
	m.reply = rt.replies.Get().(chan R)
	if err := service.TrySend(ctx, rt.queues[s], m); err != nil {
		rt.replies.Put(m.reply)
		return nil, err
	}
	return m.reply, nil
}

// Send enqueues op on shard s without waiting for it; receive the reply
// with Recv. See send for the cancellation boundary.
func (rt *Runtime[T, O, R]) Send(ctx context.Context, s int, op O) (chan R, error) {
	return rt.send(ctx, s, msg[T, O, R]{op: op})
}

// sendNow enqueues op on shard s with no cancellation boundary; see Call.
func (rt *Runtime[T, O, R]) sendNow(s int, op O) chan R {
	m := msg[T, O, R]{op: op, reply: rt.replies.Get().(chan R)}
	rt.queues[s] <- m
	return m.reply
}

// Call enqueues op on shard s with no cancellation boundary and waits for
// the reply, for work that must run to completion to keep an engine's
// invariants (two-phase aborts and settles). The caller must be between
// Enter and Exit, or on a drainer: Close closes the queues only after both
// are gone.
func (rt *Runtime[T, O, R]) Call(s int, op O) R { return rt.Recv(rt.sendNow(s, op)) }

// Recv waits for a reply and recycles its channel.
func (rt *Runtime[T, O, R]) Recv(ch chan R) R {
	r := <-ch
	rt.replies.Put(ch)
	return r
}

// Go runs fn on a tracked drainer goroutine: Drain and Close wait for it.
// Engines hand it the replies of work already enqueued when a caller's
// context fired.
func (rt *Runtime[T, O, R]) Go(fn func()) { rt.drainers.Go(fn) }

// Snapshots returns every shard's answer to the stats op: live while the
// runtime is open, the final snapshots recorded at loop exit after Close.
// Enter makes a live read safe against a concurrent Close, which drains it
// before closing the queues.
func (rt *Runtime[T, O, R]) Snapshots() []R {
	out := make([]R, len(rt.queues))
	if !rt.Enter() {
		rt.loops.Wait()
		copy(out, rt.final)
		return out
	}
	replies := make([]chan R, len(rt.queues))
	for s := range rt.queues {
		replies[s] = rt.sendNow(s, rt.stats)
	}
	// The ops are queued; the shards answer them even if Close runs now.
	rt.Exit()
	for s, ch := range replies {
		out[s] = rt.Recv(ch)
	}
	return out
}

// Drain blocks until no caller is between Enter and Exit and no drainer
// is running, or ctx is done. It does not stop new submissions; callers
// quiesce traffic first. The wait parks between polls.
func (rt *Runtime[T, O, R]) Drain(ctx context.Context) error {
	return service.PollIdle(ctx, func() bool {
		return rt.inflight.Load() == 0 && rt.drainers.Idle()
	})
}

// Close shuts the runtime down: later Enters fail, callers already inside
// finish, drainers finish (an abort drainer may still need to enqueue),
// then the queues close and every loop exits after recording its final
// snapshot. Close is idempotent; every call returns once the loops have
// exited.
func (rt *Runtime[T, O, R]) Close() {
	if rt.closed.Swap(true) {
		rt.loops.Wait()
		rt.drainers.Wait()
		return
	}
	// Close is rare and callers leave quickly, so polling is fine.
	for rt.inflight.Load() != 0 {
		runtime.Gosched()
	}
	rt.drainers.Wait()
	for _, q := range rt.queues {
		close(q)
	}
	rt.loops.Wait()
	rt.drainers.Wait()
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
