package service

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"
)

// DrainTracker counts background accounting goroutines — the drainers
// that finish the bookkeeping of operations whose caller stopped waiting
// after a context cancellation. The shard runtime (internal/shard) embeds
// one so both engines' Drain and Close can guarantee the counters (and,
// for set cover, the ledger) have converged before statistics are reported
// as exact.
type DrainTracker struct {
	n atomic.Int64
}

// Go runs fn on a tracked background goroutine.
func (t *DrainTracker) Go(fn func()) {
	t.n.Add(1)
	go func() {
		defer t.n.Add(-1)
		fn()
	}()
}

// Idle reports whether no tracked goroutines remain.
func (t *DrainTracker) Idle() bool { return t.n.Load() == 0 }

// Wait blocks until no tracked goroutines remain. It busy-yields, so it
// is meant for short shutdown waits (the drainers only consume replies
// that are already sent or imminently sent); use PollIdle for potentially
// long, cancellable waits.
func (t *DrainTracker) Wait() {
	for !t.Idle() {
		runtime.Gosched()
	}
}

// PollIdle blocks until idle() reports true or ctx is done, parking
// briefly between polls so a long drain does not burn a core. It is the
// shared engine Drain loop.
func PollIdle(ctx context.Context, idle func() bool) error {
	for !idle() {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// TrySend enqueues v on ch, honouring ctx only when the channel is full:
// a non-blocking fast path keeps the common case free of select overhead,
// and a full queue waits until there is room or ctx is done. It is the
// cancellation boundary of the engines' shard queues.
func TrySend[T any](ctx context.Context, ch chan<- T, v T) error {
	select {
	case ch <- v:
		return nil
	default:
	}
	select {
	case ch <- v:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
