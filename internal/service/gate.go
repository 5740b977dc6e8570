package service

import (
	"context"
	"sync/atomic"
	"time"
)

// Gate is the lifecycle gate of a served component: callers Enter before
// an operation and Exit after it, Close refuses later Enters, and Wait
// blocks until every caller inside has left. The shard runtime, the query
// engine, the HTTP server and the cluster router each keep one. The zero
// Gate is open.
type Gate struct {
	inside atomic.Int64
	closed atomic.Bool
}

// Enter registers a caller; it returns false once the gate is closed. The
// counter-then-flag order pairs with Close-then-Wait: a caller that
// counted itself before Close set the flag is waited for, and one that
// counted itself after sees the flag and backs out. (A sync.WaitGroup
// would panic here: its Add may not race with its Wait.)
func (g *Gate) Enter() bool {
	g.inside.Add(1)
	if g.closed.Load() {
		g.inside.Add(-1)
		return false
	}
	return true
}

// Exit balances a successful Enter.
func (g *Gate) Exit() { g.inside.Add(-1) }

// Close refuses every later Enter. It reports whether this call closed
// the gate, so the first of several Closes can run the shutdown.
func (g *Gate) Close() bool { return !g.closed.Swap(true) }

// Closed reports whether Close has been called.
func (g *Gate) Closed() bool { return g.closed.Load() }

// Wait blocks until no caller is inside or ctx is done, parking briefly
// between polls so a long drain does not burn a core. It does not close
// the gate.
func (g *Gate) Wait(ctx context.Context) error {
	for g.inside.Load() != 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}
