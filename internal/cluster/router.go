package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/service"
	"admission/internal/wire"
)

// RouterConfig configures a Router over its backends.
type RouterConfig struct {
	// Backend is the engine configuration every backend runs over its own
	// partition (shard count, algorithm constants, seed). Partition must be
	// nil — each backend derives its own shard layout from its partition
	// size.
	Backend BackendConfig
	// Vnodes is the consistent-hash ring's virtual node count per backend
	// (0 means DefaultVnodes).
	Vnodes int
	// ResyncEvery bounds how often the router re-probes a shed backend from
	// the serving path (0 means 1s). Resync can also be forced with Resync.
	ResyncEvery time.Duration
}

func (c RouterConfig) resyncEvery() time.Duration {
	if c.ResyncEvery <= 0 {
		return time.Second
	}
	return c.ResyncEvery
}

// journalOp is one operation the router sent (or owes) to a backend whose
// application is not yet acknowledged.
type journalOp struct {
	op Op
	// routerID is the router request the operation belongs to.
	routerID int
	// refused records that the router answered the originating request
	// with a refusal (so an applied-anyway reservation must be aborted at
	// resync).
	refused bool
}

// backendState is the router's per-backend ledger. All fields are guarded
// by the router lock; during a fan-out, each send goroutine touches only
// its own backendState.
type backendState struct {
	client *Client
	fp     string // partition-derived expected fingerprint

	// down carries the shedding cause; nil when the backend is routable.
	down       error
	lastResync time.Time

	// sent counts operations handed to the journal or acknowledged; acked
	// counts operations known applied. The exact-reconciliation invariant
	// E19 asserts is acked == backend requests (with an empty journal).
	sent  int64
	acked int64
	// journal holds the sent-unacknowledged and owed-unsent operations, in
	// send order — the window resync replays against the backend's applied
	// watermark.
	journal []journalOp
	// idMap maps backend decision IDs (contiguous from 0) to router IDs,
	// for translating preemption lists.
	idMap []int
	// phantoms counts applied offers whose request the router had already
	// refused (a crash window artifact: capacity conservatively held for a
	// request the client saw refused).
	phantoms int64
	resyncs  int64
}

// translate maps backend decision IDs to router IDs (-1 for IDs the
// ledger cannot place, which indicates backend divergence).
func (s *backendState) translate(ids []int) []int {
	if len(ids) == 0 {
		return nil
	}
	out := make([]int, len(ids))
	for i, bid := range ids {
		if bid >= 0 && bid < len(s.idMap) {
			out[i] = s.idMap[bid]
		} else {
			out[i] = -1
		}
	}
	return out
}

// BackendLedger is one backend's row of the router's ledger snapshot.
type BackendLedger struct {
	// URL is the backend's base URL.
	URL string `json:"url"`
	// Fingerprint is the partition-derived engine identity the backend
	// must report.
	Fingerprint string `json:"fingerprint"`
	// Down reports the backend is shed; Cause carries why.
	Down  bool   `json:"down"`
	Cause string `json:"cause,omitempty"`
	// Sent counts operations sent (or owed); Acked counts operations known
	// applied. With an empty Journal, Acked equals the backend's requests
	// counter exactly.
	Sent  int64 `json:"sent"`
	Acked int64 `json:"acked"`
	// Journal is the in-doubt window: sent-unacknowledged plus owed
	// operations.
	Journal int `json:"journal"`
	// Phantoms counts applied offers whose request the router refused
	// (crash-window artifact).
	Phantoms int64 `json:"phantoms"`
	// Resyncs counts successful re-admissions.
	Resyncs int64 `json:"resyncs"`
}

// Ledger is the router's reconciliation snapshot.
type Ledger struct {
	// Requests counts routed requests; Accepted the admitted ones;
	// ShedRefusals the typed partition-down refusals; CrossBackend the
	// requests that took the two-phase cross-backend path.
	Requests     int64 `json:"requests"`
	Accepted     int64 `json:"accepted"`
	ShedRefusals int64 `json:"shed_refusals"`
	CrossBackend int64 `json:"cross_backend"`
	// RejectedCost sums the cost of cleanly refused requests (the
	// admission objective).
	RejectedCost float64 `json:"rejected_cost"`
	// Backends holds one row per backend.
	Backends []BackendLedger `json:"backends"`
}

// Router fronts a cluster of backends as one admission service: it
// consistent-hashes every request's edges to their owning backends,
// forwards partition-local requests as offers, and runs the two-phase
// reserve/commit protocol for requests spanning backends. It implements
// service.Service[problem.Request, engine.Decision], so it mounts on the
// serving stack exactly like a local engine — acload cannot tell the
// difference, and over one backend the decision stream is line-identical
// to a direct engine (experiment E19).
//
// Failure handling: a backend whose exchange fails is shed — requests
// touching its partition are refused with ErrPartitionDown-typed decision
// errors, nothing blocks — and its in-doubt operations are journaled.
// Resync (automatic with a cooldown, or forced) probes the backend's
// applied watermark, settles the in-doubt window (aborting reservations
// whose requests were refused, re-sending owed settles), and re-admits the
// partition.
type Router struct {
	caps []int
	ring *Ring
	cfg  RouterConfig

	gate     service.Gate
	mu       sync.Mutex
	nextID   int
	nextTx   uint64
	backends []*backendState

	// scratch holds per-batch buffers reused across submissions — safe
	// because a batch holds mu end to end. The send buffers keep their
	// capacity between batches; journaled metadata is copied out by value,
	// so reuse never aliases the ledger.
	scratch struct {
		plans          []plan
		sends1, sends2 []send
		wave1, wave2   []*send
		offsets        []int
	}

	requests     atomic.Int64
	acceptedN    atomic.Int64
	errsN        atomic.Int64
	shedRefusals atomic.Int64
	crossBackend atomic.Int64
	rejectedCost float64 // guarded by mu
}

// plan is one request's routing plan within a batch.
type plan struct {
	touched []int
	locals  [][]int
	tx      uint64
	shedBy  int // first down backend touched, or -1
}

var _ service.Service[problem.Request, engine.Decision] = (*Router)(nil)

// NewRouter builds a router over the global capacity vector and one client
// per backend. The partition (and with it each backend's expected engine
// fingerprint) is derived deterministically from len(caps), len(clients)
// and cfg — backends must be started from the same derivation (see
// Ring.Caps and BackendConfig).
func NewRouter(caps []int, clients []*Client, cfg RouterConfig) (*Router, error) {
	if cfg.Backend.Engine.Partition != nil {
		return nil, errors.New("cluster: RouterConfig.Backend.Engine.Partition must be nil (backends derive their own shard layouts)")
	}
	ring, err := NewRing(len(caps), len(clients), cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	r := &Router{caps: caps, ring: ring, cfg: cfg}
	for b, client := range clients {
		bcaps, err := ring.Caps(caps, b)
		if err != nil {
			return nil, err
		}
		fp, err := engine.ConfigFingerprint(bcaps, cfg.Backend.Engine)
		if err != nil {
			return nil, fmt.Errorf("cluster: backend %d: %w", b, err)
		}
		r.backends = append(r.backends, &backendState{client: client, fp: fp})
	}
	nb := len(r.backends)
	r.scratch.sends1 = make([]send, nb)
	r.scratch.sends2 = make([]send, nb)
	r.scratch.wave1 = make([]*send, nb)
	r.scratch.wave2 = make([]*send, nb)
	r.scratch.offsets = make([]int, nb)
	return r, nil
}

// Ring exposes the derived partition (read-only) for backend startup and
// experiments.
func (r *Router) Ring() *Ring { return r.ring }

// BackendFingerprint returns the engine fingerprint backend b must report.
func (r *Router) BackendFingerprint(b int) string { return r.backends[b].fp }

// WaitReady blocks until every backend answers its stats probe with the
// expected fingerprint, or ctx is done. Each probe retries unavailability
// under the client's policy; WaitReady keeps cycling until ctx expires.
func (r *Router) WaitReady(ctx context.Context) error {
	for {
		var firstErr error
		for b := range r.backends {
			if err := r.backends[b].client.CheckFingerprint(ctx, r.backends[b].fp); err != nil {
				if errors.Is(err, ErrFingerprintMismatch) {
					return err // permanent: a wrong backend will not become right
				}
				if firstErr == nil {
					firstErr = fmt.Errorf("cluster: backend %d: %w", b, err)
				}
			}
		}
		if firstErr == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return firstErr
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Validate checks a request exactly the way the backends' engines would.
func (r *Router) Validate(req problem.Request) error {
	if err := req.Validate(len(r.caps)); err != nil {
		return err
	}
	if r.cfg.Backend.Engine.Algorithm.Unweighted && req.Cost != 1 {
		return fmt.Errorf("cluster: unweighted cluster requires cost 1, got %v", req.Cost)
	}
	return nil
}

// Submit routes one request and blocks until it is decided. Per-request
// failures (including typed partition-down refusals) are returned as the
// error, mirroring the engines' Submit.
func (r *Router) Submit(ctx context.Context, req problem.Request) (engine.Decision, error) {
	if err := r.Validate(req); err != nil {
		return engine.Decision{}, err
	}
	ds, err := r.SubmitBatchPrevalidated(ctx, []problem.Request{req})
	if err != nil {
		return engine.Decision{}, err
	}
	return ds[0], ds[0].Err
}

// SubmitBatch routes a slice of requests in order. Validation is atomic;
// per-request failures are reported on the decisions.
func (r *Router) SubmitBatch(ctx context.Context, reqs []problem.Request) ([]engine.Decision, error) {
	for i := range reqs {
		if err := r.Validate(reqs[i]); err != nil {
			return nil, fmt.Errorf("cluster: batch[%d]: %w", i, err)
		}
	}
	return r.SubmitBatchPrevalidated(ctx, reqs)
}

// send is one backend's share of a wave: the operations plus their
// journal metadata (parallel slices).
type send struct {
	ops  []Op
	meta []journalOp
	// decisions and err are filled by the fan-out.
	decisions []wire.AdmissionDecision
	err       error
}

// reset empties the send for reuse, keeping the slice capacity. Journal
// entries are copied out of meta by value, so nothing retains the buffers
// across batches.
func (w *send) reset() *send {
	w.ops = w.ops[:0]
	w.meta = w.meta[:0]
	w.decisions = w.decisions[:0]
	w.err = nil
	return w
}

// SubmitBatchPrevalidated is SubmitBatch without the validation pass. The
// whole batch holds the router lock: wave 1 (offers and reserves) fans out
// to every touched backend concurrently, wave 2 settles the cross-backend
// transactions, and decisions assemble in request order.
func (r *Router) SubmitBatchPrevalidated(ctx context.Context, reqs []problem.Request) ([]engine.Decision, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if !r.gate.Enter() {
		return nil, ErrClosed
	}
	defer r.gate.Exit()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maybeResyncLocked(ctx)

	out := make([]engine.Decision, len(reqs))
	if cap(r.scratch.plans) < len(reqs) {
		r.scratch.plans = make([]plan, len(reqs))
	}
	plans := r.scratch.plans[:len(reqs)]
	wave1 := r.scratch.wave1
	for b := range wave1 {
		wave1[b] = nil
	}

	for i := range reqs {
		id := r.nextID
		r.nextID++
		r.requests.Add(1)
		out[i].ID = id

		p := plan{shedBy: -1}
		p.touched, p.locals = r.ring.Group(reqs[i].Edges)
		for _, b := range p.touched {
			if r.backends[b].down != nil {
				p.shedBy = b
				break
			}
		}
		if len(p.touched) > 1 {
			p.tx = r.nextTx
			r.nextTx++
			r.crossBackend.Add(1)
			out[i].CrossShard = true
		}
		plans[i] = p
		if p.shedBy >= 0 {
			out[i].Err = fmt.Errorf("%w: backend %d: %v", ErrPartitionDown, p.shedBy, r.backends[p.shedBy].down)
			continue
		}
		for j, b := range p.touched {
			w := wave1[b]
			if w == nil {
				w = r.scratch.sends1[b].reset()
				wave1[b] = w
			}
			if len(p.touched) == 1 {
				w.ops = append(w.ops, Op{Kind: OpOffer, Edges: p.locals[j], Cost: reqs[i].Cost})
			} else {
				w.ops = append(w.ops, Op{Kind: OpReserve, Tx: p.tx, Edges: p.locals[j]})
			}
			w.meta = append(w.meta, journalOp{op: w.ops[len(w.ops)-1], routerID: id})
		}
	}
	r.fanOut(ctx, wave1)

	// Assemble wave-1 outcomes and build wave 2. Offsets walk each
	// backend's op list in the same order it was built above.
	offsets := r.scratch.offsets
	wave2 := r.scratch.wave2
	for b := range offsets {
		offsets[b] = 0
		wave2[b] = nil
	}
	for i := range reqs {
		p := plans[i]
		if p.shedBy >= 0 {
			continue
		}
		if len(p.touched) == 1 {
			b := p.touched[0]
			w := wave1[b]
			at := offsets[b]
			offsets[b]++
			if w.err != nil {
				out[i] = engine.Decision{ID: out[i].ID, Err: fmt.Errorf("%w: backend %d: %v", ErrPartitionDown, b, w.err)}
				continue
			}
			d := w.decisions[at]
			out[i].Accepted = d.Accepted
			out[i].CrossShard = d.CrossShard
			out[i].Preempted = r.backends[b].translate(d.Preempted)
			if d.Error != "" {
				out[i].Err = errors.New(d.Error)
			}
			continue
		}

		granted := true
		var downCause error
		var downAt int
		for _, b := range p.touched {
			w := wave1[b]
			at := offsets[b]
			offsets[b]++
			if w.err != nil {
				granted = false
				if downCause == nil {
					downCause, downAt = w.err, b
				}
				continue
			}
			d := w.decisions[at]
			if !d.Accepted {
				granted = false
			}
			out[i].Preempted = append(out[i].Preempted, r.backends[b].translate(d.Preempted)...)
		}
		out[i].Accepted = granted
		if downCause != nil {
			out[i].Err = fmt.Errorf("%w: backend %d: %v", ErrPartitionDown, downAt, downCause)
		}
		for _, b := range p.touched {
			w := wave1[b]
			settle := Op{Kind: OpAbort, Tx: p.tx}
			switch {
			case granted:
				settle.Kind = OpCommit
			case w.err == nil:
				// Abort only what this backend granted; a refused reserve
				// held nothing and needs no settle.
				if !w.decisions[offsets[b]-1].Accepted {
					continue
				}
			default:
				// The backend's exchange failed: its reserve may have been
				// applied. Owe it an abort directly in the journal (it is
				// shed, nothing can be sent now); settling an unapplied
				// transaction is a no-op, so this is always safe.
				r.journalOwed(b, journalOp{op: settle, routerID: out[i].ID, refused: true})
				continue
			}
			w2 := wave2[b]
			if w2 == nil {
				w2 = r.scratch.sends2[b].reset()
				wave2[b] = w2
			}
			w2.ops = append(w2.ops, settle)
			w2.meta = append(w2.meta, journalOp{op: settle, routerID: out[i].ID, refused: !granted})
		}
	}
	r.fanOut(ctx, wave2)

	// Back-fill the journals' refused flags: wave-1 metadata is built
	// before the outcome is known, and an indeterminate fan-out journals it
	// as-is. Resync needs the flag to abort applied reservations of
	// refused requests and to count applied offers of refused requests as
	// phantoms. Journaled wave-1 entries only exist for failed exchanges,
	// whose requests always carry an error.
	base := out[0].ID
	for _, s := range r.backends {
		for j := range s.journal {
			e := &s.journal[j]
			if (e.op.Kind == OpOffer || e.op.Kind == OpReserve) &&
				e.routerID >= base && out[e.routerID-base].Err != nil {
				e.refused = true
			}
		}
	}

	// Account the batch. Decisions are final regardless of wave-2
	// delivery: a commit whose backend crashed is owed through the journal
	// and re-delivered at resync.
	for i := range out {
		switch {
		case out[i].Err != nil:
			r.errsN.Add(1)
			if errors.Is(out[i].Err, ErrPartitionDown) {
				r.shedRefusals.Add(1)
			}
		case out[i].Accepted:
			r.acceptedN.Add(1)
		default:
			r.rejectedCost += reqs[i].Cost
		}
	}
	return out, nil
}

// journalOwed appends an operation the router owes a shed backend. The
// refused flag on wave-1 metadata marks requests the router answered with
// a refusal.
func (r *Router) journalOwed(b int, j journalOp) {
	s := r.backends[b]
	s.journal = append(s.journal, j)
	s.sent++
}

// fanOut sends each backend its share of a wave concurrently and folds
// the outcome into the ledger: an acknowledged batch extends acked and the
// ID map; a failed one sheds the backend and journals the in-doubt window.
// Each goroutine touches only its own backendState.
func (r *Router) fanOut(ctx context.Context, wave []*send) {
	var wg sync.WaitGroup
	for b, w := range wave {
		if w == nil {
			continue
		}
		s := r.backends[b]
		wg.Add(1)
		go func(b int, w *send, s *backendState) {
			defer wg.Done()
			s.sent += int64(len(w.ops))
			ds, err := s.client.Submit(ctx, w.ops)
			if err == nil && len(ds) != len(w.ops) {
				err = fmt.Errorf("%w: %d decisions for %d ops", ErrProtocol, len(ds), len(w.ops))
			}
			if err == nil {
				for di := range ds {
					if ds[di].ID != len(s.idMap) {
						err = fmt.Errorf("%w: backend id %d, ledger expects %d (history diverged)",
							ErrProtocol, ds[di].ID, len(s.idMap))
						break
					}
					s.idMap = append(s.idMap, w.meta[di].routerID)
					w.decisions = append(w.decisions, ds[di])
				}
				if err == nil {
					s.acked += int64(len(w.ops))
					return
				}
			}
			w.err = err
			s.down = err
			if errors.Is(err, ErrUnavailable) || errors.Is(err, ErrRateLimited) || errors.Is(err, ErrRejected) {
				// Provably not applied: nothing is in doubt. Wave-1 ops are
				// simply refused by the router; settle ops must still be
				// delivered eventually, so they stay owed.
				s.sent -= int64(len(w.ops))
				for i := range w.ops {
					if w.ops[i].Kind == OpCommit || w.ops[i].Kind == OpAbort {
						s.journal = append(s.journal, w.meta[i])
						s.sent++
					}
				}
				return
			}
			// Indeterminate: the whole window is in doubt.
			s.journal = append(s.journal, w.meta...)
		}(b, w, s)
	}
	wg.Wait()
}

// maybeResyncLocked attempts to re-admit shed backends whose cooldown
// elapsed.
func (r *Router) maybeResyncLocked(ctx context.Context) {
	now := time.Now()
	for b := range r.backends {
		s := r.backends[b]
		if s.down == nil || now.Sub(s.lastResync) < r.cfg.resyncEvery() {
			continue
		}
		_ = r.resyncLocked(ctx, b)
	}
}

// Resync forces a re-admission attempt for every shed backend and returns
// the first failure (nil when every backend is routable).
func (r *Router) Resync(ctx context.Context) error {
	if r.gate.Closed() {
		return ErrClosed
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var firstErr error
	for b := range r.backends {
		if r.backends[b].down == nil {
			continue
		}
		if err := r.resyncLocked(ctx, b); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: backend %d: %w", b, err)
		}
	}
	return firstErr
}

// resyncLocked reconciles one shed backend against its durable state and
// re-admits it:
//
//  1. Probe the backend's stats; verify its fingerprint.
//  2. Its requests counter is the applied watermark: the journal's first
//     (applied-acked) operations were applied — in send order, because the
//     router sends one batch at a time per backend — and the rest were
//     not.
//  3. Applied reservations whose requests the router refused are aborted;
//     applied offers of refused requests are counted as phantoms (their
//     capacity is conservatively held; admission stays feasible). Unsent
//     or unapplied settles are re-delivered; unapplied offers and reserves
//     are dropped (their requests were already refused, nothing is held).
//  4. The settle batch is submitted; on success the ledger is exact again
//     (acked == applied == backend requests) and the partition routable.
func (r *Router) resyncLocked(ctx context.Context, b int) error {
	s := r.backends[b]
	s.lastResync = time.Now()
	st, err := s.client.Stats(ctx)
	if err != nil {
		s.down = fmt.Errorf("resync probe: %w", err)
		return s.down
	}
	if st.Fingerprint != s.fp {
		s.down = fmt.Errorf("%w: backend reports %q, partition derives %q", ErrFingerprintMismatch, st.Fingerprint, s.fp)
		return s.down
	}
	applied := st.Requests
	delta := applied - s.acked
	if delta < 0 || delta > int64(len(s.journal)) {
		s.down = fmt.Errorf("%w: applied watermark %d outside ledger window [%d, %d] (durable history diverged)",
			ErrProtocol, applied, s.acked, s.acked+int64(len(s.journal)))
		return s.down
	}

	var makeup []journalOp
	for _, j := range s.journal[:delta] {
		// Applied while in doubt: place it in the ID map and settle its
		// consequences.
		s.idMap = append(s.idMap, j.routerID)
		switch {
		case j.op.Kind == OpReserve && j.refused:
			makeup = append(makeup, journalOp{op: Op{Kind: OpAbort, Tx: j.op.Tx}, routerID: j.routerID})
		case j.op.Kind == OpOffer && j.refused:
			s.phantoms++
		}
	}
	for _, j := range s.journal[delta:] {
		// Not applied: re-deliver owed settles, drop the rest (their
		// requests were refused and nothing was held).
		if j.op.Kind == OpCommit || j.op.Kind == OpAbort {
			makeup = append(makeup, j)
		} else {
			s.sent--
		}
	}
	s.acked = applied
	s.sent = applied
	s.journal = nil

	if len(makeup) > 0 {
		ops := make([]Op, len(makeup))
		for i := range makeup {
			ops[i] = makeup[i].op
		}
		s.sent += int64(len(ops))
		ds, err := s.client.Submit(ctx, ops)
		if err == nil && len(ds) != len(ops) {
			err = fmt.Errorf("%w: %d decisions for %d ops", ErrProtocol, len(ds), len(ops))
		}
		if err != nil {
			s.journal = makeup
			s.down = fmt.Errorf("resync settle: %w", err)
			return s.down
		}
		for di := range ds {
			s.idMap = append(s.idMap, makeup[di].routerID)
		}
		s.acked += int64(len(ops))
	}
	s.down = nil
	s.resyncs++
	return nil
}

// Stats returns the uniform statistics snapshot. Objective is the rejected
// cost; Shards reports the backend count.
func (r *Router) Stats() service.Stats {
	r.mu.Lock()
	rejected := r.rejectedCost
	r.mu.Unlock()
	return service.Stats{
		Requests:  r.requests.Load(),
		Accepted:  r.acceptedN.Load(),
		Errors:    r.errsN.Load(),
		Objective: rejected,
		Shards:    len(r.backends),
	}
}

// Ledger returns the reconciliation snapshot: the router-side account of
// every backend's applied history.
func (r *Router) Ledger() Ledger {
	r.mu.Lock()
	defer r.mu.Unlock()
	led := Ledger{
		Requests:     r.requests.Load(),
		Accepted:     r.acceptedN.Load(),
		ShedRefusals: r.shedRefusals.Load(),
		CrossBackend: r.crossBackend.Load(),
		RejectedCost: r.rejectedCost,
	}
	for _, s := range r.backends {
		row := BackendLedger{
			URL:         s.client.Base(),
			Fingerprint: s.fp,
			Down:        s.down != nil,
			Sent:        s.sent,
			Acked:       s.acked,
			Journal:     len(s.journal),
			Phantoms:    s.phantoms,
			Resyncs:     s.resyncs,
		}
		if s.down != nil {
			row.Cause = s.down.Error()
		}
		led.Backends = append(led.Backends, row)
	}
	return led
}

// Drain blocks until no submissions are in flight or ctx is done.
func (r *Router) Drain(ctx context.Context) error { return r.gate.Wait(ctx) }

// Close shuts the router down: subsequent submissions fail with ErrClosed
// and pooled backend connections are released. The backends stay up — the
// router does not own them. Close is idempotent.
func (r *Router) Close() error {
	if r.gate.Close() {
		for _, s := range r.backends {
			s.client.CloseIdle()
		}
	}
	return nil
}
