package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"admission/internal/metrics"
	"admission/internal/service"
	"admission/internal/wal"
	"admission/internal/wire"
)

// pipe is one workload's coalescing batch pipeline plus its HTTP handler
// pair — the single generic serving path every registered workload shares.
// A submission has two entry points. When it fits one engine batch, the
// pipeline is in-memory, and no item accepted before it is still
// undecided, its handler decides it inline (decideInline). Otherwise the
// handler enqueues it whole (one channel operation per HTTP request, not
// per item) under an item-counted bound (Config.QueueLen), so buffered
// memory stays bounded regardless of submission sizes; the flusher
// goroutine coalesces queued submissions into engine batches of up to
// Config.BatchSize items, dispatches them through the service's pipelined
// batch path, and hands each submission its slice of the decisions. Both
// entry points decide under decideMu, and an inline decision is taken only
// when nothing accepted earlier is undecided, so items are decided in the
// workload's global FIFO order, which keeps one-connection traffic
// decision-deterministic — the property the E14/E15 identity gates rely
// on.
type pipe[Req any, Dec service.Decision] struct {
	srv   *Server
	name  string
	svc   service.Service[Req, Dec]
	codec Codec[Req, Dec]
	queue chan *submission[Req, Dec]
	loops sync.WaitGroup

	// queuedItems bounds buffered work by items, not submissions, so the
	// memory held behind the queue is QueueLen items regardless of how
	// large individual submissions are. Guarded by qmu; handlers wait on
	// qcond for room, the flusher signals as chunks are delivered.
	qmu         sync.Mutex
	qcond       *sync.Cond
	queuedItems int

	// decideMu is held by whoever is deciding items: the flusher from its
	// first take of a batch until the batch is delivered, an inline
	// handler for its submission's engine call. The flusher may block on
	// it; a handler only TryLocks it, while holding qmu, so the qmu →
	// decideMu order never deadlocks against the flusher's decideMu → qmu.
	decideMu sync.Mutex

	decisions *metrics.Counter
	errItems  *metrics.Counter
	batchSz   *metrics.Histogram
	latency   *metrics.Histogram
	observe   func(Dec)

	// Durable pipelines (dur != nil) append every decided item to the WAL
	// before its decisions are released: the flusher appends (buffered, no
	// fsync) and hands the batch to the acker goroutine over ackCh, which
	// group-commits — one fsync per commit cohort, skipped entirely when a
	// previous cohort's fsync already covered the batch — and only then
	// delivers the chunks. Delivery stays FIFO (one acker), so the
	// decision-order identity the E14/E15/E16 gates rely on is preserved;
	// fsync latency is paid once per cohort instead of per decision.
	dur   *Durability[Req, Dec]
	probe *walProbe
	ackCh chan ackBatch[Req, Dec]
	// snapCh carries admin snapshot triggers to the flusher, which serves
	// them at its quiescent points (idle, or between batches) — the only
	// places the engine's state digest is meaningful. Nil on in-memory
	// pipelines.
	snapCh chan chan error
}

// ackBatch is one flushed batch in flight between the flusher (which
// appended its records) and the acker (which makes them durable and
// delivers the decisions).
type ackBatch[Req any, Dec service.Decision] struct {
	spans  []flushSpan[Req, Dec]
	ds     []Dec
	err    error
	target int64 // WAL sequence the batch is durable at
}

// submission is one HTTP request's items awaiting their decisions. The
// done channel is buffered for the worst-case chunk count, so the flusher
// never blocks on a slow or disconnected client.
type submission[Req any, Dec service.Decision] struct {
	reqs []Req
	enq  time.Time
	done chan chunk[Dec]
}

// chunk is one contiguous slice of a submission's decisions (one flush's
// worth), or a whole-batch failure covering n items.
type chunk[Dec any] struct {
	ds  []Dec
	n   int
	err error
}

// flushSpan records how many items of one submission entered a flush.
type flushSpan[Req any, Dec service.Decision] struct {
	sub *submission[Req, Dec]
	n   int
}

// newPipe builds a workload pipeline, registers its metrics under the
// acserve_<name>_* prefix, and starts its flusher.
func newPipe[Req any, Dec service.Decision](s *Server, name string, svc service.Service[Req, Dec], codec Codec[Req, Dec]) *pipe[Req, Dec] {
	p := &pipe[Req, Dec]{
		srv:   s,
		name:  name,
		svc:   svc,
		codec: codec,
		// Every queued submission carries ≥ 1 item, so QueueLen slots can
		// never be the binding constraint — the item bound below is.
		queue: make(chan *submission[Req, Dec], s.cfg.queueLen()),
	}
	p.qcond = sync.NewCond(&p.qmu)
	prefix := "acserve_" + name + "_"
	p.decisions = s.reg.NewCounter(prefix+"decisions_total",
		"Items decided by the "+name+" workload (per-item failures excluded).")
	p.errItems = s.reg.NewCounter(prefix+"errors_total",
		"Items refused by the "+name+" workload with a per-item failure.")
	p.batchSz = s.reg.NewHistogram(prefix+"batch_size",
		"Coalesced engine batch sizes of the "+name+" workload.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	p.latency = s.reg.NewHistogram(prefix+"decision_latency_seconds",
		"Queue-to-decision latency per submission chunk of the "+name+" workload.",
		metrics.ExponentialBuckets(16e-6, 2, 16)) // 16µs .. ~0.5s
	s.reg.NewGaugeFunc(prefix+"queue_depth",
		"Items waiting in the "+name+" batching queue.",
		func() []metrics.Sample {
			p.qmu.Lock()
			depth := p.queuedItems
			p.qmu.Unlock()
			return []metrics.Sample{{Value: float64(depth)}}
		})
	if codec.Metrics != nil {
		p.observe = codec.Metrics(s.reg)
	}
	if codec.Durability != nil {
		p.dur = codec.Durability
		p.probe = s.registerDurable(name, p.dur.Replay)
		p.ackCh = make(chan ackBatch[Req, Dec], 64)
		p.snapCh = make(chan chan error)
		p.loops.Add(1)
		go p.ackLoop()
	}
	p.loops.Add(1)
	go p.flushLoop()
	return p
}

// closeQueue ends the pipeline's intake; the flusher drains the rest and
// exits.
func (p *pipe[Req, Dec]) closeQueue() { close(p.queue) }

// await waits for the flusher to decide and answer everything that was
// queued, or for ctx.
func (p *pipe[Req, Dec]) await(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		p.loops.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// flushLoop coalesces queued submissions into engine batches: a batch
// closes when it reaches BatchSize items or when the queue is found empty.
// Under load the queue is never empty, so batches fill; when idle no
// submission waits for company. Submissions larger than BatchSize are
// chunked across flushes; each chunk's decisions are delivered as soon as
// its flush completes, so large submissions stream early decisions. Exits
// when the queue is closed and fully served.
func (p *pipe[Req, Dec]) flushLoop() {
	defer p.loops.Done()
	if p.ackCh != nil {
		defer close(p.ackCh) // the acker drains in-flight batches and exits
	}
	size := p.srv.cfg.batchSize()
	reqs := make([]Req, 0, size)
	spans := make([]flushSpan[Req, Dec], 0, 16)

	var cur *submission[Req, Dec] // partially consumed submission
	off := 0
	closed := false
	for {
		if cur == nil {
			// Idle: nothing queued, nothing half-consumed — a quiescent
			// point, so admin snapshot triggers are served here (snapCh is
			// nil on in-memory pipelines and never fires).
			var ok bool
			select {
			case cur, ok = <-p.queue:
				if !ok {
					return
				}
				off = 0
			case done := <-p.snapCh:
				done <- p.snapshotNow()
				continue
			}
		}
		reqs = reqs[:0]
		spans = spans[:0]
		// Held from the first take until the batch is delivered: once
		// releaseItems below drops queuedItems, the lock is what keeps an
		// inline submission from overtaking items taken but not decided.
		p.decideMu.Lock()
	fill:
		for len(reqs) < size {
			if cur == nil {
				if closed {
					break fill
				}
				select {
				case next, ok := <-p.queue:
					if !ok {
						closed = true
						break fill
					}
					cur = next
					off = 0
				default:
					break fill // queue empty: flush what we have
				}
				continue
			}
			take := size - len(reqs)
			if rem := len(cur.reqs) - off; take > rem {
				take = rem
			}
			reqs = append(reqs, cur.reqs[off:off+take]...)
			spans = append(spans, flushSpan[Req, Dec]{sub: cur, n: take})
			off += take
			p.releaseItems(take)
			if off == len(cur.reqs) {
				cur = nil
			}
		}
		p.flush(reqs, spans)
		p.decideMu.Unlock()
		p.maybeSnapshot()
		if p.snapCh != nil {
			// Between batches everything submitted is decided — the other
			// quiescent point; serve a pending trigger without blocking.
			select {
			case done := <-p.snapCh:
				done <- p.snapshotNow()
			default:
			}
		}
		if closed && cur == nil {
			return
		}
	}
}

// flush submits one coalesced batch through the service's pipelined batch
// path and delivers each submission its chunk of decisions. Items were
// validated at the HTTP boundary, so the prevalidated path is used. A
// whole-batch error (the service was closed under the server) fans out to
// every chunk; per-item failures reach only their own line via the
// decision's DecisionErr. On a durable pipeline the
// batch is appended to the WAL here (buffered) and handed to the acker,
// which fsyncs before delivering — a decision is never released to a
// client before the log covers it. A WAL append failure fails the whole
// batch and poisons the log (fail-stop): subsequent batches keep failing
// rather than serving decisions durability has lost.
func (p *pipe[Req, Dec]) flush(reqs []Req, spans []flushSpan[Req, Dec]) {
	p.batchSz.Observe(float64(len(reqs)))
	ds, err := p.svc.SubmitBatchPrevalidated(context.Background(), reqs)
	if p.dur == nil {
		p.deliver(spans, ds, err)
		return
	}
	if err == nil {
		err = p.logBatch(reqs, ds)
	}
	if err != nil {
		ds = nil
	}
	p.ackCh <- ackBatch[Req, Dec]{
		// spans is the flusher's scratch, reused next batch: copy it.
		spans:  append([]flushSpan[Req, Dec](nil), spans...),
		ds:     ds,
		err:    err,
		target: p.dur.Log.NextSeq(),
	}
}

// logBatch appends one decided batch to the WAL (buffered; the acker
// fsyncs) and feeds the shared WAL counters.
func (p *pipe[Req, Dec]) logBatch(reqs []Req, ds []Dec) error {
	var rec wal.Record
	for i := range ds {
		p.dur.Record(reqs[i], ds[i], &rec)
		n, err := p.dur.Log.Append(&rec)
		if err != nil {
			return fmt.Errorf("wal append: %w", err)
		}
		p.srv.walAppends.Inc()
		p.srv.walBytes.Add(float64(n))
	}
	return nil
}

// ackLoop is the durable pipeline's second stage: make each batch's
// records durable, then deliver its decisions. The DurableSeq check is the
// group-commit coalescing — when a later batch's fsync (or a rotation, or
// a snapshot) already covered this batch, no disk touch happens at all.
func (p *pipe[Req, Dec]) ackLoop() {
	defer p.loops.Done()
	log := p.dur.Log
	for ab := range p.ackCh {
		if ab.err == nil && log.DurableSeq() < ab.target {
			start := time.Now()
			if err := log.Sync(); err != nil {
				ab.err = fmt.Errorf("wal sync: %w", err)
				ab.ds = nil
			} else {
				p.srv.walFsync.Observe(time.Since(start).Seconds())
			}
		}
		p.deliver(ab.spans, ab.ds, ab.err)
	}
}

// snapshotNow writes one WAL snapshot, stamping the engine's current state
// digest. Runs only on the flusher, at a quiescent point.
func (p *pipe[Req, Dec]) snapshotNow() error {
	err := p.dur.Log.WriteSnapshot(p.dur.StateDigest())
	if err == nil {
		p.probe.lastSnapUnix.Store(time.Now().Unix())
	}
	return err
}

// triggerSnapshot hands the flusher a snapshot request and waits for the
// result. The flusher takes it at its next quiescent point — immediately
// when idle, after the current batch otherwise — so the wait is bounded by
// one flush; ctx bounds it anyway (a drained flusher that already exited
// would otherwise block the send forever).
func (p *pipe[Req, Dec]) triggerSnapshot(ctx context.Context) error {
	if p.dur == nil {
		return errNotDurable
	}
	done := make(chan error, 1)
	select {
	case p.snapCh <- done:
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// maybeSnapshot compacts the WAL once enough decisions accumulated since
// the last snapshot. It runs on the flusher between batches — the only
// quiescent point where the engine's state digest is meaningful (every
// submitted item is decided, none are in flight) and no append races the
// compaction. A snapshot failure poisons the log; the next batch's append
// surfaces the fail-stop to clients.
func (p *pipe[Req, Dec]) maybeSnapshot() {
	d := p.dur
	if d == nil || d.SnapshotEvery <= 0 || d.Log.RecordsSinceSnapshot() < d.SnapshotEvery {
		return
	}
	_ = p.snapshotNow()
}

// deliver hands each submission its chunk of decisions, folding every
// decision into the metrics counters before delivery.
func (p *pipe[Req, Dec]) deliver(spans []flushSpan[Req, Dec], ds []Dec, err error) {
	now := time.Now()
	at := 0
	for _, sp := range spans {
		c := chunk[Dec]{n: sp.n, err: err}
		if err == nil {
			c.ds = ds[at : at+sp.n]
		}
		at += sp.n
		p.account(c, now.Sub(sp.sub.enq))
		sp.sub.done <- c
	}
}

// account folds one decided chunk into the latency histogram and the
// decision counters. Both entry points call it before any of the chunk's
// lines is written — a client that disconnects mid-stream must not leave
// /metrics short of the engine's ledger.
func (p *pipe[Req, Dec]) account(c chunk[Dec], latency time.Duration) {
	p.latency.Observe(latency.Seconds())
	for _, d := range c.ds {
		if d.DecisionErr() != nil {
			p.errItems.Inc()
			continue
		}
		p.decisions.Inc()
		if p.observe != nil {
			p.observe(d)
		}
	}
}

// decideInline decides reqs on the calling handler and reports true, or
// reports false and decides nothing. It decides only a submission that
// fits one engine batch on an in-memory pipeline (a durable one releases
// decisions only after the acker's fsync), and only if, at the moment it
// is accepted under qmu, no earlier item is undecided: none queued, and
// decideMu free, so the flusher holds no taken batch. The submission is
// observed as one batch and one chunk, as the flusher would observe it.
func (p *pipe[Req, Dec]) decideInline(reqs []Req) (chunk[Dec], bool) {
	if p.dur != nil || len(reqs) > p.srv.cfg.batchSize() {
		return chunk[Dec]{}, false
	}
	p.qmu.Lock()
	ok := p.queuedItems == 0 && p.decideMu.TryLock()
	p.qmu.Unlock()
	if !ok {
		return chunk[Dec]{}, false
	}
	start := time.Now()
	p.batchSz.Observe(float64(len(reqs)))
	ds, err := p.svc.SubmitBatchPrevalidated(context.Background(), reqs)
	p.decideMu.Unlock()
	c := chunk[Dec]{n: len(reqs), err: err}
	if err == nil {
		c.ds = ds
	}
	p.account(c, time.Since(start))
	return c, true
}

// isWireContentType reports whether ct (with optional parameters) names
// the binary wire protocol.
func isWireContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == wire.ContentType
}

// decode parses and bounds one submission body in the negotiated format.
func (p *pipe[Req, Dec]) decode(r *http.Request, wireMode bool) ([]Req, error) {
	if wireMode {
		// Binary bodies land in a pooled buffer: WireCodec.DecodeRequest
		// must copy whatever it keeps (the payload dies with the call), so
		// the buffer returns to the pool the moment decoding ends instead
		// of feeding the garbage collector once per submission.
		buf := wire.GetBuffer()
		defer wire.PutBuffer(buf)
		var err error
		if buf.B, err = readBodyInto(r, buf.B); err != nil {
			return nil, err
		}
		return p.decodeWireBody(buf.B)
	}
	body, err := readBody(r)
	if err != nil {
		return nil, err
	}
	decode := p.codec.Decode
	if decode == nil {
		decode = DecodeJSONBatch[Req]
	}
	reqs, err := decode(body)
	if err != nil {
		return nil, err
	}
	if len(reqs) > p.srv.cfg.maxSubmit() {
		return nil, errTooLarge
	}
	return reqs, nil
}

// decodeWireBody parses a framed binary submission: uvarint item count,
// then one request frame per item, nothing trailing. The count is bounded
// (by wire.ReadSubmitHeader against the body size and here against
// MaxSubmit) before any allocation sized by it.
func (p *pipe[Req, Dec]) decodeWireBody(body []byte) ([]Req, error) {
	count, rest, err := wire.ReadSubmitHeader(body)
	if err != nil {
		return nil, err
	}
	if count > p.srv.cfg.maxSubmit() {
		return nil, errTooLarge
	}
	reqs := make([]Req, 0, count)
	for i := 0; i < count; i++ {
		var payload []byte
		if payload, rest, err = wire.NextFrame(rest); err != nil {
			return nil, fmt.Errorf("wire frame %d: %v", i, err)
		}
		req, err := p.codec.Wire.DecodeRequest(payload)
		if err != nil {
			return nil, fmt.Errorf("wire frame %d: %v", i, err)
		}
		reqs = append(reqs, req)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %d frames", len(rest), count)
	}
	return reqs, nil
}

// decisionSink streams one submission's decision lines in the negotiated
// format. Writes return false once the client is gone.
type decisionSink[Dec service.Decision] interface {
	// decision writes one decision line.
	decision(d Dec) bool
	// errorLine writes one whole-batch failure line.
	errorLine(msg string) bool
	// finish writes whatever is buffered through to the ResponseWriter
	// without forcing a flush: net/http finishes the response, so a small
	// one leaves in one write with a Content-Length.
	finish()
}

// jsonSink renders NDJSON decision lines (the original codec), flushing
// periodically so large submissions see early decisions.
type jsonSink[Dec service.Decision] struct {
	bw      *bufio.Writer
	enc     *json.Encoder
	flusher http.Flusher
	encode  func(Dec) any
	written int
}

func (s *jsonSink[Dec]) decision(d Dec) bool {
	if s.enc.Encode(s.encode(d)) != nil {
		return false
	}
	s.written++
	if s.written%64 == 0 && s.flusher != nil {
		_ = s.bw.Flush()
		s.flusher.Flush()
	}
	return true
}

func (s *jsonSink[Dec]) errorLine(msg string) bool {
	return s.enc.Encode(errorJSON{Error: msg}) == nil
}

func (s *jsonSink[Dec]) finish() { _ = s.bw.Flush() }

// wireFlushBytes is the buffered-bytes threshold at which the binary sink
// writes its pooled buffer through to the client.
const wireFlushBytes = 32 << 10

// wireSink renders length-prefixed binary decision frames out of a pooled
// buffer — zero allocations per decision in steady state.
type wireSink[Dec service.Decision] struct {
	w         io.Writer
	flusher   http.Flusher
	buf       *wire.Buffer
	appendDec func([]byte, Dec) []byte
}

func (s *wireSink[Dec]) decision(d Dec) bool {
	s.buf.B = s.appendDec(s.buf.B, d)
	return s.maybeFlush()
}

func (s *wireSink[Dec]) errorLine(msg string) bool {
	s.buf.B = wire.AppendStreamError(s.buf.B, msg)
	return s.maybeFlush()
}

func (s *wireSink[Dec]) maybeFlush() bool {
	if len(s.buf.B) < wireFlushBytes {
		return true
	}
	if !s.write() {
		return false
	}
	if s.flusher != nil {
		s.flusher.Flush()
	}
	return true
}

// write hands the buffered frames to the ResponseWriter.
func (s *wireSink[Dec]) write() bool {
	if len(s.buf.B) == 0 {
		return true
	}
	_, err := s.w.Write(s.buf.B)
	s.buf.B = s.buf.B[:0]
	return err == nil
}

func (s *wireSink[Dec]) finish() { s.write() }

// handleSubmit decodes one submission (a JSON item or array, or a framed
// binary body when the request's Content-Type negotiates the wire
// protocol), validates every item up front (the whole submission is
// rejected if any item is invalid), decides it inline or enqueues it into
// the workload's batching pipeline, and streams one decision line per
// item, in item order and in the same format the submission used, as
// chunks of decisions are made.
func (p *pipe[Req, Dec]) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s := p.srv
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.paused.Load() {
		// Administrative pause: the door is closed but the server is
		// healthy — clients get a retryable 503, queued work keeps flowing.
		httpError(w, http.StatusServiceUnavailable, "intake paused by the admin control plane")
		return
	}
	wireMode := isWireContentType(r.Header.Get("Content-Type"))
	if wireMode && (p.codec.Wire == nil || s.cfg.JSONOnly) {
		httpError(w, http.StatusUnsupportedMediaType,
			"workload %q does not serve the binary wire protocol", p.name)
		return
	}
	reqs, err := p.decode(r, wireMode)
	if err != nil {
		s.malformed.Inc()
		status := http.StatusBadRequest
		if err == errTooLarge {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "%v", err)
		return
	}
	for i := range reqs {
		if err := p.svc.Validate(reqs[i]); err != nil {
			s.malformed.Inc()
			httpError(w, http.StatusBadRequest, "item %d: %v", i, err)
			return
		}
	}
	if !s.enter() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	// An inline decision holds enter until it is made, so Drain waits for
	// it before closing the queues, and the services may be closed as soon
	// as Drain returns.
	c, inline := p.decideInline(reqs)
	var sub *submission[Req, Dec]
	if !inline {
		sub = p.enqueue(reqs)
	}
	s.exit()

	flusher, _ := w.(http.Flusher)
	var sink decisionSink[Dec]
	if wireMode {
		w.Header().Set("Content-Type", wire.ContentType)
		wb := wire.GetBuffer()
		defer wire.PutBuffer(wb)
		sink = &wireSink[Dec]{w: w, flusher: flusher, buf: wb, appendDec: p.codec.Wire.AppendDecision}
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
		bw := bufio.NewWriter(w)
		sink = &jsonSink[Dec]{bw: bw, enc: json.NewEncoder(bw), flusher: flusher, encode: p.codec.Encode}
	}
	ok := true
	if inline {
		ok = writeChunk(sink, c)
	} else {
		for served := 0; served < len(reqs); {
			c := <-sub.done
			served += c.n
			// Once the client is gone, keep receiving so the buffered
			// chunks are consumed; decisions are already accounted.
			ok = ok && writeChunk(sink, c)
		}
	}
	if ok {
		sink.finish()
	}
}

// enqueue hands reqs to the flusher once the queue has headroom.
func (p *pipe[Req, Dec]) enqueue(reqs []Req) *submission[Req, Dec] {
	// Backpressure by items: wait for queue headroom before enqueueing.
	// An admitted submission may overshoot the bound by itself (at most
	// MaxSubmit items), like the old per-item queue once a submission
	// started enqueueing; the flusher releases room as it takes items, so
	// waiters here make progress as long as the pipeline is flushing.
	limit := p.srv.cfg.queueLen()
	p.qmu.Lock()
	for p.queuedItems >= limit {
		p.qcond.Wait()
	}
	p.queuedItems += len(reqs)
	p.qmu.Unlock()
	sub := &submission[Req, Dec]{
		reqs: reqs,
		enq:  time.Now(),
		// Buffered for the worst-case chunk count so the flusher never
		// blocks on this submission's consumer.
		done: make(chan chunk[Dec], len(reqs)/p.srv.cfg.batchSize()+2),
	}
	p.queue <- sub
	return sub
}

// writeChunk streams one chunk's lines; false once the client is gone.
func writeChunk[Dec service.Decision](sink decisionSink[Dec], c chunk[Dec]) bool {
	if c.err != nil {
		// Whole-batch failure: one error line per item in the chunk.
		line := c.err.Error()
		for i := 0; i < c.n; i++ {
			if !sink.errorLine(line) {
				return false
			}
		}
		return true
	}
	for _, d := range c.ds {
		if !sink.decision(d) {
			return false
		}
	}
	return true
}

// releaseItems returns item headroom to the queue bound and wakes blocked
// handlers.
func (p *pipe[Req, Dec]) releaseItems(n int) {
	p.qmu.Lock()
	p.queuedItems -= n
	p.qmu.Unlock()
	p.qcond.Broadcast()
}

// handleStats renders the workload's statistics (via its codec) as JSON.
// Once an admin token is configured the route requires it: stats expose
// per-shard occupancy, which is the signal an occupancy-reactive adversary
// steers by (with no token configured the route stays open, as before the
// admin plane existed).
func (p *pipe[Req, Dec]) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if !p.srv.authorize(w, r) {
		return
	}
	p.qmu.Lock()
	depth := p.queuedItems
	p.qmu.Unlock()
	body := p.codec.Stats(QueueState{Depth: depth, Draining: p.srv.draining.Load()})
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}
