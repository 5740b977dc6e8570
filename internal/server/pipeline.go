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
	"sync/atomic"
	"time"

	"admission/internal/metrics"
	"admission/internal/service"
	"admission/internal/wal"
	"admission/internal/wire"
)

// pipe is one workload's decision path plus its HTTP handler pair — the
// single generic serving path every registered workload shares. Every
// submission is decided on its own handler (decide), under decideMu, in
// engine batches of at most Config.BatchSize items. One lock per workload
// decides its items in one global order, which keeps one-connection
// traffic decision-identical to sequential Submit calls — the property the
// E14/E15/E16 identity gates rely on.
type pipe[Req any, Dec service.Decision] struct {
	srv   *Server
	name  string
	svc   service.Service[Req, Dec]
	codec Codec[Req, Dec]

	// decideMu is held by the handler deciding a submission, from its first
	// engine batch until its last one is decided and, on a durable
	// pipeline, appended to the log, so the log's order is the engine's.
	decideMu sync.Mutex
	// waiting counts the items of handlers blocked on decideMu.
	waiting atomic.Int64

	decisions *metrics.Counter
	errItems  *metrics.Counter
	batchSz   *metrics.Histogram
	latency   *metrics.Histogram
	observe   func(Dec)

	// Durable pipelines (dur != nil) append every decided item to the WAL
	// under decideMu, then release the lock and release a submission's
	// decisions only after a Sync covering them has returned. Handlers
	// syncing at once share one fsync per commit cohort (wal.Log.Sync), so
	// fsync latency is paid per cohort instead of per decision.
	dur   *Durability[Req, Dec]
	probe *walProbe
}

// newPipe builds a workload pipeline and registers its metrics under the
// acserve_<name>_* prefix.
func newPipe[Req any, Dec service.Decision](s *Server, name string, svc service.Service[Req, Dec], codec Codec[Req, Dec]) *pipe[Req, Dec] {
	p := &pipe[Req, Dec]{srv: s, name: name, svc: svc, codec: codec}
	prefix := "acserve_" + name + "_"
	p.decisions = s.reg.NewCounter(prefix+"decisions_total",
		"Items decided by the "+name+" workload (per-item failures excluded).")
	p.errItems = s.reg.NewCounter(prefix+"errors_total",
		"Items refused by the "+name+" workload with a per-item failure.")
	p.batchSz = s.reg.NewHistogram(prefix+"batch_size",
		"Engine batch sizes of the "+name+" workload.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	p.latency = s.reg.NewHistogram(prefix+"decision_latency_seconds",
		"Latency from a submission's arrival at the decision lock to the release of its decisions, per engine batch of the "+name+" workload.",
		metrics.ExponentialBuckets(16e-6, 2, 16)) // 16µs .. ~0.5s
	s.reg.NewGaugeFunc(prefix+"queue_depth",
		"Items of "+name+" submissions waiting for the workload's decision lock.",
		func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(p.waiting.Load())}}
		})
	if codec.Metrics != nil {
		p.observe = codec.Metrics(s.reg)
	}
	if codec.Durability != nil {
		p.dur = codec.Durability
		p.probe = s.registerDurable(name, p.dur.Replay)
	}
	return p
}

// decide decides reqs on the calling handler, in engine batches of at most
// BatchSize items, and returns the decisions it releases, batch by batch
// in item order; err covers every item past them. Items were validated at
// the HTTP boundary, so the prevalidated path is used. A whole-batch
// failure (the service was closed under the server, or the log failed)
// leaves the submission's later batches undecided. Per-item failures reach
// only their own line via the decision's DecisionErr.
//
// On a durable pipeline each batch is appended to the WAL under decideMu
// (buffered), and the decisions are released only after a Sync covering
// them has returned. A failed append or Sync fails the whole submission and
// poisons the log (fail-stop): later submissions keep failing rather than
// serving decisions durability has lost.
func (p *pipe[Req, Dec]) decide(reqs []Req) (out [][]Dec, err error) {
	start := time.Now()
	size := p.srv.cfg.batchSize()
	out = make([][]Dec, 0, (len(reqs)+size-1)/size)
	batches := 0
	var target int64 // WAL sequence the submission is durable at

	p.waiting.Add(int64(len(reqs)))
	p.decideMu.Lock()
	p.waiting.Add(-int64(len(reqs)))
	for at := 0; at < len(reqs) && err == nil; at += size {
		batch := reqs[at:min(at+size, len(reqs))]
		batches++
		p.batchSz.Observe(float64(len(batch)))
		var ds []Dec
		ds, err = p.svc.SubmitBatchPrevalidated(context.Background(), batch)
		if err == nil && p.dur != nil {
			err = p.logBatch(batch, ds)
		}
		if err == nil {
			out = append(out, ds)
		}
	}
	if p.dur != nil && err == nil {
		// Every item the engine decided is logged now: the state digest a
		// snapshot stamps covers exactly the logged prefix.
		p.maybeSnapshot()
		target = p.dur.Log.NextSeq()
	}
	p.decideMu.Unlock()

	if p.dur != nil {
		if err == nil {
			err = p.sync(target)
		}
		if err != nil {
			out = nil
		}
	}
	p.account(out, batches, time.Since(start))
	return out, err
}

// logBatch appends one decided batch to the WAL (buffered; decide syncs
// once the lock is released) and feeds the shared WAL counters.
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

// sync makes the log durable up to target. The DurableSeq check is the
// group-commit coalescing: when another handler's fsync (or a rotation, or
// a snapshot) already covered the submission, no disk touch happens, and
// the fsync histogram observes only the Syncs that reach the disk.
func (p *pipe[Req, Dec]) sync(target int64) error {
	log := p.dur.Log
	if log.DurableSeq() >= target {
		return nil
	}
	start := time.Now()
	if err := log.Sync(); err != nil {
		return fmt.Errorf("wal sync: %w", err)
	}
	p.srv.walFsync.Observe(time.Since(start).Seconds())
	return nil
}

// snapshotNow writes one WAL snapshot, stamping the engine's current state
// digest. Callers hold decideMu, so every decided item is logged.
func (p *pipe[Req, Dec]) snapshotNow() error {
	err := p.dur.Log.WriteSnapshot(p.dur.StateDigest())
	if err == nil {
		p.probe.lastSnapUnix.Store(time.Now().Unix())
	}
	return err
}

// triggerSnapshot writes a WAL snapshot between two submissions' decisions,
// waiting for the one deciding, if any.
func (p *pipe[Req, Dec]) triggerSnapshot() error {
	if p.dur == nil {
		return errNotDurable
	}
	p.decideMu.Lock()
	defer p.decideMu.Unlock()
	return p.snapshotNow()
}

// maybeSnapshot compacts the WAL once enough decisions accumulated since
// the last snapshot. A snapshot failure poisons the log: the submission's
// Sync fails unless its records were already made durable, and every later
// append fails.
func (p *pipe[Req, Dec]) maybeSnapshot() {
	d := p.dur
	if d.SnapshotEvery <= 0 || d.Log.RecordsSinceSnapshot() < d.SnapshotEvery {
		return
	}
	_ = p.snapshotNow()
}

// account folds one submission into the latency histogram (once per engine
// batch) and its released decisions into the decision counters. decide
// calls it before any line is written — a client that disconnects
// mid-stream must not leave /metrics short of the engine's ledger.
func (p *pipe[Req, Dec]) account(out [][]Dec, batches int, latency time.Duration) {
	for i := 0; i < batches; i++ {
		p.latency.Observe(latency.Seconds())
	}
	for _, ds := range out {
		for _, d := range ds {
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
	reqs, err := DecodeJSONBatch[Req](body)
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
// rejected if any item is invalid), decides it on this handler, and
// streams one decision line per item, in item order and in the same format
// the submission used.
func (p *pipe[Req, Dec]) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s := p.srv
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.paused.Load() {
		// Administrative pause: the door is closed but the server is
		// healthy — clients get a retryable 503, admitted work is still
		// decided.
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
	if !s.gate.Enter() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	// The handler stays inside the gate until its decisions are made and
	// synced, so Drain waits for them, and the services may be closed as
	// soon as Drain returns.
	out, err := p.decide(reqs)
	s.gate.Exit()

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
	if writeLines(sink, out, len(reqs), err) {
		sink.finish()
	}
}

// writeLines streams a submission's n lines: the decisions released, then,
// when err is set, one whole-batch failure line per remaining item. It
// reports false once the client is gone.
func writeLines[Dec service.Decision](sink decisionSink[Dec], out [][]Dec, n int, err error) bool {
	for _, ds := range out {
		for _, d := range ds {
			if !sink.decision(d) {
				return false
			}
		}
		n -= len(ds)
	}
	if err != nil {
		line := err.Error()
		for ; n > 0; n-- {
			if !sink.errorLine(line) {
				return false
			}
		}
	}
	return true
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
	body := p.codec.Stats(QueueState{Depth: int(p.waiting.Load()), Draining: p.srv.gate.Closed()})
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}
