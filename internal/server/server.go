// Package server is the network-facing serving layer (DESIGN.md §7 and
// §10): a stdlib-only net/http JSON front end over any engine implementing
// the generic service contract (internal/service), with one per-workload
// decision path, streaming NDJSON decision responses, a Prometheus-text
// /metrics endpoint, and graceful drain.
//
// A Server is a registry of workloads: each Register mounts one
// service.Service under /v1/<name> (submissions) and /v1/<name>/stats
// (statistics) through one generic handler and one generic decision path.
// The built-in workloads are the §2/§3 admission engine (Admission,
// internal/engine) and the §§4–5 set cover engine (Cover,
// internal/coverengine); a new workload plugs in with a Registration — a
// codec for its wire format plus its service — and inherits batching,
// streaming, validation, metrics and drain without touching this package.
//
// Serving the paper's algorithms behind a request boundary adds no
// algorithmic content — the engines already decide arrivals in order — so
// this package's job is purely systems: it hands each HTTP submission to
// the engine in batches of up to Config.BatchSize items, makes durable
// decisions survive a crash before they are answered, and makes the
// engines' accounting observable.
//
// Concurrency contract: a Server's HTTP handlers are safe for any number
// of concurrent connections. Every submission is decided on its own
// handler under one lock per workload, so a workload's items are decided
// in one global order, which keeps one-connection traffic
// decision-identical to sequential Submit calls. Drain may be called from
// any goroutine, concurrently with in-flight handlers. The Server does not
// close its services — the caller owns them.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"admission/internal/engine"
	"admission/internal/metrics"
	"admission/internal/service"
	"admission/internal/wal"
)

// Default pipeline parameters, applied when the corresponding Config field
// is zero.
const (
	// DefaultBatchSize is the default maximum engine batch.
	DefaultBatchSize = 256
	// DefaultMaxSubmit is the default per-request item cap.
	DefaultMaxSubmit = 16384
)

// Config tunes the decision path shared by every registered workload. The
// zero value means every documented default; negative values are rejected
// by New with a descriptive error.
type Config struct {
	// BatchSize is the maximum number of items in one engine batch; a
	// larger submission is decided in consecutive batches (0 means
	// DefaultBatchSize).
	BatchSize int
	// MaxSubmit caps the number of items in one HTTP submission body
	// (0 means DefaultMaxSubmit; larger bodies get 413).
	MaxSubmit int
	// JSONOnly disables the binary wire protocol: submissions with
	// Content-Type application/x-acwire get 415 even on workloads whose
	// codec defines a wire format. The default (false) negotiates the
	// codec per submission from the Content-Type header.
	JSONOnly bool
	// AdminToken enables the authenticated admin control plane (DESIGN.md
	// §15): when non-empty, the /admin/v1/* route group is mounted
	// (capacity resize, pause/resume intake, snapshot trigger, structured
	// occupancy) and every admin, /v1/<name>/stats and /metrics request
	// must present the token as "Authorization: Bearer <token>" —
	// occupancy is exactly what a reactive adversary wants to read, so
	// configuring the admin plane also closes the read-only surfaces.
	// Submissions and /healthz stay open. The zero value means the admin
	// plane is disabled (no /admin routes, open stats/metrics), matching
	// the package convention that a zero Config field always means the
	// documented default; a token that is configured but blank (only
	// whitespace) or contains whitespace/control characters is rejected by
	// New, because it cannot round-trip through an Authorization header.
	AdminToken string
}

// validate rejects negative fields with a descriptive error; zero always
// means the documented default.
func (c Config) validate() error {
	if c.BatchSize < 0 {
		return fmt.Errorf("server: BatchSize %d is negative; use 0 for the default %d", c.BatchSize, DefaultBatchSize)
	}
	if c.MaxSubmit < 0 {
		return fmt.Errorf("server: MaxSubmit %d is negative; use 0 for the default %d", c.MaxSubmit, DefaultMaxSubmit)
	}
	if c.AdminToken != "" {
		if strings.TrimSpace(c.AdminToken) == "" {
			return errors.New("server: AdminToken is configured but blank; use the empty string to disable the admin plane")
		}
		for _, r := range c.AdminToken {
			if r <= ' ' || r == 0x7f {
				return fmt.Errorf("server: AdminToken contains whitespace or control character %q, which cannot travel in an Authorization header", r)
			}
		}
	}
	return nil
}

func (c Config) batchSize() int {
	if c.BatchSize == 0 {
		return DefaultBatchSize
	}
	return c.BatchSize
}

func (c Config) maxSubmit() int {
	if c.MaxSubmit == 0 {
		return DefaultMaxSubmit
	}
	return c.MaxSubmit
}

// QueueState is the pipeline view handed to a workload's Stats codec hook.
type QueueState struct {
	// Depth is the number of items of submissions waiting for the
	// workload's decision lock.
	Depth int
	// Draining reports whether Drain has been initiated.
	Draining bool
}

// Codec describes one workload's wire format: how decisions and statistics
// are rendered, and optionally its binary wire format and which
// workload-specific metrics are kept; JSON bodies are parsed by
// DecodeJSONBatch. Together with a service.Service it is everything
// Register needs to serve a workload.
type Codec[Req any, Dec service.Decision] struct {
	// Encode renders one decision as its NDJSON wire line (a
	// JSON-marshalable value). Required.
	Encode func(Dec) any
	// Stats renders the workload's /v1/<name>/stats response body.
	// Required.
	Stats func(q QueueState) any
	// Metrics optionally registers workload-specific collectors on the
	// server's registry and returns a per-decision observer invoked for
	// every successfully decided item (nil for none).
	Metrics func(reg *metrics.Registry) func(Dec)
	// Wire optionally defines the workload's binary wire format
	// (internal/wire, DESIGN.md §11). Nil means the workload is
	// JSON-only; set, a submission with Content-Type application/x-acwire
	// is decoded from framed binary and answered with a framed binary
	// decision stream instead of NDJSON.
	Wire *WireCodec[Req, Dec]
	// Durability optionally routes the workload through the write-ahead
	// log (internal/wal, DESIGN.md §12). Nil means decisions are served
	// from memory only.
	Durability *Durability[Req, Dec]
}

// Durability wires one workload's pipeline into a decision WAL: every
// decided item is appended to Log, and made durable, before its decision
// is released to the client (group-commit fsync batching keeps the fsync
// off the per-decision path — see pipe.decide), and the pipeline snapshots
// the log every SnapshotEvery decisions. The caller opens the Log and
// replays it into the engine first; for the built-in workloads a Node's
// Open and Mount do both and build this.
//
// A durable workload requires that all engine traffic flows through the
// server: a Submit that bypasses the pipeline would consume a sequence
// number the log never sees, and the next logged append would fail-stop
// the log (wal.Log.Append's contiguity check).
type Durability[Req any, Dec service.Decision] struct {
	// Log is the open decision log; its kind and fingerprint must match
	// the mounted engine. Required.
	Log *wal.Log
	// Record fills rec with the WAL record pairing req with its decision.
	// Required.
	Record func(req Req, dec Dec, rec *wal.Record)
	// StateDigest returns the engine's deterministic state digest, stamped
	// into snapshots for post-recovery verification. Required.
	StateDigest func() uint64
	// SnapshotEvery is the number of logged decisions between automatic
	// snapshots (0 disables them).
	SnapshotEvery int64
	// Replay carries the startup recovery summary for /metrics.
	Replay RecoveryInfo
}

// logged returns codec with its workload routed through log: digest
// stamps its snapshots and record maps each decided item onto its record.
func logged[Req any, Dec service.Decision](codec Codec[Req, Dec], log *wal.Log, opts DurableOptions, digest func() uint64, record func(Req, Dec, *wal.Record)) Codec[Req, Dec] {
	codec.Durability = &Durability[Req, Dec]{
		Log:           log,
		Record:        record,
		StateDigest:   digest,
		SnapshotEvery: opts.SnapshotEvery,
		Replay:        opts.Replay,
	}
	return codec
}

// WireCodec maps one workload's request and decision types onto the binary
// wire protocol (internal/wire). Append hooks write length-prefixed frames
// into a caller-owned buffer (the server streams out of a pooled one, so
// steady-state encoding allocates nothing per decision); DecodeRequest
// parses one submitted frame's payload. Whole-batch failures need no hook:
// they are framed by the workload-independent wire.AppendStreamError.
type WireCodec[Req any, Dec service.Decision] struct {
	// DecodeRequest parses one request frame payload. The payload aliases a
	// pooled read buffer that is recycled after decoding, so the returned
	// request must not retain it — copy anything kept. Required.
	DecodeRequest func(payload []byte) (Req, error)
	// AppendDecision appends one decision's frame to buf and returns the
	// extended buffer. Required.
	AppendDecision func(buf []byte, d Dec) []byte
}

// Registration mounts one workload on a Server during New. Build one with
// Register (or the built-in Admission and Cover helpers).
type Registration func(s *Server) error

// Register mounts svc as the workload called name: POST /v1/<name> serves
// submissions through the shared decision path and GET
// /v1/<name>/stats its statistics. The name must be non-empty and
// URL-path-safe; registering the same name twice fails New.
func Register[Req any, Dec service.Decision](name string, svc service.Service[Req, Dec], codec Codec[Req, Dec]) Registration {
	return func(s *Server) error {
		if name == "" || strings.ContainsAny(name, "/ ?#") {
			return fmt.Errorf("server: invalid workload name %q", name)
		}
		if codec.Encode == nil || codec.Stats == nil {
			return fmt.Errorf("server: workload %q: codec needs Encode and Stats", name)
		}
		if codec.Wire != nil && (codec.Wire.DecodeRequest == nil || codec.Wire.AppendDecision == nil) {
			return fmt.Errorf("server: workload %q: wire codec needs DecodeRequest and AppendDecision", name)
		}
		if d := codec.Durability; d != nil && (d.Log == nil || d.Record == nil || d.StateDigest == nil) {
			return fmt.Errorf("server: workload %q: durability needs Log, Record and StateDigest", name)
		}
		if _, dup := s.workloads[name]; dup {
			return fmt.Errorf("server: workload %q registered twice", name)
		}
		p := newPipe(s, name, svc, codec)
		s.workloads[name] = p
		s.names = append(s.names, name)
		s.mux.HandleFunc("/v1/"+name, p.handleSubmit)
		s.mux.HandleFunc("/v1/"+name+"/stats", p.handleStats)
		return nil
	}
}

// workloadPipe is the non-generic face of a mounted workload's pipeline.
type workloadPipe interface {
	// triggerSnapshot writes a WAL snapshot between two submissions'
	// decisions, waiting for the one being decided. Returns errNotDurable
	// on an in-memory pipeline.
	triggerSnapshot() error
}

// Server is the workload registry plus the shared HTTP surface: one
// generic handler pair per registered workload, /metrics, /healthz, and a
// graceful drain across all pipelines.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	workloads map[string]workloadPipe
	names     []string

	// gate admits the handlers about to decide a submission; Drain closes
	// it. A handler holds its place until its decisions are made and, on
	// a durable pipeline, synced.
	gate   service.Gate
	paused atomic.Bool // admin pause: submissions answer 503 until resumed

	// adminEng is the capacity-resize target recorded by the admission
	// registrations (nil when no admission workload is mounted);
	// adminDurable notes that its decisions flow through a WAL, in which
	// case live resizes are refused (the log's replay would diverge from a
	// capacity vector it never recorded). Written only during New.
	adminEng     *engine.Engine
	adminDurable bool

	reg       *metrics.Registry
	malformed *metrics.Counter

	// Shared WAL collectors, registered lazily by the first durable
	// workload (metric names are global, so two durable workloads feed the
	// same counters); walProbes carries the per-workload labelled state
	// behind the snapshot/replay gauges. Mutated only during New.
	walAppends *metrics.Counter
	walBytes   *metrics.Counter
	walFsync   *metrics.Histogram
	walProbes  []*walProbe
}

// walProbe is one durable workload's labelled sample state for the shared
// WAL gauges.
type walProbe struct {
	workload     string
	replay       RecoveryInfo
	lastSnapUnix atomic.Int64
}

// registerDurable registers the shared WAL collectors on first use and
// adds one workload's probe. Called only from registrations during New.
func (s *Server) registerDurable(name string, replay RecoveryInfo) *walProbe {
	if s.walAppends == nil {
		s.walAppends = s.reg.NewCounter("acserve_wal_appends_total",
			"Decisions appended to the write-ahead log.")
		s.walBytes = s.reg.NewCounter("acserve_wal_bytes_total",
			"Bytes appended to the write-ahead log.")
		s.walFsync = s.reg.NewHistogram("acserve_wal_fsync_seconds",
			"Latency of WAL group-commit fsyncs (one per commit cohort, not per decision).",
			metrics.ExponentialBuckets(32e-6, 2, 16)) // 32µs .. ~1s
		sample := func(value func(p *walProbe) float64) func() []metrics.Sample {
			return func() []metrics.Sample {
				out := make([]metrics.Sample, len(s.walProbes))
				for i, p := range s.walProbes {
					out[i] = metrics.Sample{
						Labels: map[string]string{"workload": p.workload},
						Value:  value(p),
					}
				}
				return out
			}
		}
		s.reg.NewGaugeFunc("acserve_snapshot_last_unix",
			"Unix time of the last WAL snapshot written by the pipeline (0 before the first).",
			sample(func(p *walProbe) float64 { return float64(p.lastSnapUnix.Load()) }))
		s.reg.NewGaugeFunc("acserve_wal_replay_seconds",
			"Wall time of the startup WAL recovery replay.",
			sample(func(p *walProbe) float64 { return p.replay.Duration.Seconds() }))
		s.reg.NewGaugeFunc("acserve_wal_replay_records",
			"Decisions replayed during startup WAL recovery (snapshot prefix plus tail).",
			sample(func(p *walProbe) float64 { return float64(p.replay.SnapshotSeq + p.replay.TailRecords) }))
	}
	p := &walProbe{workload: name, replay: replay}
	s.walProbes = append(s.walProbes, p)
	return p
}

// New creates a Server over the given workload registrations. It fails on
// an invalid Config (negative fields), an empty registry, or a bad
// registration. The caller retains ownership of the registered services
// (and must Close them after Drain).
func New(cfg Config, regs ...Registration) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(regs) == 0 {
		return nil, errors.New("server: no workloads registered")
	}
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		workloads: map[string]workloadPipe{},
		reg:       metrics.NewRegistry(),
	}
	s.malformed = s.reg.NewCounter("acserve_malformed_total",
		"HTTP submissions rejected before reaching an engine (bad JSON or invalid items).")
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.AdminToken != "" {
		s.mountAdmin()
	}
	for _, reg := range regs {
		if err := reg(s); err != nil {
			return nil, err
		}
	}
	sort.Strings(s.names)
	return s, nil
}

// Workloads returns the registered workload names, sorted.
func (s *Server) Workloads() []string {
	return append([]string(nil), s.names...)
}

// Drain gracefully shuts every workload pipeline down: new submissions are
// refused with 503, and every submission already admitted is decided and,
// on a durable pipeline, synced before Drain returns. Drain is idempotent
// and retryable: the context bounds how long to wait, and a Drain that
// returned a context error can be called again with a fresh context to
// resume waiting. The services stay open — close them after Drain returns.
func (s *Server) Drain(ctx context.Context) error {
	s.gate.Close()
	return s.gate.Wait(ctx)
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool { return s.gate.Closed() }

// Handler returns the server's HTTP routes:
//
//	POST /v1/<workload>       JSON item(s) in, NDJSON decision stream out
//	GET  /v1/<workload>/stats workload + pipeline statistics as JSON
//	GET  /metrics             Prometheus text exposition
//	GET  /healthz             liveness (503 while draining)
//
// with one route pair per registered workload (e.g. /v1/admission and
// /v1/cover for the built-ins). With Config.AdminToken set, the
// token-authenticated /admin/v1/* control-plane group is mounted too and
// the stats/metrics routes require the same token (see mountAdmin).
func (s *Server) Handler() http.Handler { return s.mux }

// Connection limits of the http.Server built by HTTPServer. There is
// deliberately no read or write timeout: a long streaming submission may
// take longer than any fixed bound to upload or to answer.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// HTTPServer returns an http.Server serving Handler on addr, with a 10 s
// ReadHeaderTimeout, a 2 min IdleTimeout and 64 KiB MaxHeaderBytes, so a
// client that stalls mid-header or idles forever cannot pin a connection and
// its goroutine.
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// Run serves the Server on ln, with HTTPServer's connection limits, until
// ctx is done or the listener fails. It then stops accepting connections
// and drains in-flight requests and every pipeline within the drain
// budget. It returns nil only when the listener did not fail and the drain
// completed, the condition Node.Finish needs before it writes a shutdown
// snapshot. Callers build ctx with signal.NotifyContext over their own
// signal set.
func (s *Server) Run(ctx context.Context, ln net.Listener, drain time.Duration) error {
	hs := s.HTTPServer(ln.Addr().String())
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	var err error
	select {
	case <-ctx.Done():
	case err = <-served:
	}
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if shutErr := hs.Shutdown(dctx); shutErr != nil {
		err = errors.Join(err, fmt.Errorf("http shutdown: %w", shutErr))
	}
	if drainErr := s.Drain(dctx); drainErr != nil {
		err = errors.Join(err, fmt.Errorf("pipeline drain: %w", drainErr))
	}
	return err
}

// errorJSON is the body of a non-200 response and of per-item error lines
// emitted when a whole engine batch fails.
type errorJSON struct {
	Error string `json:"error"`
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorJSON{Error: fmt.Sprintf(format, args...)})
}

// errTooLarge marks an over-limit submission (mapped to 413).
var errTooLarge = errors.New("submission exceeds the per-request item limit")

// maxBodyBytes caps a submission body read (64 MiB).
const maxBodyBytes = 64 << 20

// DecodeJSONBatch parses a submission body as either a single JSON value
// of type Req or a JSON array of them — the wire convention every built-in
// workload shares.
func DecodeJSONBatch[Req any](body []byte) ([]Req, error) {
	body = bytes.TrimSpace(body)
	if len(body) == 0 {
		return nil, errors.New("empty submission")
	}
	if body[0] == '[' {
		var reqs []Req
		if err := json.Unmarshal(body, &reqs); err != nil {
			return nil, fmt.Errorf("malformed submission: %v", err)
		}
		if len(reqs) == 0 {
			return nil, errors.New("empty submission")
		}
		return reqs, nil
	}
	var one Req
	if err := json.Unmarshal(body, &one); err != nil {
		return nil, fmt.Errorf("malformed submission: %v", err)
	}
	return []Req{one}, nil
}

// readBody reads a submission body under the global size cap.
func readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("reading submission: %v", err)
	}
	if len(body) > maxBodyBytes {
		return nil, errTooLarge
	}
	return body, nil
}

// readBodyInto reads a submission body into dst (reusing its capacity)
// under the global size cap, growing at most once when Content-Length is
// declared. The filled slice may have a new backing array; the caller owns
// whichever is returned.
func readBodyInto(r *http.Request, dst []byte) ([]byte, error) {
	dst = dst[:0]
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes && int64(cap(dst)) < n {
		dst = make([]byte, 0, n)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Body.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if len(dst) > maxBodyBytes {
			return dst, errTooLarge
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, fmt.Errorf("reading submission: %v", err)
		}
	}
}

// handleMetrics renders the Prometheus text exposition. Like the stats
// routes it requires the admin token once one is configured — the
// exposition carries per-shard occupancy, the signal an occupancy-reactive
// adversary steers by.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if !s.authorize(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}

// handleHealthz reports liveness; 503 once draining so load balancers stop
// routing new traffic during shutdown. It stays unauthenticated even when
// an admin token is configured (a probe holds no secrets), and reports —
// but does not fail on — an admin pause: a paused server is alive, it is
// just refusing intake.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.gate.Closed() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
		return
	}
	status := "ok"
	if s.paused.Load() {
		status = "paused"
	}
	_ = json.NewEncoder(w).Encode(map[string]string{"status": status})
}
