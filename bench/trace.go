package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"admission/internal/server"
	"admission/internal/wire"
)

// perLayer lists the metrics a traced run reports, in BENCHMARK.json order.
// Every one lies on the served path of every workload; the rungs that
// exist for only some workloads (the WAL, the router hop, the set cover
// runner, and each runtime under its module name) go to the result's
// extras instead.
var perLayer = []struct{ name, unit string }{
	{"core.ns_per_item", "ns"},
	{"core.allocs_per_item", "count"},
	{"core.calls_per_item", "count"},
	{"runtime.ns_per_item", "ns"},
	{"runtime.ns_per_item_1shard", "ns"},
	{"wire.ns_per_item", "ns"},
	{"wire.allocs_per_item", "count"},
	{"server.ns_per_item", "ns"},
	{"server.self_ns_per_item", "ns"},
	{"server.batch_mean", "count"},
	{"server.queue_p50_us", "us"},
	{"server.rtt_p50_us", "us"},
	{"server.bytes_per_item", "B"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// span is one timed call into a layer, as written to the span file.
// Spans of one submission share an id.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced sessions run.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id returns a fresh span id.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(name, parent string, id int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, id, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// durations returns the lengths of the spans with the given name and
// parent.
func (t *tracer) durations(name, parent string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.Parent == parent {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as NDJSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return errors.Join(err, f.Close())
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// A rung prices one layer: one pass of the layer's public functions over
// session stream 0, at the shape a one-connection session hands them. It
// returns what the pass measured, by metric name.
type rung func() (map[string]metric, error)

// ladder holds one workload's rungs.
type ladder struct {
	tr     *tracer
	batch  int    // items per call: a submission, cut at the pipeline's batch cap
	walDir string // scratch directory for the WAL rung
	rungs  []rung
	// path names the rung metrics the served one-connection session is made
	// of besides the server itself; server.self_ns_per_item is what is left.
	path []string
}

func (l *ladder) add(r rung) { l.rungs = append(l.rungs, r) }

// pass is one timed pass of a rung over the session stream.
type pass struct {
	t0     time.Time
	m0     uint64
	d      time.Duration
	allocs uint64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (p *pass) start() { p.m0 = mallocs(); p.t0 = time.Now() }
func (p *pass) stop()  { p.d = time.Since(p.t0); p.allocs = mallocs() - p.m0 }

// timed runs one pass of fn over items items, records its span and returns
// the nanoseconds and allocations per item. fn brackets the timed part of
// its pass with start and stop; set-up and tear-down stay outside.
func (l *ladder) timed(name string, items int, fn func(p *pass) error) (ns, allocs float64, err error) {
	var p pass
	if err := fn(&p); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", name, err)
	}
	l.tr.record(name, "ladder", l.tr.id(), p.t0, p.t0.Add(p.d))
	return float64(p.d.Nanoseconds()) / float64(items), float64(p.allocs) / float64(items), nil
}

// wireRung prices the binary codec on the session stream: per submission,
// the client frames the requests, the server decodes them, the server
// frames the decisions and the client decodes those — the four codec steps
// a served submission takes, through the same public functions.
func wireRung[Req, Dec any](l *ladder, stream []Req, cw server.ClientWire[Req, Dec],
	decodeReq func(payload []byte) error, appendDec func(buf []byte, t int) []byte) rung {
	var body, out []byte
	return func() (map[string]metric, error) {
		ns, allocs, err := l.timed("wire.codec", len(stream), func(p *pass) error {
			p.start()
			defer p.stop()
			for lo := 0; lo < len(stream); lo += l.batch {
				hi := min(lo+l.batch, len(stream))
				body = wire.AppendSubmitHeader(body[:0], hi-lo)
				for _, it := range stream[lo:hi] {
					body = cw.AppendRequest(body, it)
				}
				n, rest, err := wire.ReadSubmitHeader(body)
				if err != nil {
					return err
				}
				for range n {
					var payload []byte
					if payload, rest, err = wire.NextFrame(rest); err != nil {
						return err
					}
					if err := decodeReq(payload); err != nil {
						return err
					}
				}
				out = out[:0]
				for t := lo; t < hi; t++ {
					out = appendDec(out, t)
				}
				for rest = out; len(rest) > 0; {
					var payload []byte
					if payload, rest, err = wire.NextFrame(rest); err != nil {
						return err
					}
					if _, err := cw.DecodeDecision(payload); err != nil {
						return err
					}
				}
			}
			return nil
		})
		return map[string]metric{"wire.ns_per_item": {ns, "ns"}, "wire.allocs_per_item": {allocs, "count"}}, err
	}
}

// runtimeRung prices the workload's shard runtime, whose cost per item is
// reported as name (e.g. engine.ns_per_item): run passes the stream
// through a runtime of k shards (lca: workers). At the workload's own
// count the runtime lies on the served path; at one it is name_1shard.
func runtimeRung(l *ladder, name string, k int, items int, run func(p *pass, k int) error) rung {
	module, _, _ := strings.Cut(name, ".")
	span := fmt.Sprintf("%s.submit_batch/shards=%d", module, k)
	if k == 1 {
		name += "_1shard"
	}
	return func() (map[string]metric, error) {
		ns, _, err := l.timed(span, items, func(p *pass) error { return run(p, k) })
		m := map[string]metric{name: {ns, "ns"}}
		if k == 1 {
			m["runtime.ns_per_item_1shard"] = metric{ns, "ns"}
		} else {
			m["runtime.ns_per_item"] = metric{ns, "ns"}
		}
		return m, err
	}
}

// ladderConns is the connection count of the sessions server.ns_per_item
// is measured on: with one connection nothing overlaps, so the rungs of
// the path add up to it.
const ladderConns = 1

// traced runs the per-layer ladder of one workload: the check; then, for
// 55% of the measured time and at least three times, one pass of every
// rung followed by a one-connection session that traces one submission of
// each pair (interleaving them keeps a drift in the shared host's speed
// from landing on some rungs and not others; the pairs give the tracing
// overhead); then traced open-loop sessions at the workload's rate for
// 25%, whose /metrics scrapes and client spans price the pipeline.
func traced(k kit, w spec, seconds float64, walRoot string) (*outcome, *tracer, error) {
	o := newOutcome()
	tr := newTracer()
	if _, err := runCheck(k, o); err != nil || !o.Correct {
		return o, tr, err
	}
	l := &ladder{tr: tr, batch: min(w.batch, server.DefaultBatchSize), walDir: filepath.Join(walRoot, "rung")}
	if err := k.trace(l); err != nil {
		return o, tr, fmt.Errorf("ladder: %w", err)
	}
	r := &sessionRunner{k: k}
	if err := r.run(conns, func(s live) { o.count(s.closed(conns)) }); err != nil {
		return o, tr, fmt.Errorf("warm-up: %w", err)
	}

	values := map[string][]metric{}
	var ratios []float64
	end := time.Now().Add(time.Duration(seconds * 0.55 * float64(time.Second)))
	for iter := 0; iter < 3 || time.Now().Before(end); iter++ {
		got := map[string]metric{}
		for _, rg := range l.rungs {
			m, err := rg()
			if err != nil {
				return o, tr, fmt.Errorf("ladder: %w", err)
			}
			maps.Copy(got, m)
		}
		err := r.run(ladderConns, func(s live) {
			a0 := totalAlloc()
			ld, rs := s.halfTraced(tr)
			a1 := totalAlloc()
			o.count(ld)
			n := float64(max(ld.decided, 1))
			got["server.ns_per_item"] = metric{float64(ld.wall.Nanoseconds()) / n, "ns"}
			got["server.bytes_per_item"] = metric{float64(a1-a0) / n, "B"}
			ratios = append(ratios, rs...)
		})
		if err != nil {
			return o, tr, fmt.Errorf("ladder session: %w", err)
		}
		for name, m := range got {
			values[name] = append(values[name], m)
		}
	}

	var lag []time.Duration
	var scrapes []map[string]float64
	err := forAbout(seconds*0.25, func() error {
		return r.run(conns, func(s live) {
			ld := s.open(conns, w.rate, tr)
			o.count(ld)
			lag = append(lag, ld.lag...)
			if m, err := s.scrape(); err != nil {
				o.fail("scrape: %v", err)
			} else {
				scrapes = append(scrapes, m)
			}
		})
	})
	if err != nil {
		return o, tr, fmt.Errorf("open loop: %w", err)
	}

	for name, ms := range values {
		xs := make([]float64, len(ms))
		for i, m := range ms {
			xs[i] = m.Value
		}
		if m := (metric{median(xs), ms[0].Unit}); isPerLayer(name) {
			o.Metrics[name] = m
		} else {
			o.Extra[name] = m
		}
	}
	self := o.Metrics["server.ns_per_item"].Value
	for _, name := range l.path {
		if m, ok := o.Metrics[name]; ok {
			self -= m.Value
		} else {
			self -= o.Extra[name].Value
		}
	}
	o.set("server.self_ns_per_item", self, "ns")
	o.set("trace.overhead_frac", median(ratios)-1, "frac")
	o.set("loadgen.lag_p99_ms", quantileMs(lag, 0.99), "ms")
	rtt := tr.durations("client.submit", "open")
	o.set("server.rtt_p50_us", quantileMs(rtt, 0.5)*1000, "us")
	batchSum, batchCount := sumSuffix(scrapes, "_batch_size_sum"), sumSuffix(scrapes, "_batch_size_count")
	o.set("server.batch_mean", batchSum/math.Max(batchCount, 1), "count")
	o.set("server.queue_p50_us", histogramQuantile(scrapes, "_decision_latency_seconds", 0.5)*1e6, "us")
	if appends := sumSuffix(scrapes, "acserve_wal_appends_total"); appends > 0 {
		o.Extra["wal.fsyncs_per_kitem_served"] = metric{sumSuffix(scrapes, "acserve_wal_fsync_seconds_count") / appends * 1000, "count"}
	}
	o.Path = l.path
	o.Samples["ladder_iterations"] = len(values["server.ns_per_item"])
	o.Samples["overhead_pairs"] = len(ratios)
	o.Samples["open_submissions"] = len(rtt)
	o.Samples["open_sessions"] = len(scrapes)
	if self < 0 {
		o.fail("server.self_ns_per_item is %.0f ns: a rung of the ladder costs more than the served path it belongs to", self)
	}
	if o.Failed > 0 {
		o.fail("%d of %d items failed", o.Failed, o.Attempted)
	}
	return o, tr, nil
}

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// sumSuffix adds up, over every scrape, the samples whose name ends in
// suffix (the workload's route name prefixes the pipeline metrics).
func sumSuffix(scrapes []map[string]float64, suffix string) float64 {
	var sum float64
	for _, m := range scrapes {
		for k, v := range m {
			if strings.HasSuffix(k, suffix) {
				sum += v
			}
		}
	}
	return sum
}

// histogramQuantile merges the named histogram over every scrape and
// interpolates its q-quantile linearly inside the bucket holding it.
func histogramQuantile(scrapes []map[string]float64, suffix string, q float64) float64 {
	cum := map[float64]float64{}
	for _, m := range scrapes {
		for k, v := range m {
			i := strings.Index(k, suffix+`_bucket{le="`)
			if i < 0 {
				continue
			}
			le, err := strconv.ParseFloat(strings.TrimSuffix(k[i+len(suffix)+len(`_bucket{le="`):], `"}`), 64)
			if err != nil {
				continue
			}
			cum[le] += v
		}
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	target := q * cum[bounds[len(bounds)-1]]
	lo, below := 0.0, 0.0
	for _, b := range bounds {
		if cum[b] >= target {
			if math.IsInf(b, 1) {
				return lo
			}
			return lo + (b-lo)*(target-below)/math.Max(cum[b]-below, 1)
		}
		lo, below = b, cum[b]
	}
	return lo
}
