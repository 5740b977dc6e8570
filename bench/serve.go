package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"admission/internal/server"
	"admission/internal/timeseries"
)

// kit is what the phases of a run need from a workload, whatever its
// request and decision types.
type kit interface {
	// check serves stream 0 over one connection and diffs it against the
	// sequential reference.
	check() (checkResult, error)
	// session starts a fresh measured session fed stream i%streamsPerRun.
	session(i, conns int) (live, error)
	// trace measures the workload's per-layer ladder.
	trace(l *ladder) error
}

// live is one running session.
type live interface {
	closed(conns int) load
	halfTraced(tr *tracer) (l load, ratios []float64)
	open(conns int, rate float64, tr *tracer) load
	setupTime() time.Duration
	// scrape reads the server's /metrics exposition.
	scrape() (map[string]float64, error)
	stop() error
}

// mounted is one freshly built service behind its server registration.
type mounted struct {
	reg server.Registration
	// objective reads the service's running objective (nil when the
	// workload computes it from the decision lines instead).
	objective func() float64
	// release closes the service and removes anything it left on disk.
	release func() error
}

// served is one workload's serving recipe, generic over its request type
// and decision line type. Every phase of a run is built from it: the check
// session, the closed- and open-loop sessions, and the traced ladder.
type served[Req any, Dec server.WireDecision] struct {
	batch   int     // items per submission, in every phase
	streams [][]Req // seeded session streams
	// stage prepares a session outside its timed setup (the durable
	// workload copies its recovery log here); nil means nothing to stage.
	stage func(i int, check bool) (string, error)
	// mount builds the service of a session; staged is stage's result.
	mount  func(check bool, staged string) (mounted, error)
	client func(base string, conns int) *server.Client[Req, Dec]
	// reference decides a stream sequentially, without a server, and
	// returns its decision lines and objective.
	reference func(stream []Req) ([]Dec, float64, error)
	// same reports whether a served line equals the reference line.
	same func(got, want Dec) bool
	// objective computes the check session's objective from its lines
	// when the service does not keep it (nil: use mounted.objective).
	objective func(stream []Req, lines []Dec) float64
	ladder    func(l *ladder) error
}

func (w *served[Req, Dec]) session(i, conns int) (live, error) {
	s, err := w.start(i, false, conns)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (w *served[Req, Dec]) trace(l *ladder) error { return w.ladder(l) }

// session is one fresh service and server on a loopback listener.
type session[Req any, Dec server.WireDecision] struct {
	w      *served[Req, Dec]
	items  []Req
	m      mounted
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	client *server.Client[Req, Dec]
	setup  time.Duration
}

// start sets up session i: build the service, mount it on a new server,
// listen on loopback and wait until healthy. The setup time covers exactly
// those steps.
func (w *served[Req, Dec]) start(i int, check bool, conns int) (*session[Req, Dec], error) {
	var staged string
	if w.stage != nil {
		var err error
		if staged, err = w.stage(i, check); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	m, err := w.mount(check, staged)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{}, m.reg)
	if err != nil {
		return nil, errors.Join(err, m.release())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Drain(context.Background()), m.release())
	}
	s := &session[Req, Dec]{
		w:      w,
		items:  w.streams[i%len(w.streams)],
		m:      m,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		client: w.client("http://"+ln.Addr().String(), conns),
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln)
	}()
	if err := s.client.WaitHealthy(5 * time.Second); err != nil {
		return nil, errors.Join(err, s.stop())
	}
	s.setup = time.Since(t0)
	return s, nil
}

func (s *session[Req, Dec]) setupTime() time.Duration { return s.setup }

// stop drains the server, closes the listener and releases the service.
func (s *session[Req, Dec]) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	err = errors.Join(err, s.hs.Close())
	<-s.served
	s.client.CloseIdle()
	return errors.Join(err, s.m.release())
}

func (s *session[Req, Dec]) scrape() (map[string]float64, error) {
	text, err := s.client.Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	return timeseries.ParsePrometheus(text)
}

// load is what one phase of one session measured.
type load struct {
	items, decided, failed int64
	wall                   time.Duration   // first send to last decision
	latency, lag           []time.Duration // open loop only: due→decided, due→sent
}

// chunks splits the session stream into submissions.
func (s *session[Req, Dec]) chunks() [][]Req {
	var out [][]Req
	for lo := 0; lo < len(s.items); lo += s.w.batch {
		out = append(out, s.items[lo:min(lo+s.w.batch, len(s.items))])
	}
	return out
}

// submit sends one submission and counts its failures: a transport error
// fails every item of it, and so does a missing decision; a per-item error
// line fails that item.
func (s *session[Req, Dec]) submit(items []Req) ([]Dec, int64) {
	ds, err := s.client.Submit(context.Background(), items)
	if err != nil {
		return nil, int64(len(items))
	}
	var failed int64
	for _, d := range ds {
		if d.ErrorText() != "" {
			failed++
		}
	}
	return ds, failed
}

func (s *session[Req, Dec]) closed(conns int) load {
	l, _ := s.feed(conns, false)
	return l
}

// feed sends the session stream as a closed loop: each of conns
// connections sends its next submission as soon as the previous one is
// answered. With keep set the decision lines come back in stream order.
func (s *session[Req, Dec]) feed(conns int, keep bool) (load, []Dec) {
	chunks := s.chunks()
	lines := make([][]Dec, len(chunks))
	var next, decided, failed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(chunks) {
					return
				}
				ds, bad := s.submit(chunks[k])
				decided.Add(int64(len(ds)))
				failed.Add(bad)
				if keep {
					lines[k] = ds
				}
			}
		}()
	}
	wg.Wait()
	l := load{items: int64(len(s.items)), decided: decided.Load(), failed: failed.Load(), wall: time.Since(t0)}
	var all []Dec
	for _, ds := range lines {
		all = append(all, ds...)
	}
	return l, all
}

// halfTraced sends the session stream over one connection, one submission
// after another, and returns what client spans cost: after the first
// submission, which pays for cold connections and buffers, it takes the
// submissions in pairs, records a span for one of each pair chosen by a
// coin, and returns each pair's traced/untraced round-trip ratio.
// Neighbours meet the host in the same state, so a pair compares far more
// precisely than whole sessions could; the coin keeps the traced one from
// lining up with a session's GC cycles, which fall at much the same
// submissions every time.
func (s *session[Req, Dec]) halfTraced(tr *tracer) (l load, ratios []float64) {
	l.items = int64(len(s.items))
	var prev time.Duration // untraced or traced round trip of the pair's first
	var prevTraced bool
	t0 := time.Now()
	for k, items := range s.chunks() {
		first := k%2 == 1
		on := k > 0 && (first && rand.IntN(2) == 1 || !first && !prevTraced)
		sent := time.Now()
		ds, bad := s.submit(items)
		if on {
			tr.record("client.submit", "session", tr.id(), sent, time.Now())
		}
		rtt := time.Since(sent)
		switch {
		case k == 0:
		case first:
			prev, prevTraced = rtt, on
		case on:
			ratios = append(ratios, float64(rtt)/float64(prev))
		default:
			ratios = append(ratios, float64(prev)/float64(rtt))
		}
		l.decided += int64(len(ds))
		l.failed += bad
	}
	l.wall = time.Since(t0)
	return l, ratios
}

// open sends the session stream as an open loop at rate items/s:
// submission k is due at k·batch/rate after the start, whatever the state
// of earlier ones. A dispatcher hands each submission to the conns
// connections when it falls due; latency runs from the due time to the
// submission's last decision, so a stall also charges the submissions
// queued behind it, and lag records how late the dispatcher itself was.
func (s *session[Req, Dec]) open(conns int, rate float64, tr *tracer) load {
	chunks := s.chunks()
	interval := time.Duration(float64(s.w.batch) / rate * float64(time.Second))
	l := load{items: int64(len(s.items)), latency: make([]time.Duration, len(chunks)), lag: make([]time.Duration, len(chunks))}
	ids := make([]int64, len(chunks))
	for k := range ids {
		ids[k] = tr.id()
	}
	// Sized to the number of submissions, so the dispatcher never blocks
	// and a slow server cannot slow the schedule.
	work := make(chan int, len(chunks))
	var decided, failed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	due := func(k int) time.Time { return t0.Add(time.Duration(k) * interval) }
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				sent := time.Now()
				ds, bad := s.submit(chunks[k])
				done := time.Now()
				tr.record("loadgen.wait", "open", ids[k], due(k), sent)
				tr.record("client.submit", "open", ids[k], sent, done)
				l.latency[k] = done.Sub(due(k))
				decided.Add(int64(len(ds)))
				failed.Add(bad)
			}
		}()
	}
	for k := range chunks {
		sleepUntil(due(k))
		l.lag[k] = time.Since(due(k))
		work <- k
	}
	close(work)
	wg.Wait()
	l.decided, l.failed, l.wall = decided.Load(), failed.Load(), time.Since(t0)
	return l
}

// sleepUntil blocks until t. It sleeps in the kernel rather than on a Go
// timer: the runtime rounds a sub-millisecond timer wait up to a whole
// millisecond when its poller idles, which made the dispatcher run ~0.5 ms
// late at the median and put that lateness into every latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // interrupted early (EINTR): the loop sleeps the rest
	}
}

// checkResult is the outcome of the check phase.
type checkResult struct {
	objective     float64
	items, failed int64
	// divergence describes the first served line that differs from the
	// reference ("" when every line matched).
	divergence string
}

// check serves stream 0 over one connection and diffs the decision lines,
// line by line, against the sequential reference; the objectives must
// agree too.
func (w *served[Req, Dec]) check() (checkResult, error) {
	stream := w.streams[0]
	want, wantObj, err := w.reference(stream)
	if err != nil {
		return checkResult{}, fmt.Errorf("reference: %w", err)
	}
	s, err := w.start(0, true, 1)
	if err != nil {
		return checkResult{}, err
	}
	got, lines := s.feed(1, true)
	var obj float64
	if w.objective != nil {
		obj = w.objective(stream, lines)
	} else {
		// Drain first so the objective covers every decision, and read it
		// before stop releases the service.
		if err := s.srv.Drain(context.Background()); err != nil {
			return checkResult{}, errors.Join(err, s.stop())
		}
		obj = s.m.objective()
	}
	if err := s.stop(); err != nil {
		return checkResult{}, err
	}
	res := checkResult{objective: obj, items: got.items, failed: got.failed}
	res.divergence = diff(lines, want, w.same)
	if res.divergence == "" && obj != wantObj {
		res.divergence = fmt.Sprintf("objective: served %v, reference %v", obj, wantObj)
	}
	return res, nil
}

// diff describes the first line where got and want differ, or returns ""
// when they are identical.
func diff[Dec any](got, want []Dec, same func(got, want Dec) bool) string {
	for t := range min(len(got), len(want)) {
		if !same(got[t], want[t]) {
			return fmt.Sprintf("line %d: served %+v, reference %+v", t, got[t], want[t])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("served %d lines, reference %d", len(got), len(want))
	}
	return ""
}
