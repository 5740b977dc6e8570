package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"admission/internal/core"
	"admission/internal/coverengine"
	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/setcover"
	"admission/internal/wal"
)

// walEngine builds the admission engine every durability test uses; the
// configuration (and hence the fingerprint) is fixed so logs recover
// across engine instances.
func walEngine(t testing.TB, caps []int) *engine.Engine {
	t.Helper()
	acfg := core.DefaultConfig()
	acfg.Seed = 5
	eng, err := engine.New(caps, engine.Config{Shards: 2, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// durableAdmission opens (recovering if non-empty) the log in dir and
// stands up a Server with the engine mounted durably. The caller owns the
// returned pieces; cleanup closes them in the right order.
func durableAdmission(t *testing.T, caps []int, dir string, snapEvery int64) (*engine.Engine, *wal.Log, *Server, *httptest.Server, RecoveryInfo) {
	t.Helper()
	eng := walEngine(t, caps)
	log, err := wal.Open(dir, wal.Options{Kind: wal.KindAdmission, Fingerprint: eng.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	info, err := RecoverAdmission(log, eng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{}, AdmissionDurable(eng, log, DurableOptions{SnapshotEvery: snapEvery, Replay: info}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Drain(context.Background())
		_ = log.Close()
		eng.Close()
	})
	return eng, log, s, ts, info
}

// submitAll drives items through one connection in fixed-size batches and
// returns the decision lines in submission order.
func submitAll[Req any, Dec any](t *testing.T, c *Client[Req, Dec], items []Req) []Dec {
	t.Helper()
	var out []Dec
	for at := 0; at < len(items); at += 40 {
		end := at + 40
		if end > len(items) {
			end = len(items)
		}
		ds, err := c.Submit(context.Background(), items[at:end])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ds...)
	}
	return out
}

// wantAdmissionLines converts a golden direct-engine decision stream into
// the wire lines the HTTP clients yield.
func wantAdmissionLines(ds []engine.Decision) []DecisionJSON {
	out := make([]DecisionJSON, len(ds))
	for i, d := range ds {
		out[i] = DecisionJSON{ID: d.ID, Accepted: d.Accepted, CrossShard: d.CrossShard, Preempted: d.Preempted}
		if d.Err != nil {
			out[i].Error = d.Err.Error()
		}
	}
	return out
}

func checkAdmissionLines(t *testing.T, got, want []DecisionJSON, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Accepted != w.Accepted || g.CrossShard != w.CrossShard ||
			!slices.Equal(g.Preempted, w.Preempted) || g.Error != w.Error {
			t.Fatalf("%s: line %d diverged: got %+v, want %+v", what, i, g, w)
		}
	}
}

// goldenAdmission runs the reference uninterrupted stream directly on a
// fresh engine and returns its decisions plus the state digest after each
// requested prefix length.
func goldenAdmission(t *testing.T, caps []int, reqs []problem.Request, marks ...int) ([]engine.Decision, []uint64) {
	t.Helper()
	ref := walEngine(t, caps)
	defer ref.Close()
	var ds []engine.Decision
	digests := make([]uint64, 0, len(marks))
	at := 0
	for _, m := range marks {
		out, err := ref.SubmitBatch(context.Background(), reqs[at:m])
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, out...)
		digests = append(digests, ref.StateDigest())
		at = m
	}
	return ds, digests
}

// labeledMetricValue extracts one labelled sample value from Prometheus
// text.
func labeledMetricValue(t *testing.T, text, name, labels string) float64 {
	t.Helper()
	prefix := name + "{" + labels + "} "
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, prefix)), 64)
			if err != nil {
				t.Fatalf("parsing %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s{%s} not found in:\n%s", name, labels, text)
	return 0
}

// TestDurableLoopbackMatchesPlain: turning the WAL on must not perturb a
// single decision — the durable pipeline serves the same stream as the
// in-memory one — and the WAL counters on /metrics must reconcile exactly
// with the engine's ledger.
func TestDurableLoopbackMatchesPlain(t *testing.T) {
	ins := testInstance(t, 31, 600)
	golden, _ := goldenAdmission(t, ins.Capacities, ins.Requests, len(ins.Requests))
	want := wantAdmissionLines(golden)

	eng, log, _, ts, _ := durableAdmission(t, ins.Capacities, t.TempDir(), 0)
	c := NewAdmissionClient(ts.URL, 1)
	got := submitAll(t, c, ins.Requests)
	checkAdmissionLines(t, got, want, "durable loopback")

	if n := log.NextSeq(); n != int64(len(ins.Requests)) {
		t.Fatalf("logged %d decisions, want %d", n, len(ins.Requests))
	}
	// Every decision was acknowledged, so the group-commit watermark must
	// cover the whole log.
	if d := log.DurableSeq(); d != int64(len(ins.Requests)) {
		t.Fatalf("durable watermark %d, want %d", d, len(ins.Requests))
	}

	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Snapshot()
	if got := metricValue(t, text, "acserve_wal_appends_total"); got != float64(st.Requests) {
		t.Fatalf("wal appends %v, engine served %d", got, st.Requests)
	}
	if got := metricValue(t, text, "acserve_wal_bytes_total"); got <= 0 {
		t.Fatalf("wal bytes %v, want > 0", got)
	}
	if got := metricValue(t, text, "acserve_wal_fsync_seconds_count"); got < 1 {
		t.Fatalf("wal fsync count %v, want >= 1", got)
	}
	if got := metricValue(t, text, "acserve_wal_fsync_seconds_count"); got > float64(st.Requests) {
		t.Fatalf("wal fsync count %v exceeds one per decision (%d)", got, st.Requests)
	}
	if got := labeledMetricValue(t, text, "acserve_wal_replay_records", `workload="admission"`); got != 0 {
		t.Fatalf("replay records %v on a fresh log, want 0", got)
	}
	if got := labeledMetricValue(t, text, "acserve_snapshot_last_unix", `workload="admission"`); got != 0 {
		t.Fatalf("snapshot gauge %v with snapshots disabled, want 0", got)
	}
}

// TestDurableRecoveryContinuesIdentically is the crash-recovery identity
// property at the server level: serve a prefix durably, tear everything
// down, recover a fresh engine from the log (snapshot + tail), and the
// recovered server's decisions on the remaining traffic are byte-identical
// to an uninterrupted run — as is the final engine state digest.
func TestDurableRecoveryContinuesIdentically(t *testing.T) {
	ins := testInstance(t, 37, 800)
	half := 400
	golden, digests := goldenAdmission(t, ins.Capacities, ins.Requests, half, len(ins.Requests))
	want := wantAdmissionLines(golden)
	dir := t.TempDir()

	eng1, log1, s1, ts1, _ := durableAdmission(t, ins.Capacities, dir, 150)
	got := submitAll(t, NewAdmissionClient(ts1.URL, 1), ins.Requests[:half])
	checkAdmissionLines(t, got, want[:half], "first run")
	ts1.Close()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}
	eng1.Close()

	// SnapshotEvery 150 over 400 decisions must have compacted at least
	// once, so recovery exercises snapshot + tail, not tail alone.
	eng2, _, _, ts2, info := durableAdmission(t, ins.Capacities, dir, 150)
	if info.SnapshotSeq == 0 {
		t.Fatal("no snapshot was taken during the first run")
	}
	if total := info.SnapshotSeq + info.TailRecords; total != int64(half) {
		t.Fatalf("recovered %d decisions (snapshot %d + tail %d), want %d",
			total, info.SnapshotSeq, info.TailRecords, half)
	}
	if d := eng2.StateDigest(); d != digests[0] {
		t.Fatalf("recovered digest %016x, uninterrupted run had %016x", d, digests[0])
	}
	got = submitAll(t, NewAdmissionClient(ts2.URL, 1), ins.Requests[half:])
	checkAdmissionLines(t, got, want[half:], "recovered run")
	if d := eng2.StateDigest(); d != digests[1] {
		t.Fatalf("final digest %016x, uninterrupted run had %016x", d, digests[1])
	}
}

// TestDurableRecoveryAfterTornTail: a crash mid-append leaves a torn final
// record; recovery truncates it (those decisions were never acknowledged)
// and the recovered server re-serves from the durable prefix, identically.
func TestDurableRecoveryAfterTornTail(t *testing.T) {
	ins := testInstance(t, 41, 500)
	half := 300
	golden, digests := goldenAdmission(t, ins.Capacities, ins.Requests, len(ins.Requests))
	want := wantAdmissionLines(golden)
	dir := t.TempDir()

	eng1, log1, s1, ts1, _ := durableAdmission(t, ins.Capacities, dir, 120)
	submitAll(t, NewAdmissionClient(ts1.URL, 1), ins.Requests[:half])
	ts1.Close()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}
	eng1.Close()

	// Tear the tail: drop the last 3 bytes of the newest segment, cutting
	// the final record's CRC short exactly as an interrupted write would.
	seg := newestSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	eng2, log2, _, ts2, info := durableAdmission(t, ins.Capacities, dir, 120)
	if info.TornBytes == 0 {
		t.Fatal("recovery did not report the torn tail")
	}
	resumeAt := log2.NextSeq()
	if resumeAt >= int64(half) || resumeAt == 0 {
		t.Fatalf("recovered to seq %d, want a non-empty proper prefix of %d", resumeAt, half)
	}
	// The recovered engine now re-serves everything from the durable
	// prefix on — including the requests whose decisions were torn away —
	// and must reproduce the uninterrupted stream exactly.
	got := submitAll(t, NewAdmissionClient(ts2.URL, 1), ins.Requests[resumeAt:])
	checkAdmissionLines(t, got, want[resumeAt:], "post-torn-tail run")
	if d := eng2.StateDigest(); d != digests[0] {
		t.Fatalf("final digest %016x, uninterrupted run had %016x", d, digests[0])
	}
}

// TestDurableCoverRecovery runs the same crash-recovery identity for the
// set cover workload, including refused arrivals (saturated elements),
// which consume sequence numbers and are logged and replayed like any
// other decision.
func TestDurableCoverRecovery(t *testing.T) {
	sins := &setcover.Instance{
		N: 9,
		Sets: [][]int{
			{0, 1, 2}, {2, 3, 4}, {4, 5, 6}, {6, 7, 8}, {0, 8}, {1, 3, 5, 7},
		},
		Costs: []float64{2, 1, 3, 1, 2, 4},
	}
	// Arrivals hammer a few elements past their degree to force saturated
	// per-item errors into the log.
	var arrivals []int
	for i := 0; i < 300; i++ {
		arrivals = append(arrivals, i%9, (i*5+2)%9, 0)
	}
	half := len(arrivals) / 2

	newCov := func() *coverengine.Engine {
		cov, err := coverengine.New(sins, coverengine.Config{Shards: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return cov
	}
	ref := newCov()
	defer ref.Close()
	goldDs, err := ref.SubmitBatch(context.Background(), arrivals)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]CoverDecisionJSON, len(goldDs))
	for i, d := range goldDs {
		want[i] = CoverDecisionJSON{Seq: d.Seq, Element: d.Element, Arrival: d.Arrival, NewSets: d.NewSets, AddedCost: d.AddedCost}
		if d.Err != nil {
			want[i].Error = d.Err.Error()
		}
	}
	var nErrs int
	for _, d := range goldDs {
		if d.Err != nil {
			nErrs++
		}
	}
	if nErrs == 0 {
		t.Fatal("test instance produced no refused arrivals; tighten it")
	}
	goldDigest := ref.StateDigest()

	dir := t.TempDir()
	serve := func(cov *coverengine.Engine) (*wal.Log, *Server, *httptest.Server, RecoveryInfo) {
		log, err := wal.Open(dir, wal.Options{Kind: wal.KindCover, Fingerprint: cov.Fingerprint()})
		if err != nil {
			t.Fatal(err)
		}
		info, err := recoverCover(log, cov)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{}, coverDurable(cov, log, DurableOptions{SnapshotEvery: 100, Replay: info}))
		if err != nil {
			t.Fatal(err)
		}
		return log, s, httptest.NewServer(s.Handler()), info
	}

	cov1 := newCov()
	log1, s1, ts1, _ := serve(cov1)
	got := submitAll(t, NewCoverClient(ts1.URL, 1), arrivals[:half])
	for i := range got {
		w := want[i]
		if got[i].Seq != w.Seq || got[i].Element != w.Element || got[i].Arrival != w.Arrival ||
			!slices.Equal(got[i].NewSets, w.NewSets) || got[i].AddedCost != w.AddedCost || got[i].Error != w.Error {
			t.Fatalf("first run line %d diverged: got %+v, want %+v", i, got[i], w)
		}
	}
	ts1.Close()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}
	cov1.Close()

	cov2 := newCov()
	log2, s2, ts2, info := serve(cov2)
	defer func() {
		ts2.Close()
		_ = s2.Drain(context.Background())
		_ = log2.Close()
		cov2.Close()
	}()
	if info.SnapshotSeq == 0 || info.SnapshotSeq+info.TailRecords != int64(half) {
		t.Fatalf("recovery %+v, want snapshot + tail = %d with a snapshot present", info, half)
	}
	got = submitAll(t, NewCoverClient(ts2.URL, 1), arrivals[half:])
	for i := range got {
		w := want[half+i]
		if got[i].Seq != w.Seq || got[i].Element != w.Element || got[i].Arrival != w.Arrival ||
			!slices.Equal(got[i].NewSets, w.NewSets) || got[i].AddedCost != w.AddedCost || got[i].Error != w.Error {
			t.Fatalf("recovered run line %d diverged: got %+v, want %+v", half+i, got[i], w)
		}
	}
	if d := cov2.StateDigest(); d != goldDigest {
		t.Fatalf("final digest %016x, uninterrupted run had %016x", d, goldDigest)
	}
}

// TestDurableFailStop: once the log cannot append (here: closed under the
// server, standing in for a dead disk), the pipeline refuses to serve —
// every subsequent submission gets error lines, never an unlogged
// decision.
func TestDurableFailStop(t *testing.T) {
	ins := testInstance(t, 43, 60)
	_, log, _, ts, _ := durableAdmission(t, ins.Capacities, t.TempDir(), 0)
	c := NewAdmissionClient(ts.URL, 1)
	if _, err := c.Submit(context.Background(), ins.Requests[:20]); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err := c.Submit(context.Background(), ins.Requests[20:40])
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if !strings.Contains(d.Error, "wal") {
			t.Fatalf("line %d after log failure: %+v, want a wal error line", i, d)
		}
	}
}

// TestDurableConcurrentSubmissions pins the durable decision path under
// concurrent handlers. Concurrent leg: eight goroutines send one-item and
// BatchSize+1-item submissions to a durable mount that snapshots every few
// decisions, while another goroutine triggers admin snapshots; after Drain
// and Finish the log must recover exactly the acknowledged decisions, into
// an engine whose digest equals the served one — which fails if a handler
// appends outside the decision lock (the log's order would not be the
// engine's, or a snapshot would cover an unlogged decision).
// One-connection leg: with automatic snapshots off, every acknowledged
// submission must leave the whole log durable — which fails if a handler
// releases its decisions before a Sync covers them.
func TestDurableConcurrentSubmissions(t *testing.T) {
	const batch = 16
	ins := testInstance(t, 53, 400)
	ctx := context.Background()

	t.Run("concurrent", func(t *testing.T) {
		dir := t.TempDir()
		eng := walEngine(t, ins.Capacities)
		node := AdmissionNode(eng)
		log, info, err := node.Open(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{BatchSize: batch, AdminToken: testToken},
			node.Mount(log, DurableOptions{SnapshotEvery: 40, Replay: info}))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		wc := NewAdmissionWireClient(ts.URL, 8)

		const workers, rounds = 8, 30
		var (
			wg    sync.WaitGroup
			acked atomic.Int64
			snaps atomic.Int64
		)
		errs := make(chan error, workers+1)
		stop := make(chan struct{})
		snapDone := make(chan struct{})
		go func() {
			defer close(snapDone)
			for {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/admin/v1/snapshot", nil)
				if err != nil {
					errs <- err
					return
				}
				req.Header.Set("Authorization", "Bearer "+testToken)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("admin snapshot: status %d", resp.StatusCode)
					return
				}
				snaps.Add(1)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					n := 1
					if (w+r)%4 == 0 {
						n = batch + 1
					}
					lo := (w*rounds + r) % (len(ins.Requests) - n)
					ds, err := wc.Submit(ctx, ins.Requests[lo:lo+n])
					if err != nil {
						errs <- err
						return
					}
					for i, d := range ds {
						if d.Error != "" {
							errs <- fmt.Errorf("worker %d round %d line %d: %s", w, r, i, d.Error)
							return
						}
					}
					acked.Add(int64(len(ds)))
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		<-snapDone
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if snaps.Load() == 0 {
			t.Fatal("no admin snapshot was served during the run")
		}
		ts.Close()
		drainErr := s.Drain(ctx)
		if drainErr != nil {
			t.Fatal(drainErr)
		}
		digest := eng.StateDigest()
		if err := node.Finish(log, drainErr); err != nil {
			t.Fatal(err)
		}
		node.Close()

		node2 := AdmissionNode(walEngine(t, ins.Capacities))
		defer node2.Close()
		log2, info2, err := node2.Open(dir, true)
		if err != nil {
			t.Fatalf("recovering the served log: %v", err)
		}
		defer log2.Close()
		if got, want := info2.SnapshotSeq+info2.TailRecords, acked.Load(); got != want {
			t.Fatalf("recovered %d decisions (snapshot %d + tail %d), acknowledged %d",
				got, info2.SnapshotSeq, info2.TailRecords, want)
		}
		if got := node2.StateDigest(); got != digest {
			t.Fatalf("recovered digest %016x, served engine ended at %016x", got, digest)
		}
	})

	t.Run("one connection", func(t *testing.T) {
		_, log, _, ts, _ := durableAdmission(t, ins.Capacities, t.TempDir(), 0)
		c := NewAdmissionClient(ts.URL, 1)
		for at, r := 0, 0; at < len(ins.Requests); r++ {
			n := 1
			if r%2 == 0 {
				n = DefaultBatchSize + 1
			}
			end := min(at+n, len(ins.Requests))
			if _, err := c.Submit(ctx, ins.Requests[at:end]); err != nil {
				t.Fatal(err)
			}
			if d, next := log.DurableSeq(), log.NextSeq(); d != next || next != int64(end) {
				t.Fatalf("after acknowledging %d decisions: durable watermark %d, next seq %d", end, d, next)
			}
			at = end
		}
	})
}

// TestDurableRegistrationValidation pins the Register-time contract.
func TestDurableRegistrationValidation(t *testing.T) {
	ins := testInstance(t, 47, 10)
	eng := walEngine(t, ins.Capacities)
	defer eng.Close()
	codec := admissionCodec(eng)
	codec.Durability = &Durability[problem.Request, engine.Decision]{} // all hooks missing
	if _, err := New(Config{}, Register(WorkloadAdmission, eng, codec)); err == nil ||
		!strings.Contains(err.Error(), "durability") {
		t.Fatalf("incomplete durability accepted: %v", err)
	}
}

// newestSegment returns the path of the highest-numbered segment file.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no segment files")
	}
	sort.Strings(segs)
	return filepath.Join(dir, segs[len(segs)-1])
}
