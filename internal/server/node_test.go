package server

import (
	"context"
	"net"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"admission/internal/engine"
	"admission/internal/problem"
)

// parkedEngine is an engine as the pipeline sees it whose next batch call,
// once armed, decides and then waits for release before returning: the
// deciding handler parks between the engine's decision and the WAL append.
type parkedEngine struct {
	*engine.Engine
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (p *parkedEngine) SubmitBatchPrevalidated(ctx context.Context, reqs []problem.Request) ([]engine.Decision, error) {
	ds, err := p.Engine.SubmitBatchPrevalidated(ctx, reqs)
	if p.armed.CompareAndSwap(true, false) {
		close(p.parked)
		<-p.release
	}
	return ds, err
}

// TestFinishAfterFailedDrainKeepsLogRecoverable: a drain that times out
// while a handler holds a batch the engine decided but the log never
// appended must not be followed by a shutdown snapshot. A snapshot stamped
// then would carry a digest covering the parked batch over a prefix that
// lacks it, and the next start would refuse recovery; without one, the
// next start replays the logged tail.
func TestFinishAfterFailedDrainKeepsLogRecoverable(t *testing.T) {
	ins := testInstance(t, 23, 120)
	dir := t.TempDir()
	eng := walEngine(t, ins.Capacities)
	node := AdmissionNode(eng)
	log, _, err := node.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	pk := &parkedEngine{Engine: eng, parked: make(chan struct{}), release: make(chan struct{})}
	codec := logged(admissionCodec(eng), log, DurableOptions{}, eng.StateDigest, recordAdmission)
	s, err := New(Config{}, Register(WorkloadAdmission, pk, codec))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	c := NewAdmissionClient(ts.URL, 2)
	submitAll(t, c, ins.Requests[:80])

	pk.armed.Store(true)
	late := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), ins.Requests[80:])
		late <- err
	}()
	<-pk.parked
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	drainErr := s.Drain(ctx)
	cancel()
	if drainErr == nil {
		t.Fatal("drain completed while a handler held an unlogged batch")
	}
	if err := node.Finish(log, drainErr); err != nil {
		t.Fatal(err)
	}
	// The parked batch now meets a closed log and fails; nothing is lost
	// that was acknowledged.
	close(pk.release)
	<-late
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	eng.Close()

	node2 := AdmissionNode(walEngine(t, ins.Capacities))
	defer node2.Close()
	log2, info, err := node2.Open(dir, false)
	if err != nil {
		t.Fatalf("restart after a failed drain: %v", err)
	}
	defer log2.Close()
	if info.SnapshotSeq != 0 || info.TailRecords != 80 {
		t.Fatalf("recovered %d snapshot + %d tail decisions, want 0 + 80 logged", info.SnapshotSeq, info.TailRecords)
	}
}

// TestRunFinishSnapshotsAfterCleanDrain: Run serves a mounted node until
// its context is cancelled and reports a clean drain; Finish then stamps a
// shutdown snapshot, so the next Open replays the snapshot prefix and no
// tail.
func TestRunFinishSnapshotsAfterCleanDrain(t *testing.T) {
	ins := testInstance(t, 29, 60)
	dir := t.TempDir()
	node := AdmissionNode(walEngine(t, ins.Capacities))
	log, info, err := node.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{}, node.Mount(log, DurableOptions{Replay: info}))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- s.Run(ctx, ln, 10*time.Second) }()
	c := NewAdmissionClient("http://"+ln.Addr().String(), 1)
	submitAll(t, c, ins.Requests)
	c.CloseIdle()
	cancel()
	runErr := <-ran
	if runErr != nil {
		t.Fatalf("Run after a clean drain: %v", runErr)
	}
	if err := node.Finish(log, runErr); err != nil {
		t.Fatal(err)
	}
	digest := node.StateDigest()
	node.Close()

	node2 := AdmissionNode(walEngine(t, ins.Capacities))
	defer node2.Close()
	log2, info2, err := node2.Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if info2.SnapshotSeq != int64(len(ins.Requests)) || info2.TailRecords != 0 {
		t.Fatalf("recovered %d snapshot + %d tail decisions, want %d + 0", info2.SnapshotSeq, info2.TailRecords, len(ins.Requests))
	}
	if got := node2.StateDigest(); got != digest {
		t.Fatalf("recovered digest %016x, served run ended at %016x", got, digest)
	}
}
