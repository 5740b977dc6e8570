package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"admission/internal/wire"
)

// testOpts is the identity every happy-path test opens with.
func testOpts() Options {
	return Options{Kind: KindAdmission, Fingerprint: "engine/test-fp-v1"}
}

// mkAdm builds a deterministic admission record carrying sequence seq.
func mkAdm(seq int) *Record {
	rec := &Record{
		Kind:         KindAdmission,
		AdmissionReq: wire.AdmissionRequest{Edges: []int{seq % 7, seq%7 + 9}, Cost: 1 + float64(seq%5)},
		AdmissionDec: wire.AdmissionDecision{ID: seq, Accepted: seq%3 != 0},
	}
	if seq > 0 && seq%4 == 0 {
		rec.AdmissionDec.Preempted = []int{seq - 1}
	}
	return rec
}

// mkCover builds a deterministic cover record carrying sequence seq.
func mkCover(seq int) *Record {
	rec := &Record{
		Kind:     KindCover,
		Element:  seq % 11,
		CoverDec: wire.CoverDecision{Seq: seq, Element: seq % 11, Arrival: 1 + seq/11},
	}
	if seq%3 == 0 {
		rec.CoverDec.NewSets = []int{seq % 5}
		rec.CoverDec.AddedCost = 1.5
	}
	return rec
}

// mkCluster builds a deterministic cluster record carrying sequence seq,
// cycling through the four operation codes.
func mkCluster(seq int) *Record {
	rec := &Record{
		Kind:         KindCluster,
		ClusterOp:    byte(seq % 4),
		AdmissionDec: wire.AdmissionDecision{ID: seq, Accepted: seq%3 != 0, CrossShard: seq%4 != 0},
	}
	switch rec.ClusterOp {
	case wire.ClusterOpOffer:
		rec.AdmissionReq = wire.AdmissionRequest{Edges: []int{seq % 5, seq%5 + 3}, Cost: 1 + float64(seq%3)}
	case wire.ClusterOpReserve:
		rec.ClusterTx = uint64(100 + seq)
		rec.AdmissionReq = wire.AdmissionRequest{Edges: []int{seq % 7}}
	default: // commit, abort: tx only
		rec.ClusterTx = uint64(100 + seq)
	}
	return rec
}

// appendN appends admission records [from, from+n) and syncs.
func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := l.Append(mkAdm(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

// collectTail replays the tail into a slice.
func collectTail(t *testing.T, l *Log) []Record {
	t.Helper()
	var got []Record
	if err := l.ReplayTail(func(rec *Record) error {
		got = append(got, *rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(m)
	return m
}

func snapFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(m)
	return m
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range []*Record{
		mkAdm(0), mkAdm(4), mkAdm(12), mkCover(0), mkCover(7),
		mkCluster(0), mkCluster(1), mkCluster(2), mkCluster(3),
	} {
		framed, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		v, n := uvarint(framed)
		if n <= 0 || int(v)+n+4 != len(framed) {
			t.Fatalf("bad framing: len %d, uvarint (%d, %d)", len(framed), v, n)
		}
		payload := framed[n : n+int(v)]
		var got Record
		if err := DecodeRecord(payload, &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Seq() != rec.Seq() || got.Kind != rec.Kind {
			t.Fatalf("decoded seq %d kind %v, want %d %v", got.Seq(), got.Kind, rec.Seq(), rec.Kind)
		}
		// Canonical: re-encoding the decoded record reproduces the payload.
		re, err := appendPayload(nil, &got)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(re, payload) {
			t.Fatalf("not canonical:\n % x\n % x", payload, re)
		}
	}
}

func TestAppendSyncReplayReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rec := l.Recovery(); rec != (Recovery{}) {
		t.Fatalf("fresh dir recovery = %+v", rec)
	}
	appendN(t, l, 0, 10)
	if got := l.NextSeq(); got != 10 {
		t.Fatalf("NextSeq = %d", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	want := Recovery{TailRecords: 10}
	if got := l2.Recovery(); got != want {
		t.Fatalf("recovery = %+v, want %+v", got, want)
	}
	got := collectTail(t, l2)
	if len(got) != 10 {
		t.Fatalf("replayed %d records", len(got))
	}
	for i, rec := range got {
		if rec.Seq() != int64(i) {
			t.Fatalf("record %d has seq %d", i, rec.Seq())
		}
		wantPayload, _ := appendPayload(nil, mkAdm(i))
		gotPayload, _ := appendPayload(nil, &rec)
		if !reflect.DeepEqual(gotPayload, wantPayload) {
			t.Fatalf("record %d differs after reopen", i)
		}
	}
	// Appending continues exactly where the log left off.
	appendN(t, l2, 10, 3)
	if got := l2.NextSeq(); got != 13 {
		t.Fatalf("NextSeq after continue = %d", got)
	}
}

func TestDurableWatermark(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.DurableSeq(); got != 0 {
		t.Fatalf("durable at open = %d", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(mkAdm(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.DurableSeq(); got != 0 {
		t.Fatalf("durable before sync = %d", got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableSeq(); got != 3 {
		t.Fatalf("durable after sync = %d", got)
	}
	// A second Sync with nothing new is a coalesced no-op.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendRejectsSeqGapAndPoisons(t *testing.T) {
	l, err := Open(t.TempDir(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 2)
	if _, err := l.Append(mkAdm(5)); err == nil {
		t.Fatal("gap accepted")
	}
	// The log is poisoned: a gap means some path bypassed it.
	if _, err := l.Append(mkAdm(2)); err == nil {
		t.Fatal("append succeeded on a poisoned log")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync succeeded on a poisoned log")
	}
}

func TestAppendRejectsWrongKind(t *testing.T) {
	l, err := Open(t.TempDir(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(mkCover(0)); err == nil {
		t.Fatal("cover record accepted by an admission log")
	}
	// Kind mismatch is the caller's bug, not disk damage: not sticky.
	if _, err := l.Append(mkAdm(0)); err != nil {
		t.Fatalf("log poisoned by a kind mismatch: %v", err)
	}
}

func TestRotationSplitsSegments(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 200
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := segFiles(t, dir); len(segs) < 3 {
		t.Fatalf("expected rotation to split segments, got %d", len(segs))
	}
	l2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collectTail(t, l2)
	if len(got) != 20 {
		t.Fatalf("replayed %d of 20 across segments", len(got))
	}
	for i, rec := range got {
		if rec.Seq() != int64(i) {
			t.Fatalf("record %d has seq %d", i, rec.Seq())
		}
	}
}

func TestSnapshotCompactsAndPrunes(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 200 // several segments before the snapshot
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if err := l.WriteSnapshot(0xD1CE); err != nil {
		t.Fatal(err)
	}
	if got := l.SnapshotSeq(); got != 10 {
		t.Fatalf("SnapshotSeq = %d", got)
	}
	if segs, snaps := segFiles(t, dir), snapFiles(t, dir); len(segs) != 1 || len(snaps) != 1 {
		t.Fatalf("after snapshot: %d segments, %d snapshots", len(segs), len(snaps))
	}
	appendN(t, l, 10, 5)
	if got := l.RecordsSinceSnapshot(); got != 5 {
		t.Fatalf("RecordsSinceSnapshot = %d", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := Recovery{SnapshotSeq: 10, SnapshotDigest: 0xD1CE, TailRecords: 5}
	if got := l2.Recovery(); got != want {
		t.Fatalf("recovery = %+v, want %+v", got, want)
	}
	var reqs []Record
	if err := l2.ReplaySnapshot(func(rec *Record) error {
		reqs = append(reqs, *rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 10 {
		t.Fatalf("snapshot replayed %d requests", len(reqs))
	}
	for i, req := range reqs {
		orig := mkAdm(i)
		if req.Kind != KindAdmission || !reflect.DeepEqual(req.AdmissionReq, orig.AdmissionReq) {
			t.Fatalf("snapshot entry %d = %+v", i, req)
		}
	}
	tail := collectTail(t, l2)
	if len(tail) != 5 || tail[0].Seq() != 10 || tail[4].Seq() != 14 {
		t.Fatalf("tail = %d records, seqs %v", len(tail), tail)
	}
	// A second snapshot supersedes the first entirely.
	if err := l2.WriteSnapshot(0xBEEF); err != nil {
		t.Fatal(err)
	}
	if segs, snaps := segFiles(t, dir), snapFiles(t, dir); len(segs) != 1 || len(snaps) != 1 {
		t.Fatalf("after second snapshot: %d segments, %d snapshots", len(segs), len(snaps))
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	want = Recovery{SnapshotSeq: 15, SnapshotDigest: 0xBEEF}
	if got := l3.Recovery(); got != want {
		t.Fatalf("recovery after second snapshot = %+v, want %+v", got, want)
	}
}

func TestSnapshotNoopWhenNothingNew(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 4)
	if err := l.WriteSnapshot(1); err != nil {
		t.Fatal(err)
	}
	before := snapFiles(t, dir)
	if err := l.WriteSnapshot(2); err != nil {
		t.Fatal(err)
	}
	if after := snapFiles(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("no-op snapshot changed files: %v -> %v", before, after)
	}
}

// TestCrashBetweenSnapshotAndRotation reconstructs the state a crash
// leaves when the snapshot file landed but the segment rotation and
// pruning did not: the old segment still holds records the snapshot
// already covers. Recovery must use the snapshot and skip the overlap.
func TestCrashBetweenSnapshotAndRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	oldSeg := segFiles(t, dir)[0]
	oldBytes, err := os.ReadFile(oldSeg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(0xF00D); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Undo the rotation+prune half: only the snapshot "survived the crash".
	for _, seg := range segFiles(t, dir) {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(oldSeg, oldBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	want := Recovery{SnapshotSeq: 10, SnapshotDigest: 0xF00D}
	if got := l2.Recovery(); got != want {
		t.Fatalf("recovery = %+v, want %+v", got, want)
	}
	if tail := collectTail(t, l2); len(tail) != 0 {
		t.Fatalf("tail replayed %d records the snapshot already covers", len(tail))
	}
	if got := l2.NextSeq(); got != 10 {
		t.Fatalf("NextSeq = %d", got)
	}
	appendN(t, l2, 10, 2)
}

func TestReadOnly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 6)
	if err := l.WriteSnapshot(9); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 6, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	opts := testOpts()
	opts.ReadOnly = true
	ro, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := ro.Append(mkAdm(8)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Append = %v", err)
	}
	if err := ro.Sync(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Sync = %v", err)
	}
	if err := ro.WriteSnapshot(1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("WriteSnapshot = %v", err)
	}
	count := 0
	if err := ro.ReplaySnapshot(func(*Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if tail := collectTail(t, ro); count != 6 || len(tail) != 2 {
		t.Fatalf("read-only replay: snapshot %d, tail %d", count, len(tail))
	}
}

func TestIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wrongKind := testOpts()
	wrongKind.Kind = KindCover
	if _, err := Open(dir, wrongKind); !errors.Is(err, ErrMismatch) {
		t.Fatalf("kind mismatch = %v", err)
	}
	wrongFP := testOpts()
	wrongFP.Fingerprint = "engine/other-config"
	if _, err := Open(dir, wrongFP); !errors.Is(err, ErrMismatch) {
		t.Fatalf("fingerprint mismatch = %v", err)
	}
}

func TestClosed(t *testing.T) {
	l, err := Open(t.TempDir(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close = %v", err)
	}
	if _, err := l.Append(mkAdm(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after close = %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close = %v", err)
	}
	if err := l.WriteSnapshot(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteSnapshot after close = %v", err)
	}
}

// TestClusterKindEndToEnd runs a KindCluster log through append, reopen,
// snapshot compaction, and replay: every operation code must survive both
// the tail (full records) and the snapshot (request halves) verbatim.
func TestClusterKindEndToEnd(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Kind: KindCluster, Fingerprint: "cluster/test-fp"}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := l.Append(mkCluster(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(0xCAFE); err != nil {
		t.Fatal(err)
	}
	for i := 12; i < 16; i++ {
		if _, err := l.Append(mkCluster(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var reqs []Record
	if err := l2.ReplaySnapshot(func(rec *Record) error {
		reqs = append(reqs, *rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 12 {
		t.Fatalf("snapshot replayed %d cluster ops", len(reqs))
	}
	for i, req := range reqs {
		orig := mkCluster(i)
		if req.Kind != KindCluster || req.ClusterOp != orig.ClusterOp || req.ClusterTx != orig.ClusterTx ||
			!reflect.DeepEqual(req.AdmissionReq, orig.AdmissionReq) {
			t.Fatalf("snapshot entry %d = %+v, want op %d tx %d req %+v",
				i, req, orig.ClusterOp, orig.ClusterTx, orig.AdmissionReq)
		}
	}
	tail := collectTail(t, l2)
	if len(tail) != 4 {
		t.Fatalf("tail replayed %d records", len(tail))
	}
	for i, rec := range tail {
		wantPayload, _ := appendPayload(nil, mkCluster(12+i))
		gotPayload, _ := appendPayload(nil, &rec)
		if !reflect.DeepEqual(gotPayload, wantPayload) {
			t.Fatalf("tail record %d differs after reopen", i)
		}
	}
}

func TestCoverKindEndToEnd(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Kind: KindCover, Fingerprint: "cover/test-fp"}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := l.Append(mkCover(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(0xC0FE); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var reqs []Record
	if err := l2.ReplaySnapshot(func(rec *Record) error {
		reqs = append(reqs, *rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 8 {
		t.Fatalf("snapshot replayed %d cover arrivals", len(reqs))
	}
	for i, req := range reqs {
		if req.Kind != KindCover || req.Element != i%11 {
			t.Fatalf("entry %d = %+v", i, req)
		}
	}
}
