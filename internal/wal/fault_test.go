package wal

import (
	"errors"
	"fmt"
	"os"
	"testing"
)

// buildDir writes n admission records and closes the log cleanly,
// returning the directory for a fault to be injected into.
func buildDir(t *testing.T, n int, opts Options) string {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(mkAdm(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// chop removes n bytes from the end of path.
func chop(t *testing.T, path string, n int64) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// flip XORs one bit at offset off of path (negative off counts from the
// end).
func flip(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += int64(len(data))
	}
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncatedBytes(t *testing.T) {
	for _, cut := range []int64{1, 3, 10} {
		dir := buildDir(t, 8, testOpts())
		seg := segFiles(t, dir)[0]
		chop(t, seg, cut)
		l, err := Open(dir, testOpts())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		rec := l.Recovery()
		if rec.TornBytes == 0 || rec.TailRecords != 7 {
			t.Fatalf("cut %d: recovery = %+v", cut, rec)
		}
		if tail := collectTail(t, l); len(tail) != 7 {
			t.Fatalf("cut %d: replayed %d", cut, len(tail))
		}
		// The torn record was truncated away; the log continues at 7.
		if _, err := l.Append(mkAdm(7)); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// A second open sees a clean log.
		l2, err := Open(dir, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		if rec := l2.Recovery(); rec.TornBytes != 0 || rec.TailRecords != 8 {
			t.Fatalf("cut %d: after repair recovery = %+v", cut, rec)
		}
		l2.Close()
	}
}

// TestTornTailCRCAtEOF: a CRC mismatch on the very last record, with no
// bytes after it, is indistinguishable from a torn write and must be
// tolerated like one.
func TestTornTailCRCAtEOF(t *testing.T) {
	dir := buildDir(t, 8, testOpts())
	flip(t, segFiles(t, dir)[0], -2) // inside the final record's CRC
	l, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := l.Recovery()
	if rec.TornBytes == 0 || rec.TailRecords != 7 {
		t.Fatalf("recovery = %+v", rec)
	}
}

// TestCorruptMidFile: the same bit flip NOT at the end of the file is
// damage to an acknowledged decision and must refuse recovery.
func TestCorruptMidFile(t *testing.T) {
	dir := buildDir(t, 8, testOpts())
	seg := segFiles(t, dir)[0]
	// Locate the first record: it starts right after the magic and the
	// framed header blob.
	probe := &Log{opts: testOpts()}
	firstRec := int64(len(segMagic) + len(probe.headerBlob(0)))
	flip(t, seg, firstRec+2)
	if _, err := Open(dir, testOpts()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-file bit flip: %v", err)
	}
}

// TestCorruptNonLastSegment: a cut-short segment that has a successor can
// not be a torn tail — records after it were acknowledged.
func TestCorruptNonLastSegment(t *testing.T) {
	opts := testOpts()
	opts.SegmentBytes = 200
	dir := buildDir(t, 20, opts)
	segs := segFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("need rotation, got %d segments", len(segs))
	}
	chop(t, segs[0], 2)
	if _, err := Open(dir, opts); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn non-last segment: %v", err)
	}
}

// TestSegmentChainGap: a deleted middle segment is lost acknowledged
// history.
func TestSegmentChainGap(t *testing.T) {
	opts := testOpts()
	opts.SegmentBytes = 200
	dir := buildDir(t, 20, opts)
	segs := segFiles(t, dir)
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, opts); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("chain gap: %v", err)
	}
}

// TestTornSegmentHeader: a crash can leave a freshly rotated segment with
// even its header incomplete — cut mid-magic, or empty when the process
// died between creating the file and writing its header; recovery
// recreates the segment rather than leaving a header-less file that a
// later open would reject.
func TestTornSegmentHeader(t *testing.T) {
	for _, size := range []int64{4, 0} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) { tornSegmentHeader(t, size) })
	}
}

func tornSegmentHeader(t *testing.T, size int64) {
	opts := testOpts()
	opts.SegmentBytes = 1 // rotate before every append after the first
	dir := buildDir(t, 3, opts)
	segs := segFiles(t, dir)
	if len(segs) != 3 {
		t.Fatalf("got %d segments", len(segs))
	}
	if err := os.Truncate(segs[2], size); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := l.Recovery()
	if rec.TornBytes != size || rec.TailRecords != 2 {
		t.Fatalf("recovery = %+v", rec)
	}
	if got := l.NextSeq(); got != 2 {
		t.Fatalf("NextSeq = %d", got)
	}
	// The recreated segment is fully functional.
	if _, err := l.Append(mkAdm(2)); err != nil {
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
	if tail := collectTail(t, l2); len(tail) != 3 {
		t.Fatalf("replayed %d after header repair", len(tail))
	}
}

// TestMissingSnapshotAfterPrune: once segments are pruned the snapshot is
// the only copy of the prefix; deleting it must refuse recovery.
func TestMissingSnapshotAfterPrune(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 6)
	if err := l.WriteSnapshot(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(snapFiles(t, dir)[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOpts()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing snapshot with pruned chain: %v", err)
	}
}

// TestSnapshotHeaderDamage: a snapshot whose header fails its CRC is
// unusable, and with the chain pruned there is nothing to fall back to.
func TestSnapshotHeaderDamage(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 6)
	if err := l.WriteSnapshot(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	flip(t, snapFiles(t, dir)[0], int64(len(snapMagic))+2)
	if _, err := Open(dir, testOpts()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged snapshot header: %v", err)
	}
}

// TestSnapshotBodyDamage: the header alone passes Open's check, but the
// body CRC catches the flip during replay.
func TestSnapshotBodyDamage(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 6)
	if err := l.WriteSnapshot(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	flip(t, snapFiles(t, dir)[0], -5) // last body byte, before the CRC
	l2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	err = l2.ReplaySnapshot(func(*Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged snapshot body: %v", err)
	}
}

// TestReadOnlyKeepsTornTail: the fsck mode reports the torn tail but must
// not modify the directory.
func TestReadOnlyKeepsTornTail(t *testing.T) {
	dir := buildDir(t, 8, testOpts())
	seg := segFiles(t, dir)[0]
	chop(t, seg, 3)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.ReadOnly = true
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec := l.Recovery(); rec.TornBytes == 0 || rec.TailRecords != 7 {
		t.Fatalf("recovery = %+v", rec)
	}
	if tail := collectTail(t, l); len(tail) != 7 {
		t.Fatalf("replayed %d", len(tail))
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != st.Size() {
		t.Fatalf("read-only open changed the segment: %d -> %d", st.Size(), after.Size())
	}
}

// TestStrayTempSwept: leftovers of a crashed atomic snapshot write are
// swept at open and never mistaken for chain files.
func TestStrayTempSwept(t *testing.T) {
	dir := buildDir(t, 4, testOpts())
	stray := dir + "/.atomic-tmp-snap-0000000000000004.snap-123"
	if err := os.WriteFile(stray, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray temp survived Open")
	}
	if rec := l.Recovery(); rec.TailRecords != 4 || rec.SnapshotSeq != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
}
