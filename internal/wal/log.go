package wal

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"admission/internal/atomicfile"
)

// DefaultSegmentBytes is the rotation threshold applied when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 64 << 20

// segMagic opens every segment file; the framed header blob follows it.
const segMagic = "ACWAL1\n\x00"

// formatVersion is the on-disk format version carried by every header.
const formatVersion = 1

// Options configures Open.
type Options struct {
	// Kind is the workload the log records; a directory holding the other
	// kind fails Open with ErrMismatch. Required.
	Kind Kind
	// Fingerprint identifies the engine configuration (instance shape,
	// shards, seed, mode). It is stored in every header and must match on
	// reopen: replaying an admission log into a differently-seeded engine
	// would silently produce a different state. Required.
	Fingerprint string
	// SegmentBytes is the rotation threshold: a segment at or beyond it is
	// sealed (synced) and a new one started before the next append
	// (0 means DefaultSegmentBytes).
	SegmentBytes int64
	// ReadOnly opens the log for replay only (the acreplay fsck mode):
	// nothing on disk is modified — in particular a torn tail is reported
	// but not truncated — and Append, Sync and WriteSnapshot fail with
	// ErrReadOnly.
	ReadOnly bool
}

// Recovery describes what Open found on disk: how much of the decision
// history is in the snapshot, how much must be replayed from segments, and
// whether a torn tail was discarded.
type Recovery struct {
	// SnapshotSeq is the number of decisions compacted into the snapshot
	// (0 when there is none): replay starts from it.
	SnapshotSeq int64
	// SnapshotDigest is the engine state digest stored with the snapshot,
	// for verification after the compacted prefix is replayed.
	SnapshotDigest uint64
	// TailRecords is the number of records to replay from the segments.
	TailRecords int64
	// TornBytes is the size of the torn final record discarded from the
	// last segment (0 for a clean shutdown). Group commit guarantees a
	// torn record was never acknowledged.
	TornBytes int64
}

// segInfo is one segment of the chain, ascending by start.
type segInfo struct {
	start int64 // first sequence number
	count int64 // records in the segment
	path  string
}

// Log is an append-only decision log over one directory. Append and Sync
// are safe for concurrent use (the serving pipeline appends under its
// decision lock while handlers that already appended group their fsyncs);
// WriteSnapshot and the replay methods serialize against both. Errors are sticky: after any I/O
// failure every subsequent operation fails with the first error, so a
// half-written state is never acknowledged (fail-stop).
type Log struct {
	dir  string
	opts Options

	// mu guards the append state: the active segment's file and buffered
	// writer, sequence bookkeeping, and the segment chain.
	mu       sync.Mutex
	closed   bool
	f        *os.File
	bw       *bufio.Writer
	nextSeq  int64
	segBytes int64
	snapSeq  int64
	snapDig  uint64
	segs     []segInfo
	recov    Recovery
	scratch  []byte

	// fsyncMu serializes fsync against rotation's file swap; durable is
	// the group-commit watermark (records with seq < durable are on disk).
	fsyncMu sync.Mutex
	durable int64

	// errMu guards the sticky error; it is a leaf lock, safe to take under
	// either of the others.
	errMu sync.Mutex
	err   error
}

// fail records the first error and returns the sticky one.
func (l *Log) fail(err error) error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	if l.err == nil {
		l.err = err
	}
	return l.err
}

// sticky returns the recorded failure, if any.
func (l *Log) sticky() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.err
}

// corruptf builds an ErrCorrupt-wrapped error.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// segPath and snapPath name chain files by their starting (resp. covered)
// sequence number.
func (l *Log) segPath(seq int64) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%016x.seg", seq))
}

func (l *Log) snapPath(seq int64) string {
	return filepath.Join(l.dir, fmt.Sprintf("snap-%016x.snap", seq))
}

// parseChainName extracts the sequence number from a chain file name.
func parseChainName(name, prefix, suffix string) (int64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 63)
	if err != nil {
		return 0, false
	}
	return int64(v), true
}

// Open opens (or, unless read-only, creates) the decision log in dir and
// validates everything recovery will rely on: header kind and fingerprint,
// segment-chain contiguity, and every record's length and CRC. A torn
// final record is truncated away (reported in Recovery); damage anywhere
// else fails with ErrCorrupt. The caller then replays ReplaySnapshot and
// ReplayTail into a fresh engine before appending new decisions.
func Open(dir string, opts Options) (*Log, error) {
	if !opts.Kind.valid() {
		return nil, fmt.Errorf("wal: invalid kind %d", opts.Kind)
	}
	if opts.Fingerprint == "" {
		return nil, errors.New("wal: empty fingerprint")
	}
	if opts.SegmentBytes < 0 {
		return nil, fmt.Errorf("wal: negative SegmentBytes %d", opts.SegmentBytes)
	}
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	l := &Log{dir: dir, opts: opts}
	if !opts.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		// Sweep temp files left by a crash mid-snapshot (the atomicfile
		// crash-simulation path): they were never visible to readers.
		if _, err := atomicfile.RemoveTemp(dir); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
	}
	segStarts, snapSeqs, err := l.scanDir()
	if err != nil {
		return nil, err
	}
	if err := l.chooseSnapshot(snapSeqs, segStarts); err != nil {
		return nil, err
	}
	if err := l.openChain(segStarts); err != nil {
		return nil, err
	}
	l.durable = l.nextSeq
	l.recov.SnapshotSeq = l.snapSeq
	l.recov.SnapshotDigest = l.snapDig
	return l, nil
}

// scanDir lists the chain files, ascending.
func (l *Log) scanDir() (segStarts, snapSeqs []int64, err error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || atomicfile.IsTemp(e.Name()) {
			continue
		}
		if seq, ok := parseChainName(e.Name(), "wal-", ".seg"); ok {
			segStarts = append(segStarts, seq)
		} else if seq, ok := parseChainName(e.Name(), "snap-", ".snap"); ok {
			snapSeqs = append(snapSeqs, seq)
		}
	}
	sort.Slice(segStarts, func(i, j int) bool { return segStarts[i] < segStarts[j] })
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] < snapSeqs[j] })
	return segStarts, snapSeqs, nil
}

// chooseSnapshot picks the newest snapshot whose header is valid and whose
// compacted prefix the segment chain can continue from. Older snapshots
// are kept only as a defensive fallback; normally exactly one exists.
func (l *Log) chooseSnapshot(snapSeqs, segStarts []int64) error {
	chainStart := int64(0)
	hasSegs := len(segStarts) > 0
	if hasSegs {
		chainStart = segStarts[0]
	}
	var lastErr error
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		seq := snapSeqs[i]
		hdr, err := l.readSnapshotHeader(l.snapPath(seq))
		if err != nil {
			lastErr = err
			continue
		}
		if hdr.seq != seq {
			lastErr = corruptf("snapshot %s claims seq %d", filepath.Base(l.snapPath(seq)), hdr.seq)
			continue
		}
		if hasSegs && seq < chainStart {
			lastErr = corruptf("snapshot at seq %d predates the segment chain start %d", seq, chainStart)
			continue
		}
		l.snapSeq, l.snapDig = seq, hdr.digest
		return nil
	}
	// No usable snapshot: replay must reach back to sequence 0.
	if hasSegs && chainStart != 0 {
		if lastErr != nil {
			return fmt.Errorf("wal: no usable snapshot and the segment chain starts at %d: %w", chainStart, lastErr)
		}
		return corruptf("no snapshot and the segment chain starts at %d, not 0", chainStart)
	}
	return nil
}

// openChain scans and validates every segment, truncates a torn tail
// (write mode), and opens or creates the active segment.
func (l *Log) openChain(segStarts []int64) error {
	if len(segStarts) == 0 {
		l.nextSeq = l.snapSeq
		if l.opts.ReadOnly {
			return nil
		}
		return l.createSegmentLocked(l.snapSeq)
	}
	expect := segStarts[0]
	recreate := false
	for i, start := range segStarts {
		if start != expect {
			return corruptf("segment chain gap: expected a segment starting at %d, found %d", expect, start)
		}
		last := i == len(segStarts)-1
		path := l.segPath(start)
		count, torn, hdrOK, err := l.scanSegment(path, start, last, nil)
		if err != nil {
			return err
		}
		if torn > 0 {
			l.recov.TornBytes = torn
		}
		if !l.opts.ReadOnly {
			switch {
			case !hdrOK:
				// Even the header was torn, or never written (a crash
				// right after the file was created leaves it empty, with
				// no torn bytes to count): the file carries no records and
				// no identity, so recreate it whole.
				if err := os.Remove(path); err != nil {
					return fmt.Errorf("wal: %w", err)
				}
				recreate = true
			case torn > 0:
				if err := truncateTail(path, torn); err != nil {
					return err
				}
			}
		}
		if hdrOK || l.opts.ReadOnly {
			l.segs = append(l.segs, segInfo{start: start, count: count, path: path})
		}
		expect = start + count
	}
	l.nextSeq = expect
	if l.snapSeq > l.nextSeq {
		return corruptf("snapshot covers %d decisions but the segment chain ends at %d", l.snapSeq, l.nextSeq)
	}
	for _, seg := range l.segs {
		if end := seg.start + seg.count; end > l.snapSeq {
			n := end - seg.start
			if l.snapSeq > seg.start {
				n = end - l.snapSeq
			}
			l.recov.TailRecords += n
		}
	}
	if l.opts.ReadOnly {
		return nil
	}
	if recreate {
		return l.createSegmentLocked(l.nextSeq)
	}
	// Reopen the last segment for appending; make the truncation (and
	// whatever the crashed process left in the page cache) durable first.
	f, err := os.OpenFile(l.segs[len(l.segs)-1].path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 64<<10)
	l.segBytes = size
	return nil
}

// truncateTail drops tornBytes from the end of a segment, durably.
func truncateTail(path string, tornBytes int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(size - tornBytes); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// createSegmentLocked starts a fresh segment at start and makes its header
// durable (so a chain file, once visible, always identifies itself).
// Callers hold mu or are inside Open.
func (l *Log) createSegmentLocked(start int64) error {
	path := l.segPath(start)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr := append([]byte(segMagic), l.headerBlob(start)...)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := atomicfile.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	if l.bw == nil {
		l.bw = bufio.NewWriterSize(f, 64<<10)
	} else {
		l.bw.Reset(f)
	}
	l.segBytes = int64(len(hdr))
	l.segs = append(l.segs, segInfo{start: start, path: path})
	return nil
}

// headerBlob encodes the framed header shared by segments (with their
// start sequence) and reused inside snapshots.
func (l *Log) headerBlob(start int64) []byte {
	p := []byte{formatVersion, byte(l.opts.Kind)}
	p = appendUvarint(p, uint64(start))
	p = appendUvarint(p, uint64(len(l.opts.Fingerprint)))
	p = append(p, l.opts.Fingerprint...)
	return appendFramed(nil, p)
}

// parseHeaderPayload validates a header blob payload against the log's
// identity and returns the sequence number it carries.
func (l *Log) parseHeaderPayload(p []byte, what string) (int64, error) {
	if len(p) < 2 {
		return 0, corruptf("%s header too short", what)
	}
	if p[0] != formatVersion {
		return 0, corruptf("%s format version %d, this build reads %d", what, p[0], formatVersion)
	}
	if Kind(p[1]) != l.opts.Kind {
		return 0, fmt.Errorf("%w: %s holds %v records, engine is %v", ErrMismatch, what, Kind(p[1]), l.opts.Kind)
	}
	rest := p[2:]
	seq, n := uvarint(rest)
	if n <= 0 {
		return 0, corruptf("%s header sequence", what)
	}
	rest = rest[n:]
	fpLen, n := uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) != fpLen {
		return 0, corruptf("%s header fingerprint", what)
	}
	fp := string(rest[n:])
	if fp != l.opts.Fingerprint {
		return 0, fmt.Errorf("%w: %s was written for %q, engine is %q", ErrMismatch, what, fp, l.opts.Fingerprint)
	}
	return int64(seq), nil
}

// errTorn marks a record cut short at the physical end of a file; only the
// last segment's tail may carry one.
var errTorn = errors.New("wal: torn record")

// blobScanner reads framed blobs (uvarint length, payload, CRC) from a
// file, tracking the offset of the first byte after the last valid blob.
type blobScanner struct {
	br  *bufio.Reader
	off int64
	buf []byte
}

// next returns the next blob's payload (valid until the following call),
// io.EOF at a clean end, errTorn for a blob cut short at the physical end
// of the file, or an ErrCorrupt-wrapped error. The CRC rule: a mismatch on
// a blob extending exactly to the end of the file is indistinguishable
// from a torn write and reported as errTorn; a mismatch with bytes after
// it is corruption.
func (s *blobScanner) next() ([]byte, error) {
	var v uint64
	n := 0
	for {
		c, err := s.br.ReadByte()
		if err == io.EOF {
			if n == 0 {
				return nil, io.EOF
			}
			return nil, errTorn
		}
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if n == 9 && c > 1 {
			return nil, corruptf("record length overflows")
		}
		v |= uint64(c&0x7f) << (7 * uint(n))
		n++
		if c < 0x80 {
			if c == 0 && n > 1 {
				return nil, corruptf("non-minimal record length")
			}
			break
		}
		if n > 9 {
			return nil, corruptf("record length overflows")
		}
	}
	if v > MaxRecord {
		return nil, corruptf("record length %d exceeds %d", v, MaxRecord)
	}
	need := int(v) + 4
	if cap(s.buf) < need {
		s.buf = make([]byte, need)
	}
	b := s.buf[:need]
	if _, err := io.ReadFull(s.br, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, errTorn
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	payload := b[:v]
	crc := uint32(b[v]) | uint32(b[v+1])<<8 | uint32(b[v+2])<<16 | uint32(b[v+3])<<24
	if crc32Of(payload) != crc {
		if _, err := s.br.Peek(1); err == io.EOF {
			return nil, errTorn
		}
		return nil, corruptf("record CRC mismatch")
	}
	s.off += int64(n) + int64(need)
	return payload, nil
}

// crc32Of is the chain's checksum.
func crc32Of(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// scanSegment validates one segment file: magic, header (identity and
// start), then every record blob's length and CRC, invoking fn (when
// non-nil) with each record payload and its sequence number. A torn tail
// is tolerated only when last is true; its size is returned for
// truncation. The count excludes the header; headerOK is false when even
// the header was cut short (a segment created but never flushed — the
// caller must recreate it rather than truncate, or it would lose its
// identity).
func (l *Log) scanSegment(path string, wantStart int64, last bool, fn func(payload []byte, seq int64) error) (count, tornBytes int64, headerOK bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	name := filepath.Base(path)
	torn := func(off int64, hdrOK bool) (int64, int64, bool, error) {
		if !last {
			return 0, 0, false, corruptf("segment %s is cut short but is not the last segment", name)
		}
		return count, size - off, hdrOK, nil
	}

	s := &blobScanner{br: bufio.NewReaderSize(f, 64<<10)}
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(s.br, magic); err != nil {
		return torn(0, false)
	}
	if string(magic) != segMagic {
		return 0, 0, false, corruptf("segment %s has a bad magic", name)
	}
	s.off = int64(len(segMagic))
	hdr, err := s.next()
	switch {
	case err == errTorn || err == io.EOF:
		return torn(int64(len(segMagic)), false)
	case err != nil:
		return 0, 0, false, fmt.Errorf("segment %s: %w", name, err)
	}
	start, err := l.parseHeaderPayload(hdr, "segment "+name)
	if err != nil {
		return 0, 0, false, err
	}
	if start != wantStart {
		return 0, 0, false, corruptf("segment %s header says start %d", name, start)
	}
	for {
		payload, err := s.next()
		if err == io.EOF {
			return count, 0, true, nil
		}
		if err == errTorn {
			return torn(s.off, true)
		}
		if err != nil {
			return 0, 0, true, fmt.Errorf("segment %s: %w", name, err)
		}
		if fn != nil {
			if err := fn(payload, wantStart+count); err != nil {
				return 0, 0, true, err
			}
		}
		count++
	}
}

// Append logs one decided record. The record's sequence number must be
// exactly the next one — the engines assign them contiguously when all
// traffic flows through the logged pipeline, and a gap here means some
// submission path bypassed the WAL, which recovery could not replay. The
// record is buffered; it is durable (and may be acknowledged) only after a
// Sync covering it returns. Returns the encoded size.
func (l *Log) Append(rec *Record) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.sticky(); err != nil {
		return 0, err
	}
	if l.closed {
		return 0, ErrClosed
	}
	if l.opts.ReadOnly {
		return 0, ErrReadOnly
	}
	if rec.Kind != l.opts.Kind {
		return 0, fmt.Errorf("wal: appending %v record to a %v log", rec.Kind, l.opts.Kind)
	}
	if got := rec.Seq(); got != l.nextSeq {
		return 0, l.fail(fmt.Errorf("wal: record seq %d, want %d (a submission bypassed the log?)", got, l.nextSeq))
	}
	if l.segBytes >= l.opts.SegmentBytes && l.segs[len(l.segs)-1].count > 0 {
		if err := l.rotateLocked(l.nextSeq); err != nil {
			return 0, l.fail(err)
		}
	}
	buf, err := AppendRecord(l.scratch[:0], rec)
	if err != nil {
		return 0, err // encoding bug, not an I/O failure: not sticky
	}
	l.scratch = buf
	if _, err := l.bw.Write(buf); err != nil {
		return 0, l.fail(fmt.Errorf("wal: %w", err))
	}
	l.nextSeq++
	l.segBytes += int64(len(buf))
	l.segs[len(l.segs)-1].count++
	return len(buf), nil
}

// rotateLocked seals the active segment — flush, fsync, advance the
// durability watermark, close — and starts a new one at start. Callers
// hold mu; the fsync lock is taken for the swap so a concurrent Sync never
// touches a closed file.
func (l *Log) rotateLocked(start int64) error {
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.fsyncMu.Lock()
	defer l.fsyncMu.Unlock()
	if err := fdatasync(l.f); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.durable = l.nextSeq
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = nil
	return l.createSegmentLocked(start)
}

// Sync makes every record appended so far durable and advances the
// group-commit watermark. Concurrent calls coalesce: whichever caller
// reaches the fsync lock first syncs on behalf of everyone whose records
// are already flushed, and the rest observe the advanced watermark and
// return without touching the disk — this is what keeps fsync latency off
// the per-decision path (one fsync per commit cohort, not per record).
func (l *Log) Sync() error {
	l.mu.Lock()
	if err := l.sticky(); err != nil {
		l.mu.Unlock()
		return err
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.opts.ReadOnly {
		l.mu.Unlock()
		return ErrReadOnly
	}
	if err := l.bw.Flush(); err != nil {
		err = l.fail(fmt.Errorf("wal: %w", err))
		l.mu.Unlock()
		return err
	}
	target := l.nextSeq
	l.mu.Unlock()

	l.fsyncMu.Lock()
	defer l.fsyncMu.Unlock()
	if l.durable >= target {
		return nil // a rotation or another cohort's fsync already covered us
	}
	if err := fdatasync(l.f); err != nil {
		return l.fail(fmt.Errorf("wal: %w", err))
	}
	l.durable = target
	return nil
}

// DurableSeq returns the group-commit watermark: records with sequence
// numbers below it are on disk.
func (l *Log) DurableSeq() int64 {
	l.fsyncMu.Lock()
	defer l.fsyncMu.Unlock()
	return l.durable
}

// NextSeq returns the sequence number the next appended record must carry.
func (l *Log) NextSeq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// RecordsSinceSnapshot returns how many decisions have been logged since
// the latest snapshot — the serving layer's snapshot trigger.
func (l *Log) RecordsSinceSnapshot() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - l.snapSeq
}

// Recovery reports what Open found; it is fixed at open time.
func (l *Log) Recovery() Recovery { return l.recov }

// Kind reports which workload's decisions the log holds; it is fixed at
// open time.
func (l *Log) Kind() Kind { return l.opts.Kind }

// ReplayTail streams the records after the snapshot in sequence order,
// verifying every record's CRC and sequence continuity as it goes. It is
// the second half of recovery (after ReplaySnapshot) and the whole of it
// when no snapshot exists.
func (l *Log) ReplayTail(fn func(rec *Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.sticky(); err != nil {
		return err
	}
	if l.bw != nil {
		if err := l.bw.Flush(); err != nil {
			return l.fail(fmt.Errorf("wal: %w", err))
		}
	}
	return l.replayTailLocked(fn)
}

func (l *Log) replayTailLocked(fn func(rec *Record) error) error {
	var rec Record
	for i, seg := range l.segs {
		if seg.start+seg.count <= l.snapSeq {
			continue // fully compacted into the snapshot; kept only until pruning
		}
		_, _, _, err := l.scanSegment(seg.path, seg.start, i == len(l.segs)-1, func(payload []byte, seq int64) error {
			if seq < l.snapSeq {
				// A snapshot taken mid-segment (crash before rotation):
				// the prefix is in the snapshot, skip it here.
				return nil
			}
			if err := DecodeRecord(payload, &rec); err != nil {
				return err
			}
			if rec.Seq() != seq {
				return corruptf("record at position %d carries seq %d", seq, rec.Seq())
			}
			return fn(&rec)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and fsyncs the active segment and releases it. Records
// appended but never synced are flushed durably by Close; a crash instead
// of a Close is what the torn-tail tolerance exists for.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.opts.ReadOnly || l.f == nil {
		return nil
	}
	var firstErr error
	if err := l.bw.Flush(); err != nil {
		firstErr = l.fail(fmt.Errorf("wal: %w", err))
	}
	l.fsyncMu.Lock()
	defer l.fsyncMu.Unlock()
	if firstErr == nil {
		if err := l.f.Sync(); err != nil {
			firstErr = l.fail(fmt.Errorf("wal: %w", err))
		} else {
			l.durable = l.nextSeq
		}
	}
	if err := l.f.Close(); err != nil && firstErr == nil {
		firstErr = l.fail(fmt.Errorf("wal: %w", err))
	}
	l.f = nil
	return firstErr
}
