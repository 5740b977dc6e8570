package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"admission/internal/atomicfile"
	"admission/internal/wire"
)

// snapMagic opens every snapshot file.
const snapMagic = "ACSNAP1\n"

// snapHeader is the decoded identity block of a snapshot file.
type snapHeader struct {
	seq    int64  // decisions compacted: the snapshot covers [0, seq)
	digest uint64 // engine state digest after those decisions
}

// snapHeaderBlob frames the snapshot header: version, kind, sequence,
// engine digest, fingerprint.
func (l *Log) snapHeaderBlob(seq int64, digest uint64) []byte {
	p := []byte{formatVersion, byte(l.opts.Kind)}
	p = appendUvarint(p, uint64(seq))
	p = append(p,
		byte(digest), byte(digest>>8), byte(digest>>16), byte(digest>>24),
		byte(digest>>32), byte(digest>>40), byte(digest>>48), byte(digest>>56))
	p = appendUvarint(p, uint64(len(l.opts.Fingerprint)))
	p = append(p, l.opts.Fingerprint...)
	return appendFramed(nil, p)
}

// parseSnapHeaderPayload validates a snapshot header against the log's
// identity.
func (l *Log) parseSnapHeaderPayload(p []byte, what string) (snapHeader, error) {
	var h snapHeader
	if len(p) < 2 {
		return h, corruptf("%s header too short", what)
	}
	if p[0] != formatVersion {
		return h, corruptf("%s format version %d, this build reads %d", what, p[0], formatVersion)
	}
	if Kind(p[1]) != l.opts.Kind {
		return h, fmt.Errorf("%w: %s holds %v state, engine is %v", ErrMismatch, what, Kind(p[1]), l.opts.Kind)
	}
	rest := p[2:]
	seq, n := uvarint(rest)
	if n <= 0 {
		return h, corruptf("%s header sequence", what)
	}
	rest = rest[n:]
	if len(rest) < 8 {
		return h, corruptf("%s header digest", what)
	}
	h.seq = int64(seq)
	h.digest = uint64(rest[0]) | uint64(rest[1])<<8 | uint64(rest[2])<<16 | uint64(rest[3])<<24 |
		uint64(rest[4])<<32 | uint64(rest[5])<<40 | uint64(rest[6])<<48 | uint64(rest[7])<<56
	rest = rest[8:]
	fpLen, n := uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) != fpLen {
		return h, corruptf("%s header fingerprint", what)
	}
	if fp := string(rest[n:]); fp != l.opts.Fingerprint {
		return h, fmt.Errorf("%w: %s was written for %q, engine is %q", ErrMismatch, what, fp, l.opts.Fingerprint)
	}
	return h, nil
}

// readSnapshotHeader reads just the identity block of a snapshot file —
// enough for Open to pick the newest usable snapshot without loading its
// body. Snapshots are written atomically, so a cut-short header here is
// corruption, never a tolerated torn write.
func (l *Log) readSnapshotHeader(path string) (snapHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return snapHeader{}, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 4<<10)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != snapMagic {
		return snapHeader{}, corruptf("snapshot %s has a bad magic", filepath.Base(path))
	}
	s := &blobScanner{br: br}
	hdr, err := s.next()
	if err == errTorn || err == io.EOF {
		return snapHeader{}, corruptf("snapshot %s header is cut short", filepath.Base(path))
	}
	if err != nil {
		return snapHeader{}, fmt.Errorf("snapshot %s: %w", filepath.Base(path), err)
	}
	return l.parseSnapHeaderPayload(hdr, "snapshot "+filepath.Base(path))
}

// parseFramed splits one length-prefixed CRC-protected blob off b.
func parseFramed(b []byte) (payload, rest []byte, err error) {
	v, n := uvarint(b)
	if n == 0 {
		return nil, nil, corruptf("truncated frame length")
	}
	if n < 0 {
		return nil, nil, corruptf("invalid frame length")
	}
	if v > MaxRecord {
		return nil, nil, corruptf("frame length %d exceeds %d", v, MaxRecord)
	}
	b = b[n:]
	if uint64(len(b)) < v+4 {
		return nil, nil, corruptf("frame cut short")
	}
	payload = b[:v]
	crc := uint32(b[v]) | uint32(b[v+1])<<8 | uint32(b[v+2])<<16 | uint32(b[v+3])<<24
	if crc32Of(payload) != crc {
		return nil, nil, corruptf("frame CRC mismatch")
	}
	return payload, b[v+4:], nil
}

// ReplaySnapshot streams the compacted request prefix — the inputs behind
// the first Recovery().SnapshotSeq decisions — in submission order, each
// entry as a record whose request half alone is set. As in ReplayTail,
// the record is reused from one call to the next, though the slices it
// holds are not. The caller replays the requests through a fresh engine,
// then checks the engine's state digest against Recovery().SnapshotDigest
// before moving on to ReplayTail. No snapshot means nothing to do.
func (l *Log) ReplaySnapshot(fn func(rec *Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.sticky(); err != nil {
		return err
	}
	return l.replaySnapshotLocked(fn)
}

func (l *Log) replaySnapshotLocked(fn func(rec *Record) error) error {
	if l.snapSeq == 0 {
		return nil
	}
	path := l.snapPath(l.snapSeq)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr, err := l.decodeSnapshot(data, filepath.Base(path), fn)
	if err != nil {
		return err
	}
	if hdr.seq != l.snapSeq {
		return corruptf("snapshot %s claims seq %d", filepath.Base(path), hdr.seq)
	}
	return nil
}

// decodeSnapshot validates a complete snapshot image — magic, header
// identity, body CRC, every entry frame, entry count — and streams its
// entries through fn. It is the single decode path shared by recovery and
// FuzzSnapshotDecode.
func (l *Log) decodeSnapshot(data []byte, name string, fn func(rec *Record) error) (snapHeader, error) {
	var zero snapHeader
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return zero, corruptf("snapshot %s has a bad magic", name)
	}
	hdrPayload, body, err := parseFramed(data[len(snapMagic):])
	if err != nil {
		return zero, fmt.Errorf("snapshot %s header: %w", name, err)
	}
	hdr, err := l.parseSnapHeaderPayload(hdrPayload, "snapshot "+name)
	if err != nil {
		return zero, err
	}
	if len(body) < 4 {
		return zero, corruptf("snapshot %s body cut short", name)
	}
	crcAt := len(body) - 4
	crc := uint32(body[crcAt]) | uint32(body[crcAt+1])<<8 | uint32(body[crcAt+2])<<16 | uint32(body[crcAt+3])<<24
	body = body[:crcAt]
	if crc32Of(body) != crc {
		return zero, corruptf("snapshot %s body CRC mismatch", name)
	}
	var (
		count int64
		rec   Record
	)
	for len(body) > 0 {
		frame, rest, err := wire.NextFrame(body)
		if err == nil {
			err = decodeRequest(l.opts.Kind, frame, &rec)
		}
		if err != nil {
			return zero, fmt.Errorf("%w: snapshot %s entry %d: %v", ErrCorrupt, name, count, err)
		}
		count++
		if err := fn(&rec); err != nil {
			return zero, err
		}
		body = rest
	}
	if count != hdr.seq {
		return zero, corruptf("snapshot %s holds %d entries, header says %d", name, count, hdr.seq)
	}
	return hdr, nil
}

// WriteSnapshot compacts everything logged so far — the existing compacted
// prefix plus the replayable tail, inputs only — into a new snapshot file
// covering [0, NextSeq), stamps it with the engine's state digest, rotates
// to a fresh segment, and prunes the segments and snapshots the new one
// supersedes. The write is atomic and ordered (tail fsynced first, old
// files removed only once the new snapshot is durable), so a crash at any
// point leaves a recoverable directory. A no-op when nothing was logged
// since the last snapshot.
func (l *Log) WriteSnapshot(digest uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.sticky(); err != nil {
		return err
	}
	if l.closed {
		return ErrClosed
	}
	if l.opts.ReadOnly {
		return ErrReadOnly
	}
	seq := l.nextSeq
	if seq == l.snapSeq {
		return nil
	}
	// The tail about to be compacted must be durable first: pruning may
	// delete its segments, after which the snapshot is its only copy.
	if err := l.bw.Flush(); err != nil {
		return l.fail(fmt.Errorf("wal: %w", err))
	}
	l.fsyncMu.Lock()
	if l.durable < seq {
		if err := l.f.Sync(); err != nil {
			l.fsyncMu.Unlock()
			return l.fail(fmt.Errorf("wal: %w", err))
		}
		l.durable = seq
	}
	l.fsyncMu.Unlock()

	buf := append([]byte(nil), snapMagic...)
	buf = append(buf, l.snapHeaderBlob(seq, digest)...)
	bodyStart := len(buf)
	entry := func(rec *Record) (err error) {
		buf, err = appendRequest(buf, rec)
		return err
	}
	if err := l.replaySnapshotLocked(entry); err != nil {
		return err
	}
	if err := l.replayTailLocked(entry); err != nil {
		return err
	}
	crc := crc32Of(buf[bodyStart:])
	buf = append(buf, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
	if err := atomicfile.WriteFile(l.snapPath(seq), buf, 0o644); err != nil {
		return l.fail(err)
	}
	// Start a fresh segment at seq so the chain continues exactly where
	// the snapshot ends (skipped when the active segment is already
	// empty at seq — then it already does).
	if last := &l.segs[len(l.segs)-1]; last.start != seq || last.count != 0 {
		if err := l.rotateLocked(seq); err != nil {
			return l.fail(err)
		}
	}
	oldSnap := l.snapSeq
	l.snapSeq, l.snapDig = seq, digest
	// Prune what the snapshot supersedes: every sealed segment (all end at
	// or before seq after the rotation) and every older snapshot.
	keep := l.segs[len(l.segs)-1]
	for _, seg := range l.segs[:len(l.segs)-1] {
		if err := os.Remove(seg.path); err != nil {
			return l.fail(fmt.Errorf("wal: %w", err))
		}
	}
	l.segs = append(l.segs[:0], keep)
	if oldSnap > 0 && oldSnap != seq {
		if err := os.Remove(l.snapPath(oldSnap)); err != nil && !os.IsNotExist(err) {
			return l.fail(fmt.Errorf("wal: %w", err))
		}
	}
	if err := atomicfile.SyncDir(l.dir); err != nil {
		return l.fail(err)
	}
	return nil
}

// SnapshotSeq returns the sequence number the latest snapshot covers up to
// (0 when there is none).
func (l *Log) SnapshotSeq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapSeq
}
