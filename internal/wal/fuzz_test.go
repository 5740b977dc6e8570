package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fuzzLog is the fixed identity of a kind both snapshot fuzz ends agree
// on.
func fuzzLog(kind Kind) *Log {
	return &Log{opts: Options{Kind: kind, Fingerprint: "fuzz"}}
}

// records returns mk(0), …, mk(n-1) by value.
func records(n int, mk func(seq int) *Record) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = *mk(i)
	}
	return recs
}

// recordPayload strips the framing off an encoded record.
func recordPayload(t interface{ Fatal(...any) }, rec *Record) []byte {
	framed, err := AppendRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	v, n := uvarint(framed)
	return framed[n : n+int(v)]
}

// snapshotImage builds a complete valid snapshot file image, one entry per
// record's request half, for seeding.
func snapshotImage(l *Log, digest uint64, recs []Record) []byte {
	buf := append([]byte(nil), snapMagic...)
	buf = append(buf, l.snapHeaderBlob(int64(len(recs)), digest)...)
	bodyStart := len(buf)
	for i := range recs {
		buf, _ = appendRequest(buf, &recs[i])
	}
	crc := crc32Of(buf[bodyStart:])
	return append(buf, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
}

// FuzzWALDecode asserts the canonical round-trip property of record
// payloads: any payload DecodeRecord accepts must re-encode to exactly the
// same bytes — there is one encoding per record, so a CRC-valid record can
// never be ambiguous.
func FuzzWALDecode(f *testing.F) {
	for _, rec := range []*Record{
		mkAdm(0), mkAdm(4), mkAdm(12), mkCover(0), mkCover(9),
		mkCluster(0), mkCluster(1), mkCluster(2), mkCluster(3),
	} {
		f.Add(recordPayload(f, rec))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var rec Record
		if err := DecodeRecord(payload, &rec); err != nil {
			return // rejected inputs are out of scope; accepting is the claim
		}
		re, err := appendPayload(nil, &rec)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("decode/encode not canonical:\nin  % x\nout % x", payload, re)
		}
	})
}

// FuzzSnapshotDecode asserts the same canonical round-trip for whole
// snapshot images through the exact decode path recovery uses, for a log
// of every kind (a header names its kind, so at most one accepts).
func FuzzSnapshotDecode(f *testing.F) {
	adm := fuzzLog(KindAdmission)
	f.Add(snapshotImage(adm, 0, nil))
	f.Add(snapshotImage(adm, 0xDEAD, records(5, mkAdm)))
	f.Add(snapshotImage(fuzzLog(KindCluster), 0xC1D5, records(8, mkCluster)))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []Kind{KindAdmission, KindCover, KindCluster} {
			l := fuzzLog(kind)
			var got []Record
			hdr, err := l.decodeSnapshot(data, "fuzz", func(rec *Record) error {
				got = append(got, *rec)
				return nil
			})
			if err != nil {
				continue
			}
			if re := snapshotImage(l, hdr.digest, got); !bytes.Equal(re, data) {
				t.Fatalf("snapshot decode/encode not canonical:\nin  % x\nout % x", data, re)
			}
		}
	})
}

// TestGenerateFuzzCorpus regenerates the committed crasher corpus under
// testdata/fuzz — the torn-tail and bit-flip shapes the fault-injection
// tests exercise on whole files, here fed straight into the decoders. Run
// with WAL_GEN_CORPUS=1; the checked-in files keep CI's fuzz smoke
// covering these shapes without mutation luck.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("WAL_GEN_CORPUS") == "" {
		t.Skip("set WAL_GEN_CORPUS=1 to regenerate testdata/fuzz")
	}
	write := func(target, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	adm := recordPayload(t, mkAdm(4))
	cov := recordPayload(t, mkCover(9))
	write("FuzzWALDecode", "valid-admission", adm)
	write("FuzzWALDecode", "valid-cover", cov)
	write("FuzzWALDecode", "valid-cluster", recordPayload(t, mkCluster(1)))
	write("FuzzWALDecode", "torn-tail", adm[:len(adm)/2])
	bitflip := append([]byte(nil), adm...)
	bitflip[len(bitflip)/2] ^= 0x40
	write("FuzzWALDecode", "bit-flip", bitflip)
	write("FuzzWALDecode", "empty", nil)

	img := snapshotImage(fuzzLog(KindAdmission), 0xFEED, records(4, mkAdm))
	write("FuzzSnapshotDecode", "valid", img)
	write("FuzzSnapshotDecode", "valid-cluster", snapshotImage(fuzzLog(KindCluster), 0xFEED, records(4, mkCluster)))
	write("FuzzSnapshotDecode", "torn-tail", img[:len(img)-6])
	snapFlip := append([]byte(nil), img...)
	snapFlip[len(snapFlip)/3] ^= 0x40
	write("FuzzSnapshotDecode", "bit-flip", snapFlip)
	write("FuzzSnapshotDecode", "magic-only", []byte(snapMagic))
}
