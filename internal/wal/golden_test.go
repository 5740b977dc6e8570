package wal

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden (only for an intended format change)")

// goldenLogs are the fixed streams TestGoldenBytes writes, one per kind:
// goldenSnap records compacted into a snapshot mid-stream, then a
// goldenTail-record tail rotating over small segments. The cluster stream
// cycles through all four operations.
var goldenLogs = []struct {
	name string
	opts Options
	mk   func(seq int) *Record
}{
	{"admission", Options{Kind: KindAdmission, Fingerprint: "golden/admission", SegmentBytes: 256}, mkAdm},
	{"cover", Options{Kind: KindCover, Fingerprint: "golden/cover", SegmentBytes: 256}, mkCover},
	{"cluster", Options{Kind: KindCluster, Fingerprint: "golden/cluster", SegmentBytes: 256}, mkCluster},
}

const goldenSnap, goldenTail = 25, 15

// writeGolden writes one golden stream into dir.
func writeGolden(t *testing.T, dir string, opts Options, mk func(seq int) *Record) {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < goldenSnap+goldenTail; i++ {
		if i == goldenSnap {
			if err := l.WriteSnapshot(0x601DE0 + uint64(opts.Kind)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Append(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// readFiles returns every file of dir by name.
func readFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestGoldenBytes pins the on-disk format of every log kind. The files a
// fixed stream writes must equal the committed ones under
// testdata/golden/<kind> byte for byte: segment headers, record payloads,
// the snapshot header and its entries. And a read-only Open of the
// committed files must replay the same records, the snapshot's as their
// request halves. Rewrite the files with -update-golden only for an
// intended format change, which also bumps formatVersion.
func TestGoldenBytes(t *testing.T) {
	for _, g := range goldenLogs {
		t.Run(g.name, func(t *testing.T) {
			golden := filepath.Join("testdata", "golden", g.name)
			if *updateGolden {
				if err := os.RemoveAll(golden); err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(golden, 0o755); err != nil {
					t.Fatal(err)
				}
				writeGolden(t, golden, g.opts, g.mk)
			}
			dir := t.TempDir()
			writeGolden(t, dir, g.opts, g.mk)
			got, want := readFiles(t, dir), readFiles(t, golden)
			if len(got) != len(want) {
				t.Fatalf("wrote %d files, %d committed", len(got), len(want))
			}
			for name, w := range want {
				if !bytes.Equal(got[name], w) {
					t.Errorf("%s differs from the committed file:\ngot  % x\nwant % x", name, got[name], w)
				}
			}

			ro := g.opts
			ro.ReadOnly = true
			l, err := Open(golden, ro)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if rc := l.Recovery(); rc.SnapshotSeq != goldenSnap || rc.TailRecords != goldenTail {
				t.Fatalf("recovery = %+v, want a %d-entry snapshot and a %d-record tail", rc, goldenSnap, goldenTail)
			}
			seq := 0
			if err := l.ReplaySnapshot(func(rec *Record) error {
				w := g.mk(seq)
				half := Record{Kind: w.Kind, AdmissionReq: w.AdmissionReq, Element: w.Element, ClusterOp: w.ClusterOp, ClusterTx: w.ClusterTx}
				if !reflect.DeepEqual(*rec, half) {
					t.Errorf("snapshot entry %d = %+v, want %+v", seq, *rec, half)
				}
				seq++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			tail := collectTail(t, l)
			if seq != goldenSnap || len(tail) != goldenTail {
				t.Fatalf("replayed %d snapshot entries and %d tail records", seq, len(tail))
			}
			for i, rec := range tail {
				if w := g.mk(goldenSnap + i); !reflect.DeepEqual(rec, *w) {
					t.Errorf("tail record %d = %+v, want %+v", goldenSnap+i, rec, *w)
				}
			}
		})
	}
}
