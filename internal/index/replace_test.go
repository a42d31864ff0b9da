package index

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// buildReplacement rewrites an already-committed index directory with n
// fresh records through a Replace writer. Values are prefixed "rep-" so
// tests can tell the generations apart.
func buildReplacement(t *testing.T, dir string, n, shards int) (keys, vals [][]byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key-%06d", i)))
		vals = append(vals, []byte(fmt.Sprintf("rep-%d", i)))
	}
	w, err := NewWriter(dir, WriterOptions{
		Corpus:  "test-corpus-v2",
		Records: int64(n),
		Shards:  shards,
		Replace: true,
	})
	if err != nil {
		t.Fatalf("NewWriter(Replace): %v", err)
	}
	if err := w.SetDictionary(func(out io.Writer) error {
		_, err := io.WriteString(out, "the\t100\nquick\t50\n")
		return err
	}); err != nil {
		t.Fatalf("SetDictionary: %v", err)
	}
	for i := range keys {
		if err := w.Append(keys[i], vals[i]); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return keys, vals
}

// TestReplaceRewriteUnderOpenReader pins the atomic-replacement
// contract: a reader opened on the old generation keeps answering old
// queries after the directory is rewritten, a fresh Open sees the new
// generation, stale files are cleaned up, and the CRC file shrinks back
// to one line.
func TestReplaceRewriteUnderOpenReader(t *testing.T) {
	dir := t.TempDir()
	oldKeys, oldVals := buildIndex(t, dir, 100, 2)
	ix1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix1.Close()

	// Ensure the replacement manifest gets a distinct mtime even on
	// coarse-granularity filesystems.
	time.Sleep(20 * time.Millisecond)
	newKeys, newVals := buildReplacement(t, dir, 150, 3)

	// The old reader is pinned to the old generation.
	v, ok, err := ix1.Get(oldKeys[7])
	if err != nil || !ok || !bytes.Equal(v, oldVals[7]) {
		t.Fatalf("old reader after replace: Get = %q, %v, %v (want %q)", v, ok, err, oldVals[7])
	}
	if ix1.Records() != 100 || ix1.Corpus() != "test-corpus" {
		t.Fatalf("old reader mutated: %d records, corpus %q", ix1.Records(), ix1.Corpus())
	}

	// A fresh Open serves the new generation.
	ix2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after replace: %v", err)
	}
	defer ix2.Close()
	if ix2.Records() != 150 || ix2.Corpus() != "test-corpus-v2" {
		t.Fatalf("new reader: %d records, corpus %q", ix2.Records(), ix2.Corpus())
	}
	v, ok, err = ix2.Get(newKeys[7])
	if err != nil || !ok || !bytes.Equal(v, newVals[7]) {
		t.Fatalf("new reader: Get = %q, %v, %v (want %q)", v, ok, err, newVals[7])
	}
	if !ix2.ManifestTime().After(ix1.ManifestTime()) {
		t.Fatalf("manifest time did not advance: %v -> %v", ix1.ManifestTime(), ix2.ManifestTime())
	}

	// The old generation's flat data files are unlinked; only the
	// manifest and generation directories remain at the top level — no
	// checksum sidecar: the manifest carries its own.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			if !strings.HasPrefix(e.Name(), "gen-") {
				t.Fatalf("unexpected directory %q after replace", e.Name())
			}
			continue
		}
		if e.Name() != ManifestFile {
			t.Fatalf("stale file %q survived the replace", e.Name())
		}
	}
}

// TestReplaceAbortKeepsOld pins that aborting a replacement leaves the
// old generation fully intact and stages nothing behind.
func TestReplaceAbortKeepsOld(t *testing.T) {
	dir := t.TempDir()
	keys, vals := buildIndex(t, dir, 50, 1)
	w, err := NewWriter(dir, WriterOptions{Records: 10, Shards: 1, Replace: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetDictionary(func(out io.Writer) error {
		_, err := io.WriteString(out, "x\t1\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte(fmt.Sprintf("key-%06d", i)), []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	w.Abort()

	ix, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after aborted replace: %v", err)
	}
	defer ix.Close()
	if ix.Records() != 50 {
		t.Fatalf("aborted replace changed the index: %d records", ix.Records())
	}
	v, ok, err := ix.Get(keys[3])
	if err != nil || !ok || !bytes.Equal(v, vals[3]) {
		t.Fatalf("old record lost: %q, %v, %v", v, ok, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "gen-") {
			t.Fatalf("aborted replace left staging directory %q", e.Name())
		}
	}
}

// TestCloseDrainsInFlight pins the refcounted-close semantics: Close
// during an in-flight scan lets the scan finish on the open files,
// closes them when it drains, and fails only queries started later.
func TestCloseDrainsInFlight(t *testing.T) {
	dir := t.TempDir()
	keys, _ := buildIndex(t, dir, 120, 2)
	ix, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	closedMid := false
	err = ix.Scan(nil, nil, func(k, v []byte) error {
		if !closedMid {
			closedMid = true
			if err := ix.Close(); err != nil {
				t.Fatalf("Close mid-scan: %v", err)
			}
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatalf("in-flight scan failed after Close: %v", err)
	}
	if seen != len(keys) {
		t.Fatalf("scan saw %d of %d records after mid-scan Close", seen, len(keys))
	}
	if _, _, err := ix.Get(keys[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Get: err = %v, want ErrClosed", err)
	}
	if err := ix.Scan(nil, nil, func(k, v []byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Scan: err = %v, want ErrClosed", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
