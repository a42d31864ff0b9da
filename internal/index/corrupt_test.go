package index

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ngramstats/internal/extsort"
)

// verifyAll opens the index and reads every record through both access
// paths (full scan and per-key Get); any damage the open-time checks
// miss must surface here.
func verifyAll(dir string) error {
	ix, err := Open(dir, Options{})
	if err != nil {
		return err
	}
	defer ix.Close()
	if err := ix.Scan(nil, nil, func(k, v []byte) error { return nil }); err != nil {
		return err
	}
	// Point lookups exercise the cached-block path and the top records.
	for i := 0; i < int(ix.Records()); i += 7 {
		key := []byte(fmt.Sprintf("key-%06d", i))
		if _, _, err := ix.Get(key); err != nil {
			return err
		}
	}
	return nil
}

// isCleanCorruptionError reports whether err is one of the two declared
// corruption sentinels — the clean "this index cannot be trusted"
// signal, as opposed to an incidental I/O error or a wrong answer.
func isCleanCorruptionError(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, extsort.ErrCorruptRun)
}

// TestCorruptionSweep flips every byte of every index file in turn and
// requires each flip to surface as an error — wrong counts must never
// be served silently. This is the index-level counterpart of the run
// format's corruption sweep from PR 2.
func TestCorruptionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("corruption sweep is exhaustive; skipped with -short")
	}
	src := t.TempDir()
	buildIndex(t, src, 400, 3)
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}

	work := t.TempDir()
	for _, fe := range files {
		name := fe.Name()
		orig, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		// Fresh copy of the intact index in the work dir.
		resetDir(t, src, work)
		target := filepath.Join(work, name)
		corrupted := append([]byte(nil), orig...)
		for off := 0; off < len(orig); off++ {
			corrupted[off] ^= 0x20 // flips case in text, always changes the byte
			if err := os.WriteFile(target, corrupted, 0o666); err != nil {
				t.Fatal(err)
			}
			verr := verifyAll(work)
			corrupted[off] = orig[off]
			if verr == nil {
				t.Fatalf("%s: flipping byte %d of %d went undetected", name, off, len(orig))
			}
			if !isCleanCorruptionError(verr) {
				t.Fatalf("%s byte %d: unclean error %v", name, off, verr)
			}
		}
		if err := os.WriteFile(target, orig, 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCursorDamagedBlock: a block damaged after Open (footers intact)
// ends a cursor with a corruption error at that block. The records it
// yielded before are the true ones and nothing of the damaged block is
// served — through Seek and through the bounded Scan built on it.
func TestCursorDamagedBlock(t *testing.T) {
	dir := t.TempDir()
	const n = 40000
	keys, vals := buildIndex(t, dir, n, 3)
	path := filepath.Join(dir, "shard-00001.run")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20 // inside a middle block's payload
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open reads no block, so it cannot see the damage: %v", err)
	}
	defer ix.Close()
	// The damaged block is the one shard 1 names for the first key the
	// cursor fails to deliver.
	for _, lo := range [][]byte{nil, keys[n/3+5]} {
		from := 0
		if lo != nil {
			from = n/3 + 5
		}
		c := ix.Seek(lo, []byte("zzz"))
		got := from
		for c.Next() {
			if !bytes.Equal(c.Key(), keys[got]) || !bytes.Equal(c.Value(), vals[got]) {
				t.Fatalf("record %d served as (%s, %s)", got, c.Key(), c.Value())
			}
			got++
		}
		if !isCleanCorruptionError(c.Err()) {
			t.Fatalf("cursor ended after %d records with %v, want a corruption error", got-from, c.Err())
		}
		if c.Next() || !isCleanCorruptionError(c.Err()) {
			t.Fatalf("the error does not stick: %v", c.Err())
		}
		sh := ix.shards[1]
		if b := sh.rr.FindBlock(keys[got]); ix.findShard(keys[got]) != 1 || b < 1 || !bytes.Equal(sh.rr.FirstKey(b), keys[got]) {
			t.Fatalf("cursor stopped at %s, not at the start of a later block of shard 1", keys[got])
		}
		scanned := from
		err := ix.Scan(lo, []byte("zzz"), func(k, v []byte) error { scanned++; return nil })
		if !isCleanCorruptionError(err) || scanned != got {
			t.Fatalf("Scan delivered %d records and %v; the cursor %d", scanned-from, err, got-from)
		}
	}
}

// TestTruncationSweep truncates every index file at every length and
// requires a clean error each time.
func TestTruncationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("truncation sweep is exhaustive; skipped with -short")
	}
	src := t.TempDir()
	buildIndex(t, src, 400, 3)
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	for _, fe := range files {
		name := fe.Name()
		orig, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		resetDir(t, src, work)
		target := filepath.Join(work, name)
		step := 1
		if len(orig) > 2048 {
			step = 7 // sample large files; every byte for small ones
		}
		for cut := 0; cut < len(orig); cut += step {
			if err := os.WriteFile(target, orig[:cut], 0o666); err != nil {
				t.Fatal(err)
			}
			verr := verifyAll(work)
			if verr == nil {
				t.Fatalf("%s: truncation to %d of %d bytes went undetected", name, cut, len(orig))
			}
			if !isCleanCorruptionError(verr) {
				t.Fatalf("%s truncated to %d: unclean error %v", name, cut, verr)
			}
		}
		if err := os.WriteFile(target, orig, 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMissingFiles removes each file in turn; Open (or verification)
// must fail rather than serve a partial index.
func TestMissingFiles(t *testing.T) {
	src := t.TempDir()
	buildIndex(t, src, 400, 3)
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	for _, fe := range files {
		resetDir(t, src, work)
		if err := os.Remove(filepath.Join(work, fe.Name())); err != nil {
			t.Fatal(err)
		}
		if verr := verifyAll(work); verr == nil {
			t.Fatalf("removing %s went undetected", fe.Name())
		}
	}
}

// resetDir makes dst an exact copy of the committed index in src.
func resetDir(t *testing.T, src, dst string) {
	t.Helper()
	old, err := os.ReadDir(dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range old {
		if err := os.Remove(filepath.Join(dst, fe.Name())); err != nil {
			t.Fatal(err)
		}
	}
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range files {
		data, err := os.ReadFile(filepath.Join(src, fe.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, fe.Name()), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
}
