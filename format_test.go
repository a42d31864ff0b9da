package ngramstats

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ngramstats/internal/index"
	"ngramstats/internal/lsm"
)

// copyFixture copies testdata/<version>/<name> — an index or chain
// made by the mk*.sh script beside it with an older build — into a
// fresh directory and returns it.
func copyFixture(t *testing.T, version, name string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", version, name))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// assertOpenEqual opens both directories and checks that they answer
// every query identically.
func assertOpenEqual(t *testing.T, dir, wantDir string) {
	t.Helper()
	got, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	want, err := OpenIndex(wantDir)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	assertIndexesEqual(t, got, want)
}

// assertNoLeftovers fails if a checksum sidecar or a temp file is left
// anywhere under dir.
func assertNoLeftovers(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, ".crc32c") || strings.HasSuffix(path, ".tmp") {
			t.Errorf("left behind: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// assertFormat checks that the manifest at path is written in the
// given format, its checksum inside it and no sidecar beside it:
// index.FormatVersion for an index manifest, lsm.FormatVersion for a
// chain's.
func assertFormat(t *testing.T, path string, version int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "{\n  \"crc32c\": \"") || !strings.Contains(string(data), fmt.Sprintf("\"version\": %d,", version)) {
		t.Fatalf("%s is not format %d:\n%s", path, version, data)
	}
	if _, err := os.Stat(index.V1Sidecar(path)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("%s still has its format-1 checksum file (stat: %v)", path, err)
	}
}

// TestFormatV1Readable: a plain index and a chain written in format 1,
// whose manifests kept their checksums in sidecar files, open and
// answer as a fresh count over the same documents. The first write over
// each — a replacing Save, an append — commits the current format and
// removes the sidecar it replaced, and the chain, now mixing format-1
// and format-2 generations, appends and compacts to the rebuild's data
// files.
func TestFormatV1Readable(t *testing.T) {
	ctx := context.Background()
	fresh := func(n int) string {
		dir := filepath.Join(t.TempDir(), "fresh")
		saveFullIndex(t, Counts, n, dir)
		return dir
	}

	t.Run("no checksum file", func(t *testing.T) {
		// A manifest without the leading checksum field is format 1 only
		// beside its checksum file; alone, it is corrupt, never absent.
		for _, fx := range []struct{ name, manifest string }{{"plain", index.ManifestFile}, {"chain", lsm.ChainFile}} {
			dir := copyFixture(t, "v1", fx.name)
			if err := os.Remove(index.V1Sidecar(filepath.Join(dir, fx.manifest))); err != nil {
				t.Fatal(err)
			}
			_, err := OpenIndex(dir)
			if !errors.Is(err, index.ErrCorrupt) && !errors.Is(err, lsm.ErrCorrupt) || errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("%s without its checksum file: OpenIndex = %v, want a corruption error", fx.name, err)
			}
		}
	})

	t.Run("plain", func(t *testing.T) {
		dir := copyFixture(t, "v1", "plain")
		full := fresh(len(lsmDocs))
		assertOpenEqual(t, dir, full)

		saveFullIndexWith(t, Counts, len(lsmDocs), dir, SaveOptions{Replace: true})
		assertFormat(t, filepath.Join(dir, index.ManifestFile), index.FormatVersion)
		assertNoLeftovers(t, dir)
		assertOpenEqual(t, dir, full)
	})

	t.Run("chain", func(t *testing.T) {
		dir := copyFixture(t, "v1", "chain")
		assertOpenEqual(t, dir, fresh(3))

		// The first append makes the chain mixed, the second appends to it.
		for _, docs := range [][]Document{lsmBatch(3, 4), lsmBatch(4, 5)} {
			if _, err := AppendDelta(ctx, dir, docs, AppendOptions{Count: Options{TempDir: t.TempDir()}}); err != nil {
				t.Fatal(err)
			}
			assertFormat(t, filepath.Join(dir, lsm.ChainFile), lsm.FormatVersion)
		}
		assertFormat(t, filepath.Join(dir, "delta-000001", index.ManifestFile), index.FormatVersion)
		// The format-1 generations keep their checksum files.
		for _, gen := range []string{".", "delta-000000"} {
			if _, err := os.Stat(filepath.Join(dir, gen, "MANIFEST.crc32c")); err != nil {
				t.Fatalf("format-1 generation %s lost its checksum file: %v", gen, err)
			}
		}
		full := fresh(len(lsmDocs))
		assertOpenEqual(t, dir, full)

		stats, err := CompactIndex(dir, CompactOptions{TempDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Compacted || stats.Generations != 4 {
			t.Fatalf("CompactStats = %+v, want 4 generations compacted", stats)
		}
		man, err := lsm.ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		assertSameDataFiles(t, filepath.Join(dir, man.Base.Dir), full)
		assertNoLeftovers(t, dir)
		assertOpenEqual(t, dir, full)
	})
}

// TestFormatV2ChainReadable: a chain whose CHAIN.json is format 2,
// which records no τ, opens at τ = 1 and answers as a fresh count over
// its documents. Its first append rewrites CHAIN.json as the current
// format and keeps τ = 1: an existing chain keeps its τ, whatever the
// append asks for.
func TestFormatV2ChainReadable(t *testing.T) {
	dir := copyFixture(t, "v2", "chain")
	if data, err := os.ReadFile(filepath.Join(dir, lsm.ChainFile)); err != nil || !strings.Contains(string(data), `"version": 2,`) {
		t.Fatalf("fixture CHAIN.json is not format 2 (%v):\n%s", err, data)
	}
	want := func(n int) string {
		dir := filepath.Join(t.TempDir(), "fresh")
		saveFullIndex(t, Counts, n, dir)
		return dir
	}
	assertOpenEqual(t, dir, want(3))

	opts := AppendOptions{Count: Options{MinFrequency: 3, TempDir: t.TempDir()}}
	if _, err := AppendDelta(context.Background(), dir, lsmBatch(3, 5), opts); err != nil {
		t.Fatal(err)
	}
	assertFormat(t, filepath.Join(dir, lsm.ChainFile), lsm.FormatVersion)
	man, err := lsm.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.MinFrequency != 0 || len(man.Deltas) != 2 {
		t.Fatalf("after the append: τ %d over %d deltas, want τ 1 (omitted) over 2", man.MinFrequency, len(man.Deltas))
	}
	assertOpenEqual(t, dir, want(len(lsmDocs)))
}

// TestCommitCrashPoints: every write commits with one rename, so a
// crash during it leaves one of two states — everything written but the
// rename, the new manifest still under its *.tmp name; or everything
// but the best-effort cleanup after the rename. Each state is built
// from the directory trees before and after the write. Crashed before
// the rename, the old state opens with identical answers — for a first
// write (a fresh save, the append that creates a chain) it reads as no
// index, and the write redone over it succeeds; crashed after it, the
// new state does; either way the next write succeeds. After every
// successful write no *.crc32c or *.tmp file is left.
func TestCommitCrashPoints(t *testing.T) {
	ctx := context.Background()
	save := func(n int, replace bool) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			saveFullIndexWith(t, Counts, n, dir, SaveOptions{Replace: replace})
		}
	}
	appendDocs := func(lo, hi int) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			opts := AppendOptions{Count: Options{MaxLength: 5, TempDir: t.TempDir()}}
			if _, err := AppendDelta(ctx, dir, lsmBatch(lo, hi), opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	compact := func(t *testing.T, dir string) {
		if _, err := CompactIndex(dir, CompactOptions{TempDir: t.TempDir()}); err != nil {
			t.Fatal(err)
		}
	}
	wants := map[int]string{}
	for _, n := range []int{3, 5} {
		wants[n] = filepath.Join(t.TempDir(), "want")
		saveFullIndex(t, Counts, n, wants[n])
	}

	for _, tc := range []struct {
		name     string
		manifest string // the file the write commits
		setup    []func(*testing.T, string)
		write    func(*testing.T, string)
		next     func(*testing.T, string)
		// docsBefore and docsAfter are the documents the directory covers
		// before and after the write; 0 is no index at all.
		docsBefore, docsAfter int
	}{
		{"fresh save", index.ManifestFile, nil, save(5, false), save(5, true), 0, 5},
		{"creating append", lsm.ChainFile, nil, appendDocs(0, 3), appendDocs(0, 3), 0, 3},
		{"replacing save", index.ManifestFile, []func(*testing.T, string){save(3, false)}, save(5, true), save(5, true), 3, 5},
		{"append", lsm.ChainFile, []func(*testing.T, string){save(2, false), appendDocs(2, 3)}, appendDocs(3, 5), appendDocs(3, 5), 3, 5},
		{"compaction swap", lsm.ChainFile, []func(*testing.T, string){save(2, false), appendDocs(2, 3), appendDocs(3, 5)}, compact, compact, 5, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			after := filepath.Join(t.TempDir(), "idx")
			for _, f := range tc.setup {
				f(t, after)
				assertNoLeftovers(t, after)
			}
			before := filepath.Join(t.TempDir(), "before")
			if len(tc.setup) > 0 {
				if err := os.CopyFS(before, os.DirFS(after)); err != nil {
					t.Fatal(err)
				}
			}
			tc.write(t, after)
			assertNoLeftovers(t, after)
			assertOpenEqual(t, after, wants[tc.docsAfter])

			for _, renamed := range []bool{false, true} {
				dir := crashState(t, before, after, tc.manifest, renamed)
				switch {
				case renamed:
					assertOpenEqual(t, dir, wants[tc.docsAfter])
				case tc.docsBefore > 0:
					assertOpenEqual(t, dir, wants[tc.docsBefore])
				default:
					if _, err := OpenIndex(dir); !errors.Is(err, fs.ErrNotExist) {
						t.Fatalf("crashed first write: OpenIndex = %v, want no index", err)
					}
				}
				tc.next(t, dir)
				assertNoLeftovers(t, dir)
				if !renamed && tc.docsBefore == 0 {
					// The write redone over the leavings of the crashed one
					// (an orphan generation the next append must sweep).
					assertOpenEqual(t, dir, wants[tc.docsAfter])
				}
				ix, err := OpenIndex(dir)
				if err != nil {
					t.Fatalf("after the write that followed the crash: %v", err)
				}
				ix.Close()
			}
		})
	}
}

// crashState builds, in a fresh directory, what a crash at the commit
// rename of manifest leaves when a write turned the tree before into
// the tree after: every file of both trees (no file but the manifest
// is ever rewritten in place), the manifest at its old content with the
// new one beside it under its *.tmp name — or, renamed, the new
// manifest in place.
func crashState(t *testing.T, before, after, manifest string, renamed bool) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "crashed")
	if err := os.CopyFS(dir, os.DirFS(after)); err != nil {
		t.Fatal(err)
	}
	if !renamed {
		if err := os.Rename(filepath.Join(dir, manifest), filepath.Join(dir, manifest+".tmp")); err != nil {
			t.Fatal(err)
		}
	}
	err := filepath.WalkDir(before, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(before, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, rel)
		if _, err := os.Stat(dst); err == nil {
			return nil // in both trees: the after tree's copy is current
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(dst), 0o777); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o666)
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	return dir
}
