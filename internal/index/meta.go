package index

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"ngramstats/internal/dictionary"
)

// Meta is the checksum-verified manifest of an index directory,
// readable without opening its shards. LSM chain maintenance uses it to
// validate that an index qualifies as a chain generation (τ = 1, no
// selection, recorded document count) before adopting or extending
// it; Meta.Open opens the index from it without reading the manifest
// again.
type Meta struct {
	manifest
	// ModTime is the modification time of the MANIFEST.json read, taken
	// from the handle its bytes were read through.
	ModTime time.Time
	dir     string
}

// ReadMeta reads an index directory's manifest. Its checksum is
// verified; the shard files are not touched. A directory without a
// manifest fails with an error wrapping fs.ErrNotExist.
func ReadMeta(dir string) (Meta, error) {
	m := Meta{dir: dir}
	v1, mtime, err := ReadManifest(filepath.Join(dir, ManifestFile), &m.manifest, ErrCorrupt)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			err = fmt.Errorf("index: open %s: %w", dir, err)
		}
		return Meta{}, err
	}
	want := FormatVersion
	if v1 {
		want = 1
	}
	if m.Version != want {
		return Meta{}, corruptf("unsupported index format version %d", m.Version)
	}
	m.ModTime = mtime
	return m, nil
}

// OpenDictionary loads only the dictionary of an index directory,
// verified against the manifest's size and checksum and parsed with
// the rank check the manifest calls for. It is how an LSM append seeds
// the next generation's dictionary from the newest one without opening
// the full index.
func OpenDictionary(dir string) (*dictionary.Dictionary, error) {
	m, err := ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	return readDictionary(dir, m.manifest, true)
}
