// Package lsm makes saved indexes appendable, LSM-style: a chain
// directory holds one base index plus an ordered sequence of delta
// indexes, tied together by a versioned, checksummed chain manifest.
//
// The paper computes n-gram statistics as a one-shot batch job; the
// ROADMAP's path to updatable indexes is the classic log-structured
// merge arrangement on top of that job. New documents are counted by
// the exact same computation, restricted to just those documents, and
// the resulting index is linked as a delta generation; reads merge
// base and deltas on the fly (aggregate cells summed across
// generations); a background compactor streams every generation's
// sorted runs through one merge + combine pass into a fresh base that
// is byte-identical to a from-scratch rebuild over all documents.
//
// A chain directory looks like
//
//	CHAIN.json       the chain manifest: its own CRC-32C, format
//	                 version, corpus, aggregation kind, σ, serving τ,
//	                 cumulative document count, and the ordered
//	                 generation inventory
//	<base dir>       a complete plain index directory: "." for a chain
//	                 that adopted a pre-existing flat index in place,
//	                 base-NNNNNN for a chain created by its first append
//	                 or a compacted base
//	delta-NNNNNN/    one complete plain index directory per delta
//	                 generation, oldest first
//
// Every generation is a self-contained internal/index directory with
// its own manifest, dictionary, and checksums; the chain manifest adds
// only the ordering and the cross-generation invariants.
//
// # The threshold
//
// Every generation stores τ = 1: a per-generation threshold would drop
// an n-gram whose occurrences are split across generations. The
// chain's τ thresholds the folded frequency instead, which commutes
// with the fold: the chain manifest records it, and only the View
// applies it.
//
// # The dictionary contract
//
// Term identifiers are chain-global: a delta's dictionary is seeded
// from the newest previous generation's, so an identifier, once
// assigned, names the same term in every later generation, and new
// terms are appended after the inherited ones with frequencies
// continued cumulatively. Encoded keys from different generations are
// therefore directly comparable bytes, which is what lets the merge
// tree and the compactor treat generations as just more sorted runs.
// The newest generation's dictionary alone carries the cumulative
// (term, frequency) table, so it is the only one ever parsed: an append
// parses it once to seed the next delta, an open once to serve through
// it; the older generations' dictionaries are verified against their
// manifests' size and checksum and not read further.
//
// # One identifier space per chain
//
// A View serves in the chain's own identifier space: keys, key order
// and the records a bounded scan reaches first follow the newest
// generation's dictionary, and nothing is translated on a read. The
// set of (n-gram, aggregate) pairs a view holds is exactly a full
// rebuild's; only the identifiers spelling them differ, and only until
// compaction. Compaction is the one place identifiers are ranked: it
// ranks the newest dictionary exactly as a rebuild's Builder would
// (dictionary.Rank), translates every merged key into it and re-sorts,
// so the compacted base is byte-identical to the rebuild.
//
// # Crash safety
//
// Every mutation of the chain is committed by one rename: CHAIN.json,
// which carries its own checksum, is written to a temp file and renamed
// into place (index.WriteManifest, the same commit as an index
// manifest's). An append builds the delta index completely, commits
// it, and only then links it; a compaction builds the new base
// completely and only then swaps the manifest. A crash at any point
// leaves the previous manifest in place, referencing only complete
// generations; unreferenced generation directories are swept by the
// next mutation. Corruption anywhere — the chain manifest or any
// generation — surfaces as an error wrapping ErrCorrupt (or the index
// package's own corruption errors), never as wrong counts.
//
// Mutations assume a single writer per chain (the serving layer
// serializes appends and compactions per index); readers need no
// coordination at all.
package lsm

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"ngramstats/internal/index"
)

// FormatVersion identifies the chain manifest layout. Writers produce
// only this version, which added the serving τ (a reader that ignored
// it would serve unfiltered counts). ReadManifest also reads format 2
// and format 1, whose checksum lived in a CHAIN.crc32c sidecar, both as
// τ = 1, and rejects any other.
const FormatVersion = 3

// File and directory names within a chain directory.
const (
	ChainFile   = "CHAIN.json"
	DeltaDirFmt = "delta-%06d"
	BaseDirFmt  = "base-%06d"
)

// ErrCorrupt is wrapped by every error reported for a malformed,
// truncated, or inconsistent chain. Damage inside a generation
// surfaces as that index's own corruption error; callers should treat
// either as "this chain cannot be trusted".
var ErrCorrupt = errors.New("lsm: corrupt chain")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// GenInfo inventories one generation of the chain.
type GenInfo struct {
	// Dir is the generation's index directory, relative to the chain
	// directory ("." for an adopted flat base).
	Dir string `json:"dir"`
	// Records is the generation's record count, as its own manifest
	// declares it (cross-checked at open).
	Records int64 `json:"records"`
	// Docs is the number of documents this generation covers: for the
	// base, all documents up to and including it; for a delta, just the
	// documents counted into that delta.
	Docs int64 `json:"docs"`
}

// Manifest is the serialized form of CHAIN.json.
type Manifest struct {
	Version int    `json:"version"`
	Corpus  string `json:"corpus"`
	// Kind is the aggregation kind shared by every generation (the
	// integer value of core.AggregationKind).
	Kind int `json:"aggregation"`
	// MaxLength is the σ shared by every generation.
	MaxLength int `json:"max_length"`
	// Compress records whether generations are written with block
	// compression, so appends and compactions reproduce the setting.
	Compress bool `json:"compress,omitempty"`
	// MinFrequency is the chain's τ: the view answers an n-gram only if
	// its frequency folded across generations reaches it. 0 (omitted)
	// means 1.
	MinFrequency int64 `json:"min_frequency,omitempty"`
	// Docs is the cumulative document count across base and deltas —
	// the next delta's first document identifier.
	Docs int64 `json:"docs"`
	// Seq numbers generation directories: the next delta or compacted
	// base is created as delta-Seq/base-Seq. It only grows, so retired
	// directory names are never reused while readers may still hold
	// them.
	Seq    int       `json:"seq"`
	Base   GenInfo   `json:"base"`
	Deltas []GenInfo `json:"deltas"`

	// mtime is the modification time of the CHAIN.json the manifest was
	// read from, taken from the handle its bytes were read through.
	mtime time.Time
}

// Gens returns the generations in merge order: base first, then deltas
// oldest to newest.
func (m *Manifest) Gens() []GenInfo {
	return append([]GenInfo{m.Base}, m.Deltas...)
}

// Records returns the total record count across generations — an upper
// bound on the merged view's distinct n-grams (an n-gram present in
// several generations is counted once per generation here).
func (m *Manifest) Records() int64 {
	n := m.Base.Records
	for _, d := range m.Deltas {
		n += d.Records
	}
	return n
}

// ManifestTime returns the modification time of the manifest that
// governs dir: CHAIN.json when dir holds a chain, else the plain
// index's MANIFEST.json. A serving layer compares it with
// View.ManifestTime to tell that the directory was rewritten
// (replaced, appended to, or compacted).
func ManifestTime(dir string) (time.Time, error) {
	st, err := os.Stat(filepath.Join(dir, ChainFile))
	if errors.Is(err, fs.ErrNotExist) {
		st, err = os.Stat(filepath.Join(dir, index.ManifestFile))
	}
	if err != nil {
		return time.Time{}, err
	}
	return st.ModTime(), nil
}

// ReadManifest reads, checksum-verifies, and validates the chain
// manifest of dir. A directory without one fails with an error
// wrapping fs.ErrNotExist.
func ReadManifest(dir string) (*Manifest, error) {
	var man Manifest
	v1, mtime, err := index.ReadManifest(filepath.Join(dir, ChainFile), &man, ErrCorrupt)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			err = fmt.Errorf("lsm: open chain %s: %w", dir, err)
		}
		return nil, err
	}
	if v1 != (man.Version == 1) || man.Version < 1 || man.Version > FormatVersion {
		return nil, corruptf("unsupported chain format version %d", man.Version)
	}
	if err := validGenDir(man.Base.Dir); err != nil {
		return nil, err
	}
	for _, d := range man.Deltas {
		if err := validGenDir(d.Dir); err != nil {
			return nil, err
		}
		if d.Dir == "." {
			return nil, corruptf("delta generation claims the chain root")
		}
	}
	man.mtime = mtime
	return &man, nil
}

// validGenDir rejects generation paths that would escape the chain
// directory — a corrupted or hostile manifest must never direct reads
// (or orphan sweeps) outside the chain.
func validGenDir(d string) error {
	if d == "." {
		return nil
	}
	if d == "" || !filepath.IsLocal(d) || filepath.Dir(d) != "." {
		return corruptf("invalid generation directory %q", d)
	}
	return nil
}

// WriteManifest atomically replaces (or creates) the chain manifest
// with one rename (see index.WriteManifest); a format-1 chain's
// CHAIN.crc32c goes once the new manifest is in place.
func WriteManifest(dir string, man *Manifest) error {
	man.Version = FormatVersion
	if man.MinFrequency <= 1 {
		man.MinFrequency = 0
	}
	if err := index.WriteManifest(filepath.Join(dir, ChainFile), man); err != nil {
		return fmt.Errorf("lsm: write chain manifest: %w", err)
	}
	return nil
}
