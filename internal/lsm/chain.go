package lsm

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ngramstats/internal/index"
)

// Adopt builds the in-memory manifest for turning the committed plain
// index at dir into the base of a new chain, without writing anything:
// the first successful append links the first delta and persists the
// manifest in the same commit, so a chain only ever exists with its
// invariants already holding. The caller sets its compression and τ.
//
// Only indexes whose manifests record an appendable computation
// qualify: τ = 1 (a threshold drops an n-gram whose occurrences are
// split across generations, breaking merge equivalence; the chain's own
// τ filters the fold instead), no maximal/closed selection (selection
// is a global property of the counts), and a recorded σ and document
// count. Indexes written before those fields existed record τ = 0 and
// are refused. A directory that holds no index fails wrapping
// fs.ErrNotExist.
func Adopt(dir string) (*Manifest, error) {
	meta, err := index.ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	if err := appendable(meta.MinFrequency, meta.Selection); err != nil {
		return nil, fmt.Errorf("lsm: cannot adopt %s as a chain base: %w", dir, err)
	}
	return adopted(meta), nil
}

// adopted is the one-generation manifest of the plain index meta
// describes, with base ".": what Adopt links the first delta onto, and
// what OpenChain serves a directory without a chain manifest as.
func adopted(meta index.Meta) *Manifest {
	return &Manifest{
		Version:   FormatVersion,
		Corpus:    meta.Corpus,
		Kind:      meta.Kind,
		MaxLength: meta.MaxLength,
		Docs:      meta.Docs,
		Seq:       0,
		Base:      GenInfo{Dir: ".", Records: meta.Records, Docs: meta.Docs},
		mtime:     meta.ModTime,
	}
}

// appendable reports why an index computed with τ = minFreq and the
// given selection mode cannot be a chain generation, or nil.
func appendable(minFreq int64, selection int) error {
	if minFreq != 1 {
		return fmt.Errorf("computed with τ = %d, need τ = 1", minFreq)
	}
	if selection != 0 {
		return fmt.Errorf("computed with selection mode %d, need none", selection)
	}
	return nil
}

// NextGenDir reserves the directory name for the chain's next
// generation and bumps Seq: the base of a chain that has none yet,
// else the next delta. The caller builds a complete index there, then
// links it with AppendGen.
func (m *Manifest) NextGenDir() string {
	if m.Base.Dir == "" {
		return m.NextBaseDir()
	}
	d := fmt.Sprintf(DeltaDirFmt, m.Seq)
	m.Seq++
	return d
}

// NextBaseDir reserves the directory name for the next compacted base
// and bumps Seq.
func (m *Manifest) NextBaseDir() string {
	d := fmt.Sprintf(BaseDirFmt, m.Seq)
	m.Seq++
	return d
}

// AppendGen links a committed index as the chain's newest generation
// — its base, if it has none yet — and persists the manifest: the
// commit point of an append, and of the chain's creation. gen.Dir must
// be a directory name from NextGenDir; the index's own metadata is
// cross-checked against the chain invariants first.
func AppendGen(dir string, man *Manifest, gen GenInfo) error {
	meta, err := index.ReadMeta(filepath.Join(dir, gen.Dir))
	if err != nil {
		return err
	}
	if err := appendable(meta.MinFrequency, meta.Selection); err != nil {
		return fmt.Errorf("lsm: generation %s: %w", gen.Dir, err)
	}
	if meta.Kind != man.Kind || meta.MaxLength != man.MaxLength || meta.Corpus != man.Corpus {
		return fmt.Errorf("lsm: generation %s (corpus %q, kind %d, σ %d) does not match chain (corpus %q, kind %d, σ %d)",
			gen.Dir, meta.Corpus, meta.Kind, meta.MaxLength, man.Corpus, man.Kind, man.MaxLength)
	}
	if man.Base.Dir == "" {
		man.Base = gen
	} else {
		man.Deltas = append(man.Deltas, gen)
	}
	man.Docs += gen.Docs
	return WriteManifest(dir, man)
}

// SwapBase commits a compaction: the chain's generations captured in
// prev are replaced by the single compacted base, and any deltas
// appended since prev was read are carried over. The manifest is
// re-read and prev verified to still be a prefix of it, so a
// compaction that raced a concurrent writer fails loudly instead of
// silently dropping a generation.
func SwapBase(dir string, prev *Manifest, base GenInfo) (*Manifest, error) {
	cur, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if cur.Base != prev.Base || len(cur.Deltas) < len(prev.Deltas) {
		return nil, fmt.Errorf("lsm: chain %s changed during compaction", dir)
	}
	for i, d := range prev.Deltas {
		if cur.Deltas[i] != d {
			return nil, fmt.Errorf("lsm: chain %s changed during compaction", dir)
		}
	}
	// The compactor allocated base's directory name from prev's sequence
	// (NextBaseDir bumps it in memory only); persist whichever sequence
	// is further along so retired directory names are never reused.
	seq := cur.Seq
	if prev.Seq > seq {
		seq = prev.Seq
	}
	next := &Manifest{
		Version:      FormatVersion,
		Corpus:       cur.Corpus,
		Kind:         cur.Kind,
		MaxLength:    cur.MaxLength,
		Compress:     cur.Compress,
		MinFrequency: cur.MinFrequency,
		Docs:         cur.Docs,
		Seq:          seq,
		Base:         base,
		Deltas:       append([]GenInfo(nil), cur.Deltas[len(prev.Deltas):]...),
	}
	if err := WriteManifest(dir, next); err != nil {
		return nil, err
	}
	// Best-effort retirement of the replaced generations. Open views
	// keep serving through their file descriptors; an adopted flat base
	// ("." ) additionally leaves its root-level files to RemoveFlatBase,
	// which the compactor calls once the swap is visible.
	for _, g := range append([]GenInfo{prev.Base}, prev.Deltas...) {
		if g.Dir != "." {
			os.RemoveAll(filepath.Join(dir, g.Dir))
		}
	}
	return next, nil
}

// RemoveFlatBase unlinks the root-level files of a replaced adopted
// base (the plain index that lived flat in the chain directory before
// the first compaction), with a format-1 base's MANIFEST.crc32c.
// Best-effort; only the canonical index file names are touched.
func RemoveFlatBase(dir string) {
	man := filepath.Join(dir, index.ManifestFile)
	os.Remove(man)
	os.Remove(index.V1Sidecar(man))
	os.Remove(filepath.Join(dir, index.DictionaryFile))
	os.Remove(filepath.Join(dir, index.TopFile))
	if shards, err := filepath.Glob(filepath.Join(dir, "shard-*.run")); err == nil {
		for _, s := range shards {
			os.Remove(s)
		}
	}
}

// SweepOrphans removes generation directories (delta-* / base-*) the
// manifest does not reference — the leavings of a crashed append or
// compaction. Best-effort, and called only from the chain's single
// writer so it can never race a mutation in flight.
func SweepOrphans(dir string, man *Manifest) {
	live := map[string]bool{man.Base.Dir: true}
	for _, d := range man.Deltas {
		live[d.Dir] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || live[name] {
			continue
		}
		if strings.HasPrefix(name, "delta-") || strings.HasPrefix(name, "base-") {
			os.RemoveAll(filepath.Join(dir, name))
		}
	}
}
