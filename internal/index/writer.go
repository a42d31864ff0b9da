package index

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"ngramstats/internal/extsort"
)

// WriterOptions configures an index build.
type WriterOptions struct {
	// Corpus names the corpus the records were computed over.
	Corpus string
	// Kind is the aggregation kind of the record values (the integer
	// value of core.AggregationKind; this package does not interpret
	// values beyond storing them).
	Kind int
	// Records is the exact number of records that will be appended.
	// Commit fails on a mismatch — the count drives shard cutting and
	// is the reader's consistency anchor.
	Records int64
	// Shards is the desired shard count; values < 1 select 1 and the
	// effective count never exceeds the record count.
	Shards int
	// Codec selects the optional per-block compression of shard files.
	Codec extsort.Codec
	// Jobs, Wallclock, and Counters snapshot the producing run for the
	// manifest (all optional).
	Jobs      int
	Wallclock time.Duration
	Counters  map[string]int64
	// Docs, MaxLength, MinFrequency, Selection, and DictUnranked are
	// recorded verbatim in the manifest (see the manifest type for their
	// meaning); all are optional and this package does not interpret
	// them.
	Docs         int64
	MaxLength    int
	MinFrequency int64
	Selection    int
	DictUnranked bool
	// Replace allows writing over a directory that already contains a
	// committed index. The new index's data files are staged in a fresh
	// generation subdirectory and the manifest is swapped in atomically
	// at Commit, so concurrent readers of the old index (and Opens
	// racing the swap) are never disturbed: an open Index keeps serving
	// the old generation's files until it is closed, and the directory
	// is openable at every instant of the replacement. The files of the
	// replaced generation are unlinked after the swap.
	Replace bool
}

// Writer builds an index directory. Usage: NewWriter, SetDictionary,
// Append every record in ascending key order, optionally AppendTop the
// precomputed top records in rank order, then Commit. The manifest is
// written last and atomically, so a crashed or aborted build is never
// mistaken for a complete index.
type Writer struct {
	dir  string
	opts WriterOptions
	man  manifest

	// sub is the directory-relative generation subdirectory data files
	// are written into when replacing an existing index ("" writes the
	// flat layout into dir directly); stale lists the replaced
	// generation's files, unlinked after Commit's manifest swap.
	sub   string
	stale []string

	perShard  int64
	appended  int64
	lastKey   []byte
	haveDict  bool
	committed bool

	cur *shardFile // open shard being appended to
	top *shardFile // open top.run, if any
}

// shardFile is one run file being written.
type shardFile struct {
	path  string // absolute
	rel   string // dir-relative, as recorded in the manifest
	f     *os.File
	bw    *bufio.Writer
	rw    *extsort.RunWriter
	first []byte
	last  []byte
}

// NewWriter creates the index directory (which must not already contain
// an index) and returns a writer for it.
func NewWriter(dir string, opts WriterOptions) (*Writer, error) {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.Records < 0 {
		return nil, fmt.Errorf("index: negative record count %d", opts.Records)
	}
	if int64(opts.Shards) > opts.Records && opts.Records > 0 {
		opts.Shards = int(opts.Records)
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("index: create %s: %w", dir, err)
	}
	var sub string
	var stale []string
	if _, err := os.Stat(filepath.Join(dir, ManifestFile)); err == nil {
		if !opts.Replace {
			return nil, fmt.Errorf("index: %s already contains an index", dir)
		}
		// Replacing a committed index: stage the new generation's data
		// files in a fresh subdirectory so nothing the old manifest
		// references is touched before the manifest swap, and remember
		// the old generation's files for post-swap cleanup.
		stale = committedFiles(dir)
		gen, err := os.MkdirTemp(dir, "gen-")
		if err != nil {
			return nil, fmt.Errorf("index: create generation dir: %w", err)
		}
		sub = filepath.Base(gen)
	}
	perShard := int64(1)
	if opts.Records > 0 {
		perShard = (opts.Records + int64(opts.Shards) - 1) / int64(opts.Shards)
	}
	w := &Writer{dir: dir, opts: opts, sub: sub, stale: stale, perShard: perShard}
	w.man = manifest{
		Version:      FormatVersion,
		Corpus:       opts.Corpus,
		Kind:         opts.Kind,
		Records:      opts.Records,
		Jobs:         opts.Jobs,
		WallclockNS:  opts.Wallclock.Nanoseconds(),
		Counters:     opts.Counters,
		Docs:         opts.Docs,
		MaxLength:    opts.MaxLength,
		MinFrequency: opts.MinFrequency,
		Selection:    opts.Selection,
		DictUnranked: opts.DictUnranked,
	}
	return w, nil
}

// committedFiles lists the data files the directory's committed
// manifest references (dir-relative), best-effort: a malformed old
// manifest simply yields nothing to clean up.
func committedFiles(dir string) []string {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil
	}
	var man manifest
	if json.Unmarshal(data, &man) != nil {
		return nil
	}
	var files []string
	if man.Dict.File != "" {
		files = append(files, man.Dict.File)
	}
	for _, s := range man.Shards {
		files = append(files, s.File)
	}
	if man.Top != nil {
		files = append(files, man.Top.File)
	}
	return files
}

// SetDictionary writes the dictionary file from the given serializer,
// recording its size and CRC-32C in the manifest.
func (w *Writer) SetDictionary(save func(io.Writer) error) error {
	rel := filepath.Join(w.sub, DictionaryFile)
	f, err := os.Create(filepath.Join(w.dir, rel))
	if err != nil {
		return fmt.Errorf("index: create dictionary: %w", err)
	}
	crc := crc32.New(crcTable)
	counted := &countingWriter{w: io.MultiWriter(f, crc)}
	if err := save(counted); err != nil {
		f.Close()
		return fmt.Errorf("index: write dictionary: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("index: close dictionary: %w", err)
	}
	w.man.Dict = fileInfo{File: rel, Bytes: counted.n, CRC: crc.Sum32()}
	w.haveDict = true
	return nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (w *Writer) openShard(name string) (*shardFile, error) {
	rel := filepath.Join(w.sub, name)
	path := filepath.Join(w.dir, rel)
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("index: create shard: %w", err)
	}
	bw := bufio.NewWriterSize(f, 256<<10)
	return &shardFile{path: path, rel: rel, f: f, bw: bw, rw: extsort.NewRunWriter(bw, w.opts.Codec)}, nil
}

// finishShard completes the open run file and returns its inventory.
func finishShard(s *shardFile) (fileInfo, []byte, []byte, error) {
	size, err := s.rw.Finish()
	if err == nil {
		err = s.bw.Flush()
	}
	if err == nil {
		err = s.f.Close()
	} else {
		s.f.Close()
	}
	if err != nil {
		os.Remove(s.path)
		return fileInfo{}, nil, nil, fmt.Errorf("index: finish %s: %w", s.path, err)
	}
	return fileInfo{File: s.rel, Bytes: size, Records: s.rw.Records()},
		s.first, s.last, nil
}

// Append adds one record. Keys must arrive in strictly ascending
// bytewise order (the result set has unique keys); violations are
// rejected immediately rather than producing an index whose binary
// search silently misses records.
func (w *Writer) Append(key, value []byte) error {
	if w.appended >= w.opts.Records {
		return fmt.Errorf("index: more than the declared %d records appended", w.opts.Records)
	}
	if w.lastKey != nil && bytes.Compare(key, w.lastKey) <= 0 {
		return fmt.Errorf("index: key %x not strictly after %x", key, w.lastKey)
	}
	if w.cur == nil {
		s, err := w.openShard(fmt.Sprintf("shard-%05d.run", len(w.man.Shards)))
		if err != nil {
			return err
		}
		s.first = append([]byte(nil), key...)
		w.cur = s
	}
	if err := w.cur.rw.Append(key, value); err != nil {
		return fmt.Errorf("index: append record: %w", err)
	}
	w.cur.last = append(w.cur.last[:0], key...)
	w.lastKey = append(w.lastKey[:0], key...)
	w.appended++
	if w.cur.rw.Records() >= w.perShard {
		if err := w.cutShard(); err != nil {
			return err
		}
	}
	return nil
}

func (w *Writer) cutShard() error {
	info, first, last, err := finishShard(w.cur)
	w.cur = nil
	if err != nil {
		return err
	}
	w.man.Shards = append(w.man.Shards, shardInfo{fileInfo: info, FirstKey: first, LastKey: last})
	return nil
}

// AppendTop adds one precomputed top record; call in rank order, best
// first. The top file preserves append order (the run format does not
// require sorted keys).
func (w *Writer) AppendTop(key, value []byte) error {
	if w.top == nil {
		s, err := w.openShard(TopFile)
		if err != nil {
			return err
		}
		w.top = s
	}
	if err := w.top.rw.Append(key, value); err != nil {
		return fmt.Errorf("index: append top record: %w", err)
	}
	return nil
}

// Commit finalizes the index: the open shard and top files are
// completed, then the manifest, carrying its own checksum, is written
// to a temp file and renamed into place — one rename commits the index
// (see WriteManifest). The writer must not be used afterwards.
func (w *Writer) Commit() error {
	if w.appended != w.opts.Records {
		w.Abort()
		return fmt.Errorf("index: %d records appended, %d declared", w.appended, w.opts.Records)
	}
	if !w.haveDict {
		w.Abort()
		return fmt.Errorf("index: Commit without SetDictionary")
	}
	if w.cur != nil {
		if err := w.cutShard(); err != nil {
			w.Abort()
			return err
		}
	}
	if w.top != nil {
		info, _, _, err := finishShard(w.top)
		w.top = nil
		if err != nil {
			w.Abort()
			return err
		}
		w.man.Top = &info
	}
	if w.man.Shards == nil {
		w.man.Shards = []shardInfo{}
	}
	// The manifest rename is the commit point: a crash before it leaves
	// no MANIFEST.json (fresh build) or the old index's (replacement),
	// so the directory is never mistaken for a complete new index.
	if err := WriteManifest(filepath.Join(w.dir, ManifestFile), &w.man); err != nil {
		w.Abort()
		return fmt.Errorf("index: commit manifest: %w", err)
	}
	w.committed = true
	if w.sub != "" {
		// Post-swap, best-effort: unlink the replaced generation's files
		// (open readers keep serving them through their file
		// descriptors).
		w.cleanupStale()
	}
	return nil
}

// cleanupStale removes the replaced generation's files that the new
// manifest does not reference, then any generation directories left
// empty. Best-effort: leftovers are harmless (the manifest is the sole
// source of truth) and a future replacement sweeps them again.
func (w *Writer) cleanupStale() {
	live := map[string]bool{w.man.Dict.File: true}
	for _, s := range w.man.Shards {
		live[s.File] = true
	}
	if w.man.Top != nil {
		live[w.man.Top.File] = true
	}
	dirs := map[string]bool{}
	for _, f := range w.stale {
		if live[f] || !staleRemovable(f) {
			continue
		}
		os.Remove(filepath.Join(w.dir, f))
		if d := filepath.Dir(f); d != "." {
			dirs[d] = true
		}
	}
	for d := range dirs {
		os.Remove(filepath.Join(w.dir, d)) // fails while non-empty; fine
	}
}

// staleRemovable reports whether a dir-relative path from a replaced
// manifest is one this writer may unlink: a flat file directly in the
// index directory, or a file in a "gen-" staging subdirectory (the only
// subdirectories this package ever creates). Everything else —
// absolute or escaping paths, and unknown subdirectories such as the
// delta-NNNNNN/base-NNNNNN generations of an LSM chain sharing the
// root — is left alone, so replacing a plain index never reaches into
// structures owned by a different (possibly future) layout.
func staleRemovable(f string) bool {
	if f == "" || !filepath.IsLocal(f) {
		return false
	}
	d := filepath.Dir(f)
	if d == "." {
		return true
	}
	for {
		parent := filepath.Dir(d)
		if parent == "." {
			break
		}
		d = parent
	}
	return len(d) > 4 && d[:4] == "gen-"
}

// Abort removes every file the writer has produced so far. It is safe
// to call after a failed Commit; a committed index is not removed, and
// when the writer was replacing an existing index the old index is
// left exactly as it was.
func (w *Writer) Abort() {
	if w.committed {
		return
	}
	if w.cur != nil {
		w.cur.f.Close()
		os.Remove(w.cur.path)
		w.cur = nil
	}
	if w.top != nil {
		w.top.f.Close()
		os.Remove(w.top.path)
		w.top = nil
	}
	if w.sub != "" {
		// Everything staged lives in the generation subdirectory; the
		// old index's files were never touched.
		os.RemoveAll(filepath.Join(w.dir, w.sub))
		return
	}
	if _, err := os.Stat(filepath.Join(w.dir, ManifestFile)); err == nil {
		return // committed by an earlier writer; leave the index intact
	}
	for _, s := range w.man.Shards {
		os.Remove(filepath.Join(w.dir, s.File))
	}
	os.Remove(filepath.Join(w.dir, DictionaryFile))
	os.Remove(filepath.Join(w.dir, TopFile))
}
