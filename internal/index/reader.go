package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"ngramstats/internal/dictionary"
	"ngramstats/internal/extsort"
	"ngramstats/internal/kvstore"
)

// Options configures Open.
type Options struct {
	// CacheBlocks bounds the decoded-block LRU cache in blocks (a block
	// decodes to ~64 KiB). Zero selects 128; negative disables caching.
	CacheBlocks int
	// NoDictionary verifies the dictionary file's size and checksum
	// against the manifest without parsing it; Dictionary then returns
	// nil. An LSM chain opens every generation but its newest this way:
	// identifiers are chain-global, so only the newest generation's
	// cumulative table is ever read.
	NoDictionary bool
}

// Index is a read-only handle on a committed index directory. All state
// is immutable after Open and shard reads use pread, so any number of
// goroutines may query one Index concurrently without external locking.
//
// Close is refcounted against in-flight queries: every file-touching
// query pins the handle for its duration, Close marks the handle closed
// immediately (new queries fail with ErrClosed) and the shard files are
// actually closed when the last in-flight query drains — so a serving
// layer may retire an index generation under live traffic without
// coordinating with its readers. Retain adds an owner, so that several
// chain views can share one open generation: each owner closes once,
// and the handle is closed when the last of them has.
type Index struct {
	dir     string
	man     manifest
	manTime time.Time // mtime of the MANIFEST.json read at Open
	dict    *dictionary.Dictionary
	shards  []*shard
	top     *extsort.DecodedBlock // nil when absent; rank order
	topN    int64
	cache   *kvstore.LRU

	// refs counts the handle's own base reference (1) plus one per
	// in-flight query; the transition to 0 closes the shard files.
	// owners counts the Closes still owed (1 after Open, one more per
	// Retain); the last one drops the base reference, and from then on
	// new acquisitions fail.
	refs   atomic.Int64
	owners atomic.Int64
}

// shard is one open sorted shard.
type shard struct {
	f    *os.File
	rr   *extsort.RunReader
	info shardInfo
}

// Open validates and opens an index directory. The manifest inventory
// is cross-checked against the files on disk (sizes, record counts,
// dictionary checksum, shard key ranges); damage detectable without
// reading every block fails here, and per-block damage fails at the
// query that touches it — in both cases with an error wrapping
// ErrCorrupt or extsort.ErrCorruptRun, never wrong answers.
func Open(dir string, opts Options) (*Index, error) {
	m, err := ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	return m.Open(opts)
}

// Open opens the index directory m was read from, as Open does, from
// the manifest already read: the handle and m describe the same bytes.
func (m Meta) Open(opts Options) (*Index, error) {
	dir, man := m.dir, m.manifest
	ix := &Index{dir: dir, man: man, manTime: m.ModTime}
	ix.refs.Store(1) // the handle's own base reference, dropped by the last Close
	ix.owners.Store(1)
	if opts.CacheBlocks == 0 {
		opts.CacheBlocks = 128
	}
	if opts.CacheBlocks > 0 {
		ix.cache = kvstore.NewLRU(opts.CacheBlocks)
	}

	var err error
	if ix.dict, err = readDictionary(dir, man, !opts.NoDictionary); err != nil {
		return nil, err
	}

	var records int64
	var prevLast []byte
	for i, si := range man.Shards {
		sh, err := openShard(dir, si)
		if err != nil {
			ix.Close()
			return nil, err
		}
		ix.shards = append(ix.shards, sh)
		records += si.Records
		if len(si.FirstKey) == 0 || bytes.Compare(si.FirstKey, si.LastKey) > 0 {
			ix.Close()
			return nil, corruptf("shard %d has inverted key range", i)
		}
		if prevLast != nil && bytes.Compare(prevLast, si.FirstKey) >= 0 {
			ix.Close()
			return nil, corruptf("shard %d overlaps its predecessor", i)
		}
		prevLast = si.LastKey
	}
	if records != man.Records {
		ix.Close()
		return nil, corruptf("shards hold %d records, manifest declares %d", records, man.Records)
	}

	if man.Top != nil {
		if err := ix.loadTop(); err != nil {
			ix.Close()
			return nil, err
		}
	}
	return ix, nil
}

// readDictionary reads the dictionary file the manifest names and
// verifies its size and CRC-32C; with parse set it also parses it,
// honoring the manifest's rank flag — unranked dictionaries (LSM delta
// generations) skip the non-increasing frequency check that ranked ones
// are verified against — and otherwise returns nil.
func readDictionary(dir string, man manifest, parse bool) (*dictionary.Dictionary, error) {
	if man.Dict.File == "" {
		return nil, corruptf("manifest names no dictionary")
	}
	data, err := os.ReadFile(filepath.Join(dir, man.Dict.File))
	if err != nil {
		return nil, fmt.Errorf("index: read dictionary: %w", err)
	}
	if int64(len(data)) != man.Dict.Bytes {
		return nil, corruptf("dictionary is %d bytes, manifest declares %d", len(data), man.Dict.Bytes)
	}
	if crc32.Checksum(data, crcTable) != man.Dict.CRC {
		return nil, corruptf("dictionary checksum mismatch")
	}
	if !parse {
		return nil, nil
	}
	load := dictionary.Load
	if man.DictUnranked {
		load = dictionary.LoadUnranked
	}
	d, err := load(bytes.NewReader(data))
	if err != nil {
		return nil, corruptf("parse dictionary: %v", err)
	}
	return d, nil
}

func openShard(dir string, si shardInfo) (*shard, error) {
	path := filepath.Join(dir, si.File)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: open shard: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("index: stat shard: %w", err)
	}
	if st.Size() != si.Bytes {
		f.Close()
		return nil, corruptf("shard %s is %d bytes, manifest declares %d", si.File, st.Size(), si.Bytes)
	}
	rr, err := extsort.OpenRunReader(st.Size(), extsort.FileReadAt(f))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("index: open shard %s: %w", si.File, err)
	}
	if rr.Records() != si.Records {
		f.Close()
		return nil, corruptf("shard %s holds %d records, manifest declares %d", si.File, rr.Records(), si.Records)
	}
	if rr.NumBlocks() > 0 && !bytes.Equal(rr.FirstKey(0), si.FirstKey) {
		f.Close()
		return nil, corruptf("shard %s first key disagrees with manifest", si.File)
	}
	return &shard{f: f, rr: rr, info: si}, nil
}

// loadTop eagerly decodes the precomputed top records (a handful of
// blocks at most) so TopK within the stored depth is a slice read.
func (ix *Index) loadTop() error {
	ti := *ix.man.Top
	path := filepath.Join(ix.dir, ti.File)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("index: open top records: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("index: stat top records: %w", err)
	}
	if st.Size() != ti.Bytes {
		return corruptf("top records file is %d bytes, manifest declares %d", st.Size(), ti.Bytes)
	}
	rr, err := extsort.OpenRunReader(st.Size(), extsort.FileReadAt(f))
	if err != nil {
		return fmt.Errorf("index: open top records: %w", err)
	}
	if rr.Records() != ti.Records {
		return corruptf("top records file holds %d records, manifest declares %d", rr.Records(), ti.Records)
	}
	// Merge the blocks into one, preserving order. One batched read
	// covers the whole file (a handful of blocks at most).
	blks, err := rr.ReadBlocks(0, rr.NumBlocks())
	if err != nil {
		return fmt.Errorf("index: read top records: %w", err)
	}
	merged := &extsort.DecodedBlock{}
	for _, blk := range blks {
		for i := 0; i < blk.Len(); i++ {
			merged.Append(blk.Key(i), blk.Value(i))
		}
	}
	ix.top = merged
	ix.topN = ti.Records
	return nil
}

// acquire pins the index against Close for the duration of one query.
// It fails with ErrClosed once Close has been called: a pin is only
// granted while the reference count is positive, which guarantees the
// shard files cannot be closed before the matching release.
func (ix *Index) acquire() error {
	if ix.owners.Load() <= 0 {
		return ErrClosed
	}
	return addIfPositive(&ix.refs)
}

// addIfPositive increments a reference count unless it has already
// dropped to zero, in which case what it guarded is gone: ErrClosed.
func addIfPositive(n *atomic.Int64) error {
	for {
		r := n.Load()
		if r <= 0 {
			return ErrClosed
		}
		if n.CompareAndSwap(r, r+1) {
			return nil
		}
	}
}

// Retain adds an owner to an open index: it stays open until Close has
// been called once more than before. It fails with ErrClosed once the
// last owner has closed — a closed index is never resurrected.
func (ix *Index) Retain() error { return addIfPositive(&ix.owners) }

// release drops one pin; the last release after Close closes the shard
// files.
func (ix *Index) release() error {
	if ix.refs.Add(-1) == 0 {
		return ix.closeFiles()
	}
	return nil
}

func (ix *Index) closeFiles() error {
	var first error
	for _, sh := range ix.shards {
		if err := sh.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close gives up one ownership of the index. The last owner's Close
// marks the index closed — subsequent queries fail with ErrClosed — and
// drops the handle's base reference: the shard files are closed now if
// no query is in flight, otherwise by the last query to drain; in the
// latter case any file-close error is not reported. Closing a closed
// index does nothing.
func (ix *Index) Close() error {
	for {
		o := ix.owners.Load()
		if o <= 0 {
			return nil
		}
		if ix.owners.CompareAndSwap(o, o-1) {
			if o == 1 {
				return ix.release()
			}
			return nil
		}
	}
}

// Records returns the number of indexed n-grams.
func (ix *Index) Records() int64 { return ix.man.Records }

// Corpus returns the corpus name recorded at save time.
func (ix *Index) Corpus() string { return ix.man.Corpus }

// Kind returns the aggregation kind of the record values (the integer
// value of core.AggregationKind).
func (ix *Index) Kind() int { return ix.man.Kind }

// Jobs returns the number of MapReduce jobs of the producing run.
func (ix *Index) Jobs() int { return ix.man.Jobs }

// Wallclock returns the producing run's total elapsed time.
func (ix *Index) Wallclock() time.Duration { return time.Duration(ix.man.WallclockNS) }

// Counters returns a copy of the producing run's counter snapshot.
func (ix *Index) Counters() map[string]int64 {
	out := make(map[string]int64, len(ix.man.Counters))
	for k, v := range ix.man.Counters {
		out[k] = v
	}
	return out
}

// Shards returns the number of shard files.
func (ix *Index) Shards() int { return len(ix.shards) }

// MaxLength returns the maximum n-gram length (σ) of the producing
// computation, or 0 when unrecorded.
func (ix *Index) MaxLength() int { return ix.man.MaxLength }

// MinFrequency returns the frequency threshold (τ) of the producing
// computation, or 0 when unrecorded.
func (ix *Index) MinFrequency() int64 { return ix.man.MinFrequency }

// Selection returns the selection mode of the producing computation as
// an integer (the value of the root package's Selection type).
func (ix *Index) Selection() int { return ix.man.Selection }

// ShardRuns opens every shard as an extsort merge input, in shard
// (i.e. global key) order, reading through the index's already-open
// file descriptors. The runs are safe to merge even if the underlying
// files are unlinked meanwhile — the LSM compactor relies on exactly
// that to stream a superseded generation into a new base. The caller
// must keep the Index open (not Closed) until the merge completes, and
// may pass a nil stats.
func (ix *Index) ShardRuns(stats *extsort.IOStats) []*extsort.Run {
	runs := make([]*extsort.Run, len(ix.shards))
	for i, sh := range ix.shards {
		runs[i] = extsort.OpenRemoteRun(sh.info.Bytes, int(sh.info.Records), extsort.FileReadAt(sh.f), stats)
	}
	return runs
}

// ManifestTime returns the modification time of the MANIFEST.json the
// index was opened from, taken from the handle its bytes were read
// through — the freshness anchor a serving layer compares against the
// on-disk manifest to detect a rewritten index.
func (ix *Index) ManifestTime() time.Time { return ix.manTime }

// Dictionary returns the term dictionary recorded at save time, or nil
// for an index opened with Options.NoDictionary.
func (ix *Index) Dictionary() *dictionary.Dictionary { return ix.dict }

// CacheStats returns the cumulative hit and miss counts of the decoded-
// block cache (both zero when caching is disabled).
func (ix *Index) CacheStats() (hits, misses int64) {
	if ix.cache == nil {
		return 0, 0
	}
	return ix.cache.Stats()
}

// TopRecords returns the first k precomputed top records in rank order,
// or false when fewer than k are stored (the caller must then fall back
// to a full scan). The returned slices must not be modified.
func (ix *Index) TopRecords(k int) (keys, values [][]byte, ok bool) {
	if ix.top == nil || int64(k) > ix.topN {
		return nil, nil, false
	}
	keys = make([][]byte, k)
	values = make([][]byte, k)
	for i := 0; i < k; i++ {
		keys[i] = ix.top.Key(i)
		values[i] = ix.top.Value(i)
	}
	return keys, values, true
}

// TopStored returns how many precomputed top records the index holds.
func (ix *Index) TopStored() int64 { return ix.topN }

// TopRecord returns the precomputed top record of rank i (0 is the
// most frequent), for 0 ≤ i < TopStored. It lets a caller walk the
// stored list only as deep as it needs; the returned slices must not
// be modified.
func (ix *Index) TopRecord(i int) (key, value []byte) {
	return ix.top.Key(i), ix.top.Value(i)
}

// block returns the decoded block b of shard s, through the cache when
// useCache is set.
func (ix *Index) block(s, b int, useCache bool) (*extsort.DecodedBlock, error) {
	if !useCache || ix.cache == nil {
		return ix.shards[s].rr.ReadBlock(b)
	}
	var kb [8]byte
	binary.LittleEndian.PutUint32(kb[0:4], uint32(s))
	binary.LittleEndian.PutUint32(kb[4:8], uint32(b))
	key := string(kb[:])
	if v, ok := ix.cache.Get(key); ok {
		return v.(*extsort.DecodedBlock), nil
	}
	blk, err := ix.shards[s].rr.ReadBlock(b)
	if err != nil {
		return nil, err
	}
	ix.cache.Put(key, blk)
	return blk, nil
}

// findShard returns the index of the only shard whose key range can
// contain key, or -1.
func (ix *Index) findShard(key []byte) int {
	i := sort.Search(len(ix.shards), func(i int) bool {
		return bytes.Compare(ix.shards[i].info.FirstKey, key) > 0
	}) - 1
	if i < 0 || bytes.Compare(key, ix.shards[i].info.LastKey) > 0 {
		return -1
	}
	return i
}

// Get returns the value stored under key, if any. The lookup touches
// exactly one block, served from the cache when hot. The returned slice
// aliases immutable cache memory and must not be modified.
func (ix *Index) Get(key []byte) ([]byte, bool, error) {
	if err := ix.acquire(); err != nil {
		return nil, false, err
	}
	defer ix.release()
	s := ix.findShard(key)
	if s < 0 {
		return nil, false, nil
	}
	b := ix.shards[s].rr.FindBlock(key)
	if b < 0 {
		return nil, false, nil
	}
	blk, err := ix.block(s, b, true)
	if err != nil {
		return nil, false, err
	}
	if i, ok := blk.Search(key); ok {
		return blk.Value(i), true, nil
	}
	return nil, false, nil
}

// errStopScan terminates a scan early without reporting an error.
var errStopScan = errors.New("index: stop scan")

// StopScan returns the sentinel a Scan callback may return to end the
// scan early; Scan then returns nil.
func StopScan() error { return errStopScan }

// Cursor iterates the records with lo ≤ key < hi in ascending key
// order, one CRC-verified decoded block at a time, through the block
// cache. It pins the index against Close until Next has returned false
// or the cursor is closed, whichever comes first:
//
//	c := ix.Seek(lo, hi)
//	defer c.Close()
//	for c.Next() { use(c.Key(), c.Value()) }
//	return c.Err()
//
// Key and Value alias immutable block memory: they stay valid after
// further Next calls and after Close, and must not be modified.
type Cursor struct {
	ix     *Index
	hi     []byte // nil: unbounded
	lo     []byte // pending lower bound, cleared by the first block
	s, b   int    // shard and block the cursor reads next
	blk    *extsort.DecodedBlock
	i, end int  // current record and end of the range within blk
	last   bool // blk holds the end of the range
	err    error
}

// Seek returns a cursor over the records with lo ≤ key < hi (nil bounds
// are unbounded), positioned before the first: the manifest's key
// ranges name the shard, the shard's footer the block, and a binary
// search the record. On a closed index the cursor is empty and its Err
// is ErrClosed.
func (ix *Index) Seek(lo, hi []byte) *Cursor {
	c := &Cursor{ix: ix, lo: lo, hi: hi}
	if c.err = ix.acquire(); c.err != nil {
		c.ix = nil
		return c
	}
	if lo != nil {
		c.s = sort.Search(len(ix.shards), func(i int) bool {
			return bytes.Compare(ix.shards[i].info.LastKey, lo) >= 0
		})
		if c.s < len(ix.shards) {
			c.b = max(0, ix.shards[c.s].rr.FindBlock(lo))
		}
	}
	return c
}

// Next advances to the next record and reports whether there is one;
// when there is none it closes the cursor.
func (c *Cursor) Next() bool {
	if c.i++; c.i < c.end {
		return true
	}
	for c.err == nil && !c.last && c.s < len(c.ix.shards) {
		rr := c.ix.shards[c.s].rr
		if c.b >= rr.NumBlocks() {
			c.s, c.b = c.s+1, 0
			continue
		}
		if c.hi != nil && bytes.Compare(rr.FirstKey(c.b), c.hi) >= 0 {
			break
		}
		if c.blk, c.err = c.ix.block(c.s, c.b, true); c.err != nil {
			break
		}
		c.b++
		c.i, c.end = 0, c.blk.Len()
		if c.lo != nil {
			// Only the first block can hold keys below lo.
			c.i, _ = c.blk.Search(c.lo)
			c.lo = nil
		}
		if c.hi != nil && c.end > 0 && bytes.Compare(c.blk.Key(c.end-1), c.hi) >= 0 {
			c.end, _ = c.blk.Search(c.hi)
			c.last = true
		}
		if c.i < c.end {
			return true
		}
	}
	c.Close()
	return false
}

// Key returns the current record's key.
func (c *Cursor) Key() []byte { return c.blk.Key(c.i) }

// Value returns the current record's value.
func (c *Cursor) Value() []byte { return c.blk.Value(c.i) }

// Err returns the error that ended the iteration, if any: ErrClosed, or
// the read or corruption error of the block Next could not load.
func (c *Cursor) Err() error { return c.err }

// Close ends the iteration and releases the cursor's pin on the index.
// It is idempotent.
func (c *Cursor) Close() {
	if c.ix != nil {
		c.ix.release()
		c.ix = nil
	}
	c.i, c.end, c.last = 0, 0, true
}

// Scan calls fn for every record with lo ≤ key < hi in ascending key
// order (nil bounds are unbounded). Bounded scans run on a Cursor,
// through the block cache; full scans bypass it so one NGrams pass
// cannot evict the hot set. The slices passed to fn are valid only
// during the call.
func (ix *Index) Scan(lo, hi []byte, fn func(key, value []byte) error) error {
	if lo == nil && hi == nil {
		if err := ix.acquire(); err != nil {
			return err
		}
		defer ix.release()
		return ix.scanAll(fn)
	}
	c := ix.Seek(lo, hi)
	defer c.Close()
	for c.Next() {
		if err := fn(c.Key(), c.Value()); err != nil {
			if errors.Is(err, errStopScan) {
				return nil
			}
			return err
		}
	}
	return c.Err()
}

// scanBatchBlocks bounds one batched region read of an unbounded scan
// (~16 × 64 KiB ≈ 1 MiB encoded per syscall).
const scanBatchBlocks = 16

// scanAll is the unbounded-scan fast path: every block of every shard
// is visited, so blocks are fetched in batched region reads — one
// pread and one contiguous CRC pass per scanBatchBlocks — bypassing
// the cache so a full pass cannot evict the hot set.
func (ix *Index) scanAll(fn func(key, value []byte) error) error {
	for _, sh := range ix.shards {
		n := sh.rr.NumBlocks()
		for b := 0; b < n; b += scanBatchBlocks {
			end := b + scanBatchBlocks
			if end > n {
				end = n
			}
			blks, err := sh.rr.ReadBlocks(b, end)
			if err != nil {
				return err
			}
			for _, blk := range blks {
				for i := 0; i < blk.Len(); i++ {
					if err := fn(blk.Key(i), blk.Value(i)); err != nil {
						if errors.Is(err, errStopScan) {
							return nil
						}
						return err
					}
				}
			}
		}
	}
	return nil
}

// PrefixSuccessor returns the smallest key greater than every key with
// the given prefix, or nil when no such bound exists (all-0xFF prefix).
func PrefixSuccessor(prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xFF {
			succ := append([]byte(nil), prefix[:i+1]...)
			succ[i]++
			return succ
		}
	}
	return nil
}
