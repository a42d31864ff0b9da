package ngramstats

// Persistence: a completed Result saves as a sharded on-disk index,
// and OpenIndex reopens it — in the same process, a later one, or a
// serving daemon (cmd/ngramsd) — with byte-identical answers. The
// on-disk layout (internal/index) reuses the block-framed,
// prefix-compressed, CRC-checked run format of the shuffle, wrapped in
// a manifest carrying the corpus dictionary and a snapshot of the
// producing run's counters.

import (
	"errors"
	"fmt"
	"iter"
	"strings"
	"time"

	"ngramstats/internal/core"
	"ngramstats/internal/dictionary"
	"ngramstats/internal/encoding"
	"ngramstats/internal/extsort"
	"ngramstats/internal/index"
	"ngramstats/internal/lsm"
	"ngramstats/internal/sequence"
)

// SaveOptions tunes Save. The zero value selects sensible defaults.
type SaveOptions struct {
	// Shards is the number of sorted shard files; 0 sizes them
	// automatically (~128k records per shard, at most 32).
	Shards int
	// TopDepth is how many precomputed top-frequency records the index
	// stores so TopK queries up to that depth never scan. 0 selects
	// 1024; negative stores none.
	TopDepth int
	// Compress enables per-block DEFLATE compression of the shards on
	// top of the format's front-coding.
	Compress bool
	// TempDir is the scratch directory for the save-time sort (default:
	// system temp).
	TempDir string
	// Replace allows saving over a directory that already contains a
	// committed index. The new index is staged beside the old one and
	// swapped in atomically: concurrent readers (an Index opened on the
	// directory, or a ngramsd daemon watching it) keep serving the old
	// generation undisturbed until they reopen, and the directory is
	// openable at every instant of the replacement. Without Replace,
	// saving into a directory that already holds an index fails.
	Replace bool
}

// defaultTopDepth is how many top records Save precomputes by default.
const defaultTopDepth = 1024

// Save persists the result into dir as a queryable on-disk index:
// sorted sharded record files, the corpus dictionary, precomputed top
// records, and a manifest, all checksummed. OpenIndex reopens it with
// answers byte-identical to this result's. Equivalent to SaveWith with
// zero options.
func (r *Result) Save(dir string) error { return r.SaveWith(dir, SaveOptions{}) }

// SaveWith is Save with explicit options.
func (r *Result) SaveWith(dir string, opts SaveOptions) error {
	dict := r.corpus.collection().Dict
	if dict == nil {
		return fmt.Errorf("ngramstats: corpus has no dictionary to persist")
	}

	// Globally sort the result records by encoded key: the reducer
	// emits each partition in its own order, while the index relies on
	// one total bytewise order for shard and block binary search.
	sorter := extsort.NewSorter(extsort.Options{TempDir: opts.TempDir})
	defer sorter.Discard()
	sorter.Reserve(int(r.Len()))
	ds := r.run.Result.Dataset()
	for p := 0; p < ds.NumPartitions(); p++ {
		err := ds.Scan(p, func(k, v []byte) error { return sorter.Add(k, v) })
		if err != nil {
			return fmt.Errorf("ngramstats: save: %w", err)
		}
	}

	tau := r.opts.MinFrequency
	if tau < 1 {
		tau = 1
	}
	codec := extsort.CodecRaw
	if opts.Compress {
		codec = extsort.CodecFlate
	}
	err := writeIndex(dir, sorter, dict, opts.TopDepth, index.WriterOptions{
		Corpus:       r.corpus.Name(),
		Kind:         int(r.run.Result.Kind()),
		Shards:       opts.Shards,
		Codec:        codec,
		Jobs:         r.Jobs(),
		Wallclock:    r.Wallclock(),
		Counters:     r.run.Counters.Snapshot(),
		Docs:         int64(len(r.corpus.collection().Docs)),
		MaxLength:    r.opts.MaxLength,
		MinFrequency: tau,
		Selection:    int(r.opts.Selection),
		DictUnranked: !dict.Ranked(),
		Replace:      opts.Replace,
	})
	if err != nil {
		return fmt.Errorf("ngramstats: save: %w", err)
	}
	return nil
}

// writeIndex drains a filled sorter into a new index at dir: the one
// save loop behind Result.SaveWith and CompactIndex, which is what
// keeps a compacted base byte-identical to a rebuild. wo.Records is
// taken from the sorter; a wo.Shards of 0 sizes the shards
// automatically (~128k records each, at most 32); topDepth follows
// SaveOptions.TopDepth. The top records are selected in the same pass
// that writes the shards; a record whose frequency cannot beat the
// worst retained one is dropped before its sequence is decoded, and one
// that loses the tie-break before its aggregate is.
func writeIndex(dir string, sorter *extsort.Sorter, dict *dictionary.Dictionary, topDepth int, wo index.WriterOptions) error {
	wo.Records = int64(sorter.Len())
	if wo.Shards <= 0 {
		wo.Shards = min(max(int((wo.Records+(128<<10)-1)/(128<<10)), 1), 32)
	}
	if topDepth == 0 {
		topDepth = defaultTopDepth
	}
	it, err := sorter.Sort()
	if err != nil {
		return err
	}
	defer it.Close()

	w, err := index.NewWriter(dir, wo)
	if err != nil {
		return err
	}
	defer w.Abort() // a no-op once Commit has succeeded
	if err := w.SetDictionary(dict.Save); err != nil {
		return err
	}
	kind := core.AggregationKind(wo.Kind)
	rv := resolver{term: dict.Term}
	top := boundedTop{k: topDepth, better: rv.topKBetter}
	for it.Next() {
		k, v := it.Key(), it.Value()
		if err := w.Append(k, v); err != nil {
			return err
		}
		if topDepth <= 0 {
			continue
		}
		e := rawNGram{}
		if e.cf, err = core.DecodeFrequency(kind, v); err != nil {
			return err
		}
		if len(top.heap) == top.k && e.cf < top.heap[0].cf {
			continue
		}
		if e.seq, err = encoding.DecodeSeq(k); err != nil {
			return err
		}
		if !top.admits(e) {
			continue
		}
		if e.agg, err = core.DecodeAggregate(kind, v); err != nil {
			return err
		}
		top.offer(e)
	}
	if err := it.Err(); err != nil {
		return err
	}
	for _, e := range top.sorted() {
		if err := w.AppendTop(encoding.EncodeSeq(e.seq), e.agg.Encode()); err != nil {
			return err
		}
	}
	return w.Commit()
}

// IndexOptions tunes OpenIndex. The zero value selects sensible
// defaults.
type IndexOptions struct {
	// CacheBlocks bounds the decoded-block LRU cache in blocks (a
	// block decodes to ~64 KiB). 0 selects 128; negative disables
	// caching. A chain applies the bound per generation.
	CacheBlocks int
	// TempDir is the scratch directory for query-time external sorts
	// (only ordered full scans over a chain view need one; default:
	// system temp).
	TempDir string
}

// OpenIndex opens an index directory written by Save — or an LSM chain
// grown from one by AppendDelta, served as its merged view. The
// returned Index answers NGrams, TopK, Longest, Lookup, and Prefix
// queries byte-identically to the Result it was saved from (for a
// chain: to a full rebuild over all its documents), and is safe for
// any number of concurrent readers. Equivalent to OpenIndexWith with
// zero options.
func OpenIndex(dir string) (*Index, error) { return OpenIndexWith(dir, IndexOptions{}) }

// OpenIndexWith is OpenIndex with explicit options.
func OpenIndexWith(dir string, opts IndexOptions) (*Index, error) {
	if lsm.Exists(dir) {
		v, err := lsm.OpenChain(dir, lsm.Options{CacheBlocks: opts.CacheBlocks, TempDir: opts.TempDir})
		if err != nil {
			return nil, err
		}
		return newIndex(v, dir, opts)
	}
	ix, err := index.Open(dir, index.Options{CacheBlocks: opts.CacheBlocks})
	if err != nil {
		return nil, err
	}
	return newIndex(plainBackend{ix}, dir, opts)
}

// newIndex wraps an open backend, closing it if its aggregation kind is
// not one this build can decode.
func newIndex(b indexBackend, dir string, opts IndexOptions) (*Index, error) {
	kind := core.AggregationKind(b.Kind())
	switch kind {
	case core.AggCount, core.AggTimeSeries, core.AggDocIndex:
	default:
		b.Close()
		return nil, fmt.Errorf("ngramstats: index %s has unknown aggregation kind %d", dir, b.Kind())
	}
	return &Index{b: b, kind: kind, dir: dir, opts: opts}, nil
}

// Reopen opens the directory's current state as a new handle, with the
// options x was opened with, and leaves x open: the way to follow a
// directory that is appended to, compacted or replaced while it is
// served. For a chain it costs what the manifest added — every
// generation x already holds and the manifest still lists is shared
// with the new handle (same file descriptors, same warm block cache) and
// only new generation directories are opened and checked; a plain index
// is simply opened again. Both handles must be closed; a shared
// generation's files close with the last handle that holds it. Reopen
// on a closed chain handle fails with ErrIndexClosed.
func (x *Index) Reopen() (*Index, error) {
	v, ok := x.b.(*lsm.View)
	if !ok || !lsm.Exists(x.dir) {
		return OpenIndexWith(x.dir, x.opts)
	}
	nv, err := v.Reopen()
	if err != nil {
		return nil, err
	}
	return newIndex(nv, x.dir, x.opts)
}

func init() {
	lsm.StatsOf = func(handle any) lsm.OpenStats {
		switch b := handle.(*Index).b.(type) {
		case *lsm.View:
			return b.OpenStats()
		default:
			return lsm.OpenStats{Opened: 1, Terms: int64(b.Dictionary().Len())}
		}
	}
}

// indexBackend is what a queryable on-disk artifact must provide: a
// plain index directory satisfies it directly, and an LSM chain's
// merged view satisfies it by folding its generations on the fly.
// ScanAll enumerates in ascending encoded-key order; ScanUnordered
// may use any order (the cheap variant for order-independent
// consumers like top-k selection). ScanPrefix yields the first limit
// records of the prefix's range in ascending encoded-key order (all of
// them for limit ≤ 0): a plain index stops its cursor there, a chain
// selects them while merging one cursor per generation.
type indexBackend interface {
	Records() int64
	Corpus() string
	Kind() int
	Shards() int
	Counters() map[string]int64
	CacheStats() (hits, misses int64)
	ManifestTime() time.Time
	Close() error
	Dictionary() *dictionary.Dictionary
	Get(key []byte) ([]byte, bool, error)
	ScanAll(fn func(key, value []byte) error) error
	ScanUnordered(fn func(key, value []byte) error) error
	ScanPrefix(prefix []byte, limit int, fn func(key, value []byte) error) error
	TopRecords(k int) (keys, values [][]byte, ok bool)
}

// plainBackend adapts *index.Index to indexBackend (its scans are
// already ordered, so both scan variants are the same full scan).
type plainBackend struct{ ix *index.Index }

func (p plainBackend) Records() int64                     { return p.ix.Records() }
func (p plainBackend) Corpus() string                     { return p.ix.Corpus() }
func (p plainBackend) Kind() int                          { return p.ix.Kind() }
func (p plainBackend) Shards() int                        { return p.ix.Shards() }
func (p plainBackend) Counters() map[string]int64         { return p.ix.Counters() }
func (p plainBackend) CacheStats() (int64, int64)         { return p.ix.CacheStats() }
func (p plainBackend) ManifestTime() time.Time            { return p.ix.ManifestTime() }
func (p plainBackend) Close() error                       { return p.ix.Close() }
func (p plainBackend) Dictionary() *dictionary.Dictionary { return p.ix.Dictionary() }
func (p plainBackend) Get(key []byte) ([]byte, bool, error) {
	return p.ix.Get(key)
}
func (p plainBackend) ScanAll(fn func(key, value []byte) error) error {
	return p.ix.Scan(nil, nil, fn)
}
func (p plainBackend) ScanUnordered(fn func(key, value []byte) error) error {
	return p.ix.Scan(nil, nil, fn)
}
func (p plainBackend) ScanPrefix(prefix []byte, limit int, fn func(key, value []byte) error) error {
	n := 0
	return p.ix.ScanPrefix(prefix, func(k, v []byte) error {
		if err := fn(k, v); err != nil {
			return err
		}
		if n++; n == limit {
			return index.StopScan()
		}
		return nil
	})
}
func (p plainBackend) TopRecords(k int) ([][]byte, [][]byte, bool) {
	return p.ix.TopRecords(k)
}

// Index is a read-only handle on a persisted result — a plain index
// directory or an LSM chain's merged view. All query methods are safe
// for concurrent use without locking: the underlying state is
// immutable, shard reads use positioned reads, and the only shared
// mutable structure is the internal block cache.
type Index struct {
	b    indexBackend
	kind core.AggregationKind
	// dir and opts are what the handle was opened with, for Reopen.
	dir  string
	opts IndexOptions
}

// resolver returns the shared decoder rendering terms through the
// persisted dictionary.
func (x *Index) resolver() resolver {
	return resolver{term: x.b.Dictionary().Term}
}

// Len returns the number of indexed n-grams. For a chain view this is
// an upper bound: an n-gram present in several generations is counted
// once per generation until the next compaction.
func (x *Index) Len() int64 { return x.b.Records() }

// Corpus returns the name of the corpus the statistics were computed
// over.
func (x *Index) Corpus() string { return x.b.Corpus() }

// Shards returns the number of on-disk shard files.
func (x *Index) Shards() int { return x.b.Shards() }

// Counters returns the counter snapshot of the run that produced the
// index (MAP_OUTPUT_RECORDS, SHUFFLE_BYTES_WRITTEN, …); for a chain,
// the counters summed across its generations' runs.
func (x *Index) Counters() map[string]int64 { return x.b.Counters() }

// CacheStats returns the cumulative hit and miss counts of the
// decoded-block cache, measuring how often queries were served without
// re-reading and re-decoding a shard block.
func (x *Index) CacheStats() (hits, misses int64) { return x.b.CacheStats() }

// ErrIndexClosed is reported by queries issued against a closed Index.
var ErrIndexClosed = index.ErrClosed

// Close releases the index's open files. Close is safe under live
// traffic: queries in flight on other goroutines complete normally and
// the files are closed when the last one drains, while queries started
// after Close fail with ErrIndexClosed. Close is idempotent.
func (x *Index) Close() error { return x.b.Close() }

// ManifestTime returns the modification time of the index manifest
// (CHAIN.json for a chain) observed when the index was opened. A
// serving layer compares it against the on-disk manifest to detect
// that the directory has been rewritten — replaced, appended to, or
// compacted — and a newer generation is available.
func (x *Index) ManifestTime() time.Time { return x.b.ManifestTime() }

// eachAggregate streams every indexed record in ascending encoded-key
// order through the shared iteration seam.
func (x *Index) eachAggregate(fn func(s sequence.Seq, agg core.Aggregate) error) error {
	return x.decodeScan(x.b.ScanAll, fn)
}

// eachAggregateUnordered is eachAggregate without the order guarantee
// — what order-independent consumers (top-k, longest-k selection) use,
// sparing a chain view the external re-sort into canonical order.
func (x *Index) eachAggregateUnordered(fn func(s sequence.Seq, agg core.Aggregate) error) error {
	return x.decodeScan(x.b.ScanUnordered, fn)
}

func (x *Index) decodeScan(scan func(func(k, v []byte) error) error, fn func(s sequence.Seq, agg core.Aggregate) error) error {
	return scan(func(k, v []byte) error {
		s, err := encoding.DecodeSeq(k)
		if err != nil {
			return err
		}
		agg, err := core.DecodeAggregate(x.kind, v)
		if err != nil {
			return err
		}
		return fn(s, agg)
	})
}

// NGrams returns an iterator over every indexed n-gram in ascending
// encoded-key order, decoding one at a time. Error handling matches
// Result.NGrams.
func (x *Index) NGrams() iter.Seq2[NGram, error] {
	rv := x.resolver()
	return func(yield func(NGram, error) bool) {
		err := x.eachAggregate(func(s sequence.Seq, agg core.Aggregate) error {
			if !yield(rv.decode(s, agg), nil) {
				return errStop
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStop) {
			yield(NGram{}, err)
		}
	}
}

// Each calls fn for every indexed n-gram in ascending encoded-key
// order. Returning an error from fn stops iteration.
func (x *Index) Each(fn func(NGram) error) error {
	rv := x.resolver()
	return x.eachAggregate(func(s sequence.Seq, agg core.Aggregate) error {
		return fn(rv.decode(s, agg))
	})
}

// TopK returns the k most frequent n-grams in the same order as
// Result.TopK. Up to the saved precomputation depth (SaveOptions.
// TopDepth) the answer is served from the stored top records without
// scanning — for a chain, from a threshold merge over its generations'
// stored records plus point gets; beyond what those can prove the
// index falls back to a full streaming selection.
func (x *Index) TopK(k int) ([]NGram, error) {
	if k < 0 {
		k = 0
	}
	if int64(k) > x.Len() {
		k = int(x.Len())
	}
	rv := x.resolver()
	if keys, vals, ok := x.b.TopRecords(k); ok {
		// A chain's Len is an upper bound, so fewer than k may come back.
		out := make([]NGram, len(keys))
		for i := range keys {
			s, err := encoding.DecodeSeq(keys[i])
			if err != nil {
				return nil, err
			}
			agg, err := core.DecodeAggregate(x.kind, vals[i])
			if err != nil {
				return nil, err
			}
			out[i] = rv.decode(s, agg)
		}
		return out, nil
	}
	return rv.selectTop(x.eachAggregateUnordered, x.Len(), k, rv.topKBetter)
}

// TopKStats reports how a chain's TopK calls were answered since the
// index was opened: by the threshold merge, or by the scanning
// fallback. Both are zero for a plain index.
func (x *Index) TopKStats() (merged, scans int64) {
	if v, ok := x.b.(*lsm.View); ok {
		return v.TopKStats()
	}
	return 0, 0
}

// PrefixStats reports the work a chain's Prefix calls did since the
// index was opened: the bounded scans served and the generation
// records their merges read. Both are zero for a plain index.
func (x *Index) PrefixStats() (scans, records int64) {
	if v, ok := x.b.(*lsm.View); ok {
		return v.PrefixStats()
	}
	return 0, 0
}

// Longest returns the k longest indexed n-grams in the same order as
// Result.Longest, via a full streaming selection.
func (x *Index) Longest(k int) ([]NGram, error) {
	rv := x.resolver()
	return rv.selectTop(x.eachAggregateUnordered, x.Len(), k, rv.longestBetter)
}

// encodePhrase maps a phrase to its encoded key, or false if any word
// is outside the dictionary (and therefore cannot be indexed).
func (x *Index) encodePhrase(phrase string) ([]byte, bool) {
	words := strings.Fields(phrase)
	if len(words) == 0 {
		return nil, false
	}
	ids := make(sequence.Seq, len(words))
	for i, w := range words {
		id, ok := x.b.Dictionary().ID(strings.ToLower(w))
		if !ok {
			return nil, false
		}
		ids[i] = id
	}
	return encoding.EncodeSeq(ids), true
}

// Lookup returns the statistics of the given phrase, if indexed. The
// lookup is a point read: the manifest names the shard, the shard
// footer names the block, and only that block is decoded (or served
// from the cache).
func (x *Index) Lookup(phrase string) (NGram, bool, error) {
	key, ok := x.encodePhrase(phrase)
	if !ok {
		return NGram{}, false, nil
	}
	val, found, err := x.b.Get(key)
	if err != nil || !found {
		return NGram{}, false, err
	}
	s, err := encoding.DecodeSeq(key)
	if err != nil {
		return NGram{}, false, err
	}
	agg, err := core.DecodeAggregate(x.kind, val)
	if err != nil {
		return NGram{}, false, err
	}
	return x.resolver().decode(s, agg), true, nil
}

// Prefix returns up to limit indexed n-grams that extend the given
// phrase (including the phrase itself, if indexed), in ascending
// encoded-key order. limit <= 0 returns all. The scan touches only the
// blocks whose key range intersects the prefix, through the block
// cache, and stops at limit; on a chain it walks that range in every
// generation and keeps the limit smallest merged keys.
func (x *Index) Prefix(phrase string, limit int) ([]NGram, error) {
	key, ok := x.encodePhrase(phrase)
	if !ok {
		return nil, nil
	}
	rv := x.resolver()
	var out []NGram
	err := x.b.ScanPrefix(key, limit, func(k, v []byte) error {
		s, err := encoding.DecodeSeq(k)
		if err != nil {
			return err
		}
		agg, err := core.DecodeAggregate(x.kind, v)
		if err != nil {
			return err
		}
		out = append(out, rv.decode(s, agg))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
