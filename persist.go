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
	// TempDir is ignored: no query sorts externally.
	//
	// Deprecated: kept so that existing callers compile; it has no
	// effect.
	TempDir string
}

// OpenIndex opens an index directory written by Save — or an LSM chain
// written by AppendDelta, served as its merged view. The returned
// Index answers NGrams, TopK, Longest, Lookup, and Prefix queries
// byte-identically to the Result it was saved from, and is safe for any
// number of concurrent readers. Equivalent to OpenIndexWith with zero
// options.
//
// A chain answers in its own identifier space until it is compacted:
// Lookup, TopK and Longest return what a full rebuild over all its
// documents at the chain's τ would — the same text, frequency and
// aggregates, ties broken by text — and NGrams, Each and Prefix return
// the rebuild's set of n-grams, but NGram.IDs, the order of NGrams and
// Each, and which extensions a Prefix limit keeps follow the chain's
// dictionary: the base's ranks, then each delta's new terms.
// CompactIndex restores the rebuild byte for byte.
func OpenIndex(dir string) (*Index, error) { return OpenIndexWith(dir, IndexOptions{}) }

// OpenIndexWith is OpenIndex with explicit options.
func OpenIndexWith(dir string, opts IndexOptions) (*Index, error) {
	return newIndex(lsm.OpenChain(dir, lsm.Options{CacheBlocks: opts.CacheBlocks}))
}

// newIndex wraps an open view, closing it if its aggregation kind is
// not one this build can decode.
func newIndex(v *lsm.View, err error) (*Index, error) {
	if err != nil {
		return nil, err
	}
	kind := core.AggregationKind(v.Kind())
	switch kind {
	case core.AggCount, core.AggTimeSeries, core.AggDocIndex:
	default:
		v.Close()
		return nil, fmt.Errorf("ngramstats: index has unknown aggregation kind %d", v.Kind())
	}
	return &Index{v: v, kind: kind}, nil
}

// Reopen opens the directory's current state as a new handle, with the
// options x was opened with, and leaves x open: the way to follow a
// directory that is appended to, compacted or replaced while it is
// served. It costs what the manifest added — every generation x already
// holds and the manifest still lists unchanged is shared with the new
// handle (same file descriptors, same warm block cache; when nothing
// changed, the top list TopK proved too), and only new generation
// directories are opened and checked. A plain index is a
// chain of one: reopened unchanged it shares its one generation, and
// reopened after a replacing Save it opens the new one. Both handles
// must be closed; a shared generation's files close with the last
// handle that holds it. Reopen on a closed handle fails with
// ErrIndexClosed.
func (x *Index) Reopen() (*Index, error) { return newIndex(x.v.Reopen()) }

// Index is a read-only handle on a persisted result: the merged view
// of an LSM chain, of which a plain index directory is the chain of one
// generation. All query methods are safe for concurrent use without
// locking: the underlying state is immutable, shard reads use
// positioned reads, and the only shared mutable structure is the
// internal block cache.
type Index struct {
	v    *lsm.View
	kind core.AggregationKind
}

// resolver returns the shared decoder rendering terms through the
// persisted dictionary.
func (x *Index) resolver() resolver {
	return resolver{term: x.v.Dictionary().Term}
}

// Len returns the number of indexed n-grams. For a chain view this is
// an upper bound: an n-gram present in several generations is counted
// once per generation until the next compaction.
func (x *Index) Len() int64 { return x.v.Records() }

// Corpus returns the name of the corpus the statistics were computed
// over.
func (x *Index) Corpus() string { return x.v.Corpus() }

// Shards returns the number of on-disk shard files.
func (x *Index) Shards() int { return x.v.Shards() }

// Counters returns the counter snapshot of the run that produced the
// index (MAP_OUTPUT_RECORDS, SHUFFLE_BYTES_WRITTEN, …); for a chain,
// the counters summed across its generations' runs.
func (x *Index) Counters() map[string]int64 { return x.v.Counters() }

// CacheStats returns the cumulative hit and miss counts of the
// decoded-block cache, measuring how often queries were served without
// re-reading and re-decoding a shard block.
func (x *Index) CacheStats() (hits, misses int64) { return x.v.CacheStats() }

// ErrIndexClosed is reported by queries issued against a closed Index.
var ErrIndexClosed = index.ErrClosed

// Close releases the index's open files. Close is safe under live
// traffic: queries in flight on other goroutines complete normally and
// the files are closed when the last one drains, while queries started
// after Close fail with ErrIndexClosed. Close is idempotent.
func (x *Index) Close() error { return x.v.Close() }

// ManifestTime returns the modification time of the index manifest
// (CHAIN.json for a chain) observed when the index was opened. A
// serving layer compares it against the on-disk manifest to detect
// that the directory has been rewritten — replaced, appended to, or
// compacted — and a newer generation is available.
func (x *Index) ManifestTime() time.Time { return x.v.ManifestTime() }

// eachAggregate streams every indexed record in ascending encoded-key
// order through the shared iteration seam.
func (x *Index) eachAggregate(fn func(s sequence.Seq, agg core.Aggregate) error) error {
	return x.v.ScanAll(func(k, v []byte) error {
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
// encoded-key order — for an uncompacted chain, the order of the
// chain's own identifiers (see OpenIndex) — decoding one at a time.
// Error handling matches Result.NGrams.
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
// order, as NGrams does. Returning an error from fn stops iteration.
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
// stored records plus point gets, run once per handle and depth and
// remembered, so that a repeated or shallower TopK costs what a plain
// index's does; beyond what those can prove the index falls back to a
// full streaming selection.
func (x *Index) TopK(k int) ([]NGram, error) {
	if k < 0 {
		k = 0
	}
	if int64(k) > x.Len() {
		k = int(x.Len())
	}
	rv := x.resolver()
	if keys, vals, ok := x.v.TopRecords(k); ok {
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
	return rv.selectTop(x.eachAggregate, x.Len(), k, rv.topKBetter)
}

// TopKStats reports how TopK calls were answered since the index was
// opened: from the stored top records (for a chain of several
// generations, by the threshold merge over them or from the list it
// proved earlier), or by the scanning fallback.
func (x *Index) TopKStats() (merged, scans int64) { return x.v.TopKStats() }

// TopKPointGets reports the point gets, one per generation probed, that
// the threshold merge behind TopK has issued since the index was
// opened: 0 for a plain index, and 0 for a TopK the handle answered
// before at the same or a greater k.
func (x *Index) TopKPointGets() int64 { return x.v.TopKPointGets() }

// PrefixStats reports the work Prefix calls did since the index was
// opened: the bounded scans served and the generation records they
// read.
func (x *Index) PrefixStats() (scans, records int64) { return x.v.PrefixStats() }

// OpenStats reports what opening the handle cost: the generations
// opened from their directories, the generations shared, already open,
// with the handle it was reopened from, and the dictionary terms
// parsed. An unchanged Reopen of a chain of G generations costs 0, G
// and 0.
func (x *Index) OpenStats() (opened, shared int, terms int64) {
	st := x.v.OpenStats()
	return st.Opened, st.Shared, st.Terms
}

// Longest returns the k longest indexed n-grams in the same order as
// Result.Longest, via a full streaming selection.
func (x *Index) Longest(k int) ([]NGram, error) {
	rv := x.resolver()
	return rv.selectTop(x.eachAggregate, x.Len(), k, rv.longestBetter)
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
		id, ok := x.v.Dictionary().ID(strings.ToLower(w))
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
	val, found, err := x.v.Get(key)
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
// cache, merging one cursor per generation, and stops at limit. For an
// uncompacted chain the order, and so which extensions a limit keeps,
// follows the chain's own identifiers (see OpenIndex).
func (x *Index) Prefix(phrase string, limit int) ([]NGram, error) {
	key, ok := x.encodePhrase(phrase)
	if !ok {
		return nil, nil
	}
	rv := x.resolver()
	var out []NGram
	err := x.v.ScanPrefix(key, limit, func(k, v []byte) error {
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
