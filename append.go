package ngramstats

// Incremental index maintenance: AppendDelta creates an LSM chain
// (internal/lsm) from its first batch, or adopts a saved index as one,
// and links the exact computation over only the new documents as a
// delta generation; CompactIndex merges base + deltas back into a
// single index byte-identical to a from-scratch rebuild over all
// documents. OpenIndex serves either form transparently (a chain
// through its merge-on-read view).

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"ngramstats/internal/corpus"
	"ngramstats/internal/encoding"
	"ngramstats/internal/extsort"
	"ngramstats/internal/index"
	"ngramstats/internal/lsm"
	"ngramstats/internal/sequence"
)

// AppendOptions configures AppendDelta. The zero value uses the same
// defaults as Count and Save.
type AppendOptions struct {
	// Count supplies the computation knobs for the delta job (method,
	// parallelism, execution backend, …). Every generation is counted
	// at τ = 1 with no selection. MinFrequency is the chain's τ, which
	// its view applies to the folded counts; MaxLength and Aggregation
	// are the chain's σ and aggregation. The three take effect when
	// AppendDelta creates or adopts the chain; an existing chain keeps
	// what it recorded, and Selection is ignored.
	Count Options
	// Builder configures the delta corpus build.
	Builder BuilderOptions
	// Compress sets the chain's shard compression when AppendDelta
	// creates or adopts the chain; an existing chain keeps its recorded
	// setting.
	Compress bool
}

// AppendStats reports one completed append.
type AppendStats struct {
	// Docs is the number of documents counted into the delta.
	Docs int64
	// Records is the number of n-gram records in the delta index.
	Records int64
	// ChainDocs is the chain's cumulative document count after the
	// append.
	ChainDocs int64
	// Deltas is the number of delta generations after the append.
	Deltas int
	// Counters snapshots the delta computation's run counters; the
	// MAP_INPUT_RECORDS counter shows the append processed only the new
	// documents.
	Counters map[string]int64
}

// AppendDelta extends the index at dir with new documents without
// recomputing anything over the old ones: the exact job runs over just
// docs — O(new documents) — and its result is linked as a delta
// generation. Besides the job, an append makes one pass over the
// chain's vocabulary: the newest generation's cumulative dictionary is
// parsed once, extended in place with the new terms and written out as
// the delta's. On the first append a plain index is adopted in place
// as the chain's base — it must have been computed with τ = 1 and no
// maximal/closed selection, the invariants under which per-generation
// counts merge losslessly. A directory that holds no index becomes a
// chain whose base is what Count and Save over docs would write.
//
// Document identifiers continue the chain's ordinals: a zero-ID
// document takes the position a full rebuild over all documents would
// have assigned it. After the append, OpenIndex on dir holds exactly
// the n-grams and aggregates of an index rebuilt from scratch over all
// documents at the chain's τ, spelled in the chain's own identifiers
// until compaction (see OpenIndex for what that changes, and
// CompactIndex for the byte-level form).
//
// Appends and compactions assume a single writer per chain; concurrent
// readers (including ngramsd serving the directory) need no
// coordination and pick the delta up on their next reload.
func AppendDelta(ctx context.Context, dir string, docs []Document, opts AppendOptions) (*AppendStats, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("ngramstats: append to %s: no documents", dir)
	}
	man, err := lsm.ReadManifest(dir)
	if errors.Is(err, fs.ErrNotExist) {
		man, err = lsm.Adopt(dir)
		if errors.Is(err, fs.ErrNotExist) {
			man, err = &lsm.Manifest{
				Corpus:    filepath.Base(filepath.Clean(dir)),
				Kind:      int(opts.Count.Aggregation),
				MaxLength: opts.Count.MaxLength,
			}, nil
		}
		if err == nil {
			man.Compress, man.MinFrequency = opts.Compress, opts.Count.MinFrequency
		}
	}
	if err != nil {
		return nil, err
	}
	lsm.SweepOrphans(dir, man)

	// A new chain's base ranks its dictionary as a batch build does.
	// Every later generation seeds its dictionary from the newest one:
	// inherited identifiers stay stable (encoded keys remain comparable
	// across generations) and frequencies continue cumulatively. The
	// builder takes the loaded tables over; this parse is the append's
	// one pass over the chain vocabulary.
	bopts := corpus.BuilderOptions{MemoryBudget: opts.Builder.MemoryBudget, TempDir: opts.Builder.TempDir}
	var b *corpus.Builder
	if gens := man.Gens(); man.Base.Dir == "" {
		b = corpus.NewBuilder(man.Corpus, bopts)
	} else {
		seed, err := index.OpenDictionary(filepath.Join(dir, gens[len(gens)-1].Dir))
		if err != nil {
			return nil, err
		}
		b = corpus.NewSeededBuilder(man.Corpus, bopts, seed)
	}
	// Zero-ID documents take the ordinals a full rebuild over all
	// documents would assign.
	cb := &CorpusBuilder{b: b, first: man.Docs}
	c, err := cb.build(ctx, func(yield func(Document, error) bool) {
		for _, d := range docs {
			if !yield(d, nil) {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}

	copts := opts.Count
	copts.MinFrequency = 1
	copts.MaxLength = man.MaxLength
	copts.Selection = SelectAll
	copts.Aggregation = Aggregation(man.Kind)
	res, err := Count(ctx, c, copts)
	if err != nil {
		return nil, err
	}
	defer res.Release()

	// A delta stores its own top records exactly as a base does (same
	// default depth, same top.run): per-generation frequencies add up
	// under Merge, so the view's threshold merge assembles the chain's
	// exact top-k from these lists plus point gets instead of scanning
	// every generation (see lsm.View.TopRecords).
	genDir := man.NextGenDir()
	err = res.SaveWith(filepath.Join(dir, genDir), SaveOptions{
		Compress: man.Compress,
		TempDir:  copts.TempDir,
	})
	if err != nil {
		return nil, err
	}
	gen := lsm.GenInfo{Dir: genDir, Records: res.Len(), Docs: int64(len(docs))}
	if err := lsm.AppendGen(dir, man, gen); err != nil {
		return nil, err
	}
	return &AppendStats{
		Docs:      gen.Docs,
		Records:   gen.Records,
		ChainDocs: man.Docs,
		Deltas:    len(man.Deltas),
		Counters:  res.run.Counters.Snapshot(),
	}, nil
}

// CompactOptions configures CompactIndex. The zero value reproduces
// Save's defaults, which is what makes the compacted base byte-
// identical to a full rebuild.
type CompactOptions struct {
	// Shards overrides the shard count; 0 sizes automatically exactly
	// as Save does (~128k records per shard, at most 32) — leave it 0
	// for rebuild equivalence.
	Shards int
	// TopDepth is the precomputed top-record depth of the new base; 0
	// selects Save's default (1024), negative stores none.
	TopDepth int
	// TempDir is the scratch directory for the merge's external sort.
	TempDir string
	// CacheBlocks bounds each generation's block cache during the
	// merge.
	CacheBlocks int
}

// CompactStats reports one compaction.
type CompactStats struct {
	// Compacted is false when there was nothing to do (a plain index,
	// or a chain with no deltas) — a successful no-op, so periodic
	// policy loops can call CompactIndex unconditionally.
	Compacted bool
	// Generations is the number of generations merged.
	Generations int
	// Records is the record count of the new base.
	Records int64
	// Wallclock is the elapsed compaction time.
	Wallclock time.Duration
}

// CompactIndex merges the chain at dir — base plus all delta
// generations — into a single new base index and atomically swaps the
// chain manifest to it. The new base is byte-identical (dictionary,
// shard files, precomputed top records) to what a from-scratch rebuild
// over all the chain's documents at τ = 1 would save (the chain's own
// τ stays in its manifest): the generations' sorted shards stream
// through one merge tree, per-key aggregate cells fold exactly as the
// job's reducer would, keys translate from the chain's own identifiers
// into the frequency-ranked dictionary a rebuild assigns (the only
// place a chain's identifiers are ranked), and the records are
// re-sorted and sharded under Save's policy.
//
// The swap is crash-safe (the chain manifest rename is the sole commit
// point; a crash leaves the previous chain intact and queryable) and
// invisible to readers: open views keep serving the old generations
// through their file descriptors, and the next reload sees the
// compacted chain.
func CompactIndex(dir string, opts CompactOptions) (*CompactStats, error) {
	start := time.Now()
	peek, err := lsm.ReadManifest(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return &CompactStats{}, nil // a plain index
	}
	if err != nil {
		return nil, err
	}
	if len(peek.Deltas) == 0 {
		return &CompactStats{}, nil
	}
	lsm.SweepOrphans(dir, peek)

	v, err := lsm.OpenChain(dir, lsm.Options{CacheBlocks: opts.CacheBlocks})
	if err != nil {
		return nil, err
	}
	defer v.Close()
	prev := v.Manifest()
	hadFlatBase := prev.Base.Dir == "."

	// Compaction is the one place identifiers are ranked: the chain's
	// dictionary ranks into the one a rebuild builds, and one merged pass
	// over every generation, folding equal keys, translates each key into
	// it. The external sorter restores the ranked key order (chain order
	// differs because identifiers were assigned incrementally).
	dict, order := v.Dictionary().Rank()
	var toRanked []sequence.Term
	if order != nil {
		toRanked = make([]sequence.Term, len(order))
		for ranked, chain := range order {
			toRanked[chain] = sequence.Term(ranked)
		}
	}
	sorter := extsort.NewSorter(extsort.Options{TempDir: opts.TempDir})
	defer sorter.Discard()
	sorter.Reserve(int(v.Records()))
	var keyBuf []byte
	var seq sequence.Seq
	err = v.ScanChain(func(key, value []byte) error {
		if toRanked != nil {
			if seq, err = encoding.DecodeSeqInto(seq, key); err != nil {
				return err
			}
			for i, t := range seq {
				if int(t) >= len(toRanked) {
					return fmt.Errorf("%w: key holds term id %d outside dictionary of %d", lsm.ErrCorrupt, t, len(toRanked))
				}
				seq[i] = toRanked[t]
			}
			keyBuf = encoding.AppendSeq(keyBuf[:0], seq)
			key = keyBuf
		}
		return sorter.Add(key, value)
	})
	if err != nil {
		return nil, fmt.Errorf("ngramstats: compact %s: %w", dir, err)
	}
	total := int64(sorter.Len())

	codec := extsort.CodecRaw
	if prev.Compress {
		codec = extsort.CodecFlate
	}
	baseDir := prev.NextBaseDir()
	err = writeIndex(filepath.Join(dir, baseDir), sorter, dict, opts.TopDepth, index.WriterOptions{
		Corpus:       prev.Corpus,
		Kind:         prev.Kind,
		Shards:       opts.Shards,
		Codec:        codec,
		Counters:     v.Counters(),
		Docs:         prev.Docs,
		MaxLength:    prev.MaxLength,
		MinFrequency: 1,
		Selection:    int(SelectAll),
	})
	if err != nil {
		return nil, fmt.Errorf("ngramstats: compact %s: %w", dir, err)
	}

	if _, err := lsm.SwapBase(dir, &prev, lsm.GenInfo{Dir: baseDir, Records: total, Docs: prev.Docs}); err != nil {
		return nil, err
	}
	if hadFlatBase {
		lsm.RemoveFlatBase(dir)
	}
	return &CompactStats{
		Compacted:   true,
		Generations: v.Generations(),
		Records:     total,
		Wallclock:   time.Since(start),
	}, nil
}
