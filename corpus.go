package ngramstats

import (
	"context"
	"fmt"
	"iter"
	"math/rand"
	"os"

	"ngramstats/internal/corpus"
	"ngramstats/internal/synth"
)

// Corpus is a document collection prepared for n-gram computation:
// boilerplate-filtered, sentence-split, tokenized, and encoded as
// integer term sequences with a frequency-ranked dictionary.
type Corpus struct {
	col *corpus.Collection
}

// Document is one raw document entering a corpus build.
type Document struct {
	// ID identifies the document (used by DocumentIndex aggregation and
	// the shard format). The zero value auto-assigns the document's
	// ordinal position in Add order.
	ID int64
	// Text is the raw document text. It is consumed during Add and not
	// retained.
	Text string
	// Year is the publication year (used by TimeSeries aggregation);
	// zero if unknown.
	Year int
	// Web marks web-page text: it passes boilerplate filtering before
	// sentence detection (the ClueWeb09-B pre-processing of the paper).
	Web bool
}

// BuilderOptions configures incremental corpus construction.
type BuilderOptions struct {
	// MemoryBudget bounds the bytes of encoded documents the builder
	// keeps resident during ingestion; past it, encoded documents spill
	// to a temporary disk shard. Zero selects 256 MiB. The term
	// dictionary always stays resident, and so does the finished
	// corpus: Finish reads spilled documents back, so the budget caps
	// the ingestion peak (raw text is never accumulated), not the final
	// corpus size. For corpora at rest larger than memory, persist with
	// Corpus.Save and compute from the shards.
	MemoryBudget int
	// TempDir is the directory for spilled shards (default: system
	// temp).
	TempDir string
}

// CorpusBuilder constructs a corpus incrementally: each Add tokenizes
// and integer-encodes one document and releases its raw text, and
// encoded documents beyond the memory budget spill to disk. Finish
// freezes the frequency-ranked dictionary and produces the corpus. A
// streamed build yields a corpus identical to FromText over the same
// documents in the same order.
type CorpusBuilder struct {
	b *corpus.Builder
	// first is the ordinal of the first document: 0, or for an LSM
	// delta the documents its chain already holds.
	first       int64
	sawExplicit bool
	sawAuto     bool
}

// NewCorpusBuilder returns an empty builder for a corpus with the
// given name.
func NewCorpusBuilder(name string, opts BuilderOptions) *CorpusBuilder {
	return &CorpusBuilder{b: corpus.NewBuilder(name, corpus.BuilderOptions{
		MemoryBudget: opts.MemoryBudget,
		TempDir:      opts.TempDir,
	})}
}

// Add ingests one document. A zero-value ID takes the document's
// ordinal position in Add order. Mixing the two styles in one build is
// rejected in both directions — a zero-value ID after explicit IDs,
// or an explicit ID after auto-assigned ordinals — rather than risking
// a silent collision between an ordinal and an explicit identifier.
// (An explicit ID of 0 is only representable as the first document;
// assign IDs starting from 1 to avoid the ambiguity entirely.
// Uniqueness among caller-supplied explicit IDs is the caller's
// responsibility.)
func (cb *CorpusBuilder) Add(doc Document) error {
	id := doc.ID
	if id == 0 {
		if cb.sawExplicit {
			return fmt.Errorf("ngramstats: document %d has ID 0 after explicitly assigned IDs; assign every ID (non-zero) or none", cb.b.Added())
		}
		id = cb.first + cb.b.Added()
		if id > 0 {
			// Ordinal 0 is ambiguous (ordinal and explicit 0 coincide) and
			// harmless; from ordinal 1 on, auto-assignment is committed.
			cb.sawAuto = true
		}
	} else {
		if cb.sawAuto {
			return fmt.Errorf("ngramstats: document with explicit ID %d after auto-assigned IDs; assign every ID (non-zero) or none", id)
		}
		cb.sawExplicit = true
	}
	return cb.b.Add(id, doc.Year, doc.Text, doc.Web)
}

// Added returns the number of documents ingested so far.
func (cb *CorpusBuilder) Added() int64 { return cb.b.Added() }

// Finish freezes the dictionary and returns the completed corpus. The
// builder must not be used afterwards.
func (cb *CorpusBuilder) Finish() (*Corpus, error) {
	col, err := cb.b.Finish()
	if err != nil {
		return nil, err
	}
	return &Corpus{col: col}, nil
}

// Discard releases the builder's resources (buffered documents,
// spilled shards) without producing a corpus.
func (cb *CorpusBuilder) Discard() { cb.b.Discard() }

// FromDocuments builds a corpus from a document stream, honoring ctx
// cancellation between documents. It is the streaming counterpart of
// FromText: documents are tokenized and encoded as they arrive, and
// encoded documents past the memory budget spill to disk, so the raw
// stream's total size may far exceed RAM (the encoded corpus itself
// must still fit; see BuilderOptions.MemoryBudget).
func FromDocuments(ctx context.Context, name string, docs iter.Seq2[Document, error], opts BuilderOptions) (*Corpus, error) {
	return NewCorpusBuilder(name, opts).build(ctx, docs)
}

// build adds every document of docs, honoring ctx between them, and
// finishes the corpus; on an error it discards the builder.
func (cb *CorpusBuilder) build(ctx context.Context, docs iter.Seq2[Document, error]) (*Corpus, error) {
	for doc, err := range docs {
		if err == nil {
			err = ctx.Err()
		}
		if err == nil {
			err = cb.Add(doc)
		}
		if err != nil {
			cb.Discard()
			return nil, err
		}
	}
	return cb.Finish()
}

// CorpusStats summarizes a corpus (the paper's Table I).
type CorpusStats struct {
	Documents       int64
	TermOccurrences int64
	DistinctTerms   int64
	Sentences       int64
	SentenceLenMean float64
	SentenceLenSD   float64
}

// FromText builds a corpus from in-memory document texts, one builder
// Add per document. years may be nil or must have one publication year
// per document (used by time-series aggregation). For document sets
// too large to hold as strings, use CorpusBuilder or FromDocuments.
func FromText(name string, docs []string, years []int) (*Corpus, error) {
	return fromTexts(name, docs, years, false)
}

// FromWebText builds a corpus from raw web page texts, applying
// boilerplate filtering before sentence detection (the ClueWeb09-B
// pre-processing of the paper).
func FromWebText(name string, docs []string, years []int) (*Corpus, error) {
	return fromTexts(name, docs, years, true)
}

func fromTexts(name string, docs []string, years []int, web bool) (*Corpus, error) {
	col, err := corpus.FromText(name, docs, years, web)
	if err != nil {
		return nil, err
	}
	return &Corpus{col: col}, nil
}

// FileDocuments streams one Document per file path, reading file by
// file so only one file's raw text is resident at a time. Documents
// take ordinal IDs; web routes them through boilerplate filtering.
func FileDocuments(paths []string, web bool) iter.Seq2[Document, error] {
	return func(yield func(Document, error) bool) {
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				yield(Document{}, fmt.Errorf("ngramstats: read %s: %w", p, err))
				return
			}
			if !yield(Document{Text: string(b), Web: web}, nil) {
				return
			}
		}
	}
}

// FromTextFiles builds a corpus with one document per file path,
// streaming file by file: only one file's raw text is resident at a
// time.
func FromTextFiles(name string, paths []string) (*Corpus, error) {
	return FromDocuments(context.Background(), name, FileDocuments(paths, false), BuilderOptions{})
}

// SyntheticNYT generates the NYT-like evaluation corpus at the given
// document count: clean Zipfian news text over 1987–2007 with injected
// quotations, recipes and chess openings (the long frequent n-grams
// the paper observes in The New York Times Annotated Corpus).
func SyntheticNYT(docs int, seed int64) *Corpus {
	return &Corpus{col: synth.Generate(synth.NYTLike(docs, seed))}
}

// SyntheticCW generates the ClueWeb09-B-like evaluation corpus:
// noisier web text from 2009 with repeated spam blocks and stack
// traces.
func SyntheticCW(docs int, seed int64) *Corpus {
	return &Corpus{col: synth.Generate(synth.CWLike(docs, seed))}
}

// Load reads a corpus previously persisted with Save.
func Load(name, dir string) (*Corpus, error) {
	col, err := corpus.ReadShards(name, dir)
	if err != nil {
		return nil, err
	}
	return &Corpus{col: col}, nil
}

// Save persists the corpus into dir as a dictionary file plus the given
// number of binary shards.
func (c *Corpus) Save(dir string, shards int) error {
	return corpus.WriteShards(c.col, dir, shards)
}

// Name returns the corpus label.
func (c *Corpus) Name() string { return c.col.Name }

// Stats computes corpus characteristics.
func (c *Corpus) Stats() CorpusStats {
	st := c.col.Stats()
	return CorpusStats{
		Documents:       st.Documents,
		TermOccurrences: st.TermOccurrences,
		DistinctTerms:   st.DistinctTerms,
		Sentences:       st.Sentences,
		SentenceLenMean: st.SentenceLenMean,
		SentenceLenSD:   st.SentenceLenSD,
	}
}

// Sample returns a corpus containing a random fraction of the
// documents, drawn deterministically from seed. Sampled documents keep
// their identifiers and publication years, and the sample shares the
// parent's dictionary, so term identifiers (and thus encoded n-grams)
// remain comparable across parent and sample.
func (c *Corpus) Sample(fraction float64, seed int64) *Corpus {
	return &Corpus{col: c.col.Sample(fraction, seed)}
}

// Split partitions the corpus into two disjoint document sets of the
// given fraction (train) and its complement (test), deterministically
// from seed. Both halves share the parent's dictionary — term
// identifiers stay comparable across them — and every document carries
// its identifier and publication year into its half, so TimeSeries and
// DocumentIndex aggregations over a split behave exactly as over the
// parent. The permutation is drawn over the in-memory document set;
// splitting is a driver-side operation, not a MapReduce job.
func (c *Corpus) Split(fraction float64, seed int64) (train, test *Corpus) {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	n := int(fraction * float64(len(c.col.Docs)))
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(c.col.Docs))
	tr := &corpus.Collection{Name: c.col.Name + "-train", Dict: c.col.Dict}
	te := &corpus.Collection{Name: c.col.Name + "-test", Dict: c.col.Dict}
	for i, idx := range perm {
		if i < n {
			tr.Docs = append(tr.Docs, c.col.Docs[idx])
		} else {
			te.Docs = append(te.Docs, c.col.Docs[idx])
		}
	}
	return &Corpus{col: tr}, &Corpus{col: te}
}

// Sentences returns up to limit sentences of the corpus as word
// slices (limit ≤ 0 returns all).
func (c *Corpus) Sentences(limit int) [][]string {
	var out [][]string
	for i := range c.col.Docs {
		for _, s := range c.col.Docs[i].Sentences {
			if limit > 0 && len(out) >= limit {
				return out
			}
			words := make([]string, len(s))
			for j, id := range s {
				words[j] = c.Term(id)
			}
			out = append(out, words)
		}
	}
	return out
}

// Term returns the word for a term identifier, or "" if unknown.
func (c *Corpus) Term(id uint32) string {
	if c.col.Dict == nil {
		return ""
	}
	return c.col.Dict.Term(id)
}

// TermID returns the identifier of a word.
func (c *Corpus) TermID(word string) (uint32, bool) {
	if c.col.Dict == nil {
		return 0, false
	}
	return c.col.Dict.ID(word)
}

// collection exposes the underlying collection to sibling files.
func (c *Corpus) collection() *corpus.Collection { return c.col }
