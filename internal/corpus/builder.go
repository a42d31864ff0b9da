package corpus

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"ngramstats/internal/dictionary"
	"ngramstats/internal/encoding"
	"ngramstats/internal/sequence"
)

// BuilderOptions configures incremental collection construction.
type BuilderOptions struct {
	// MemoryBudget bounds the bytes of encoded documents the builder
	// keeps in memory; past it, buffered documents spill to a temporary
	// shard file. Zero selects 256 MiB. The term dictionary always stays
	// resident (the paper's setting: dictionaries fit in memory,
	// collections need not).
	MemoryBudget int
	// TempDir is the directory for spilled document shards. Empty
	// selects the system temp directory.
	TempDir string
}

func (o BuilderOptions) withDefaults() BuilderOptions {
	if o.MemoryBudget <= 0 {
		o.MemoryBudget = 256 << 20
	}
	return o
}

// Builder constructs a Collection incrementally, one document at a
// time, without ever holding raw text beyond the document being added.
//
// Dictionary identifiers must be assigned in descending collection-
// frequency order (Section V, "Sequence Encoding"), which is only known
// once every document has been seen. The builder therefore encodes
// sentences against provisional identifiers assigned in first-seen
// order, buffers the provisionally-encoded documents within a memory
// budget (spilling them to a temporary shard file past it), and at
// Finish ranks the provisional tables into the final dictionary and
// remaps every buffered and spilled document through a provisional→final
// identifier table. The result is identical to a batch build over the
// same documents in the same order.
type Builder struct {
	name string
	opts BuilderOptions

	// Provisional dictionary: term → first-seen identifier, with
	// per-identifier term strings and occurrence counts.
	ids    map[string]sequence.Term
	terms  []string
	counts []int64

	// Buffered provisionally-encoded documents and their approximate
	// resident bytes.
	docs     []Document
	buffered int

	// Spill state: one temporary shard file of (docID, payload) records
	// in Add order, plus the number of documents it holds.
	spill       *os.File
	spillW      *bufio.Writer
	spilledDocs int

	// Reusable per-Add scan state (see addSentences): the streaming
	// tokenizer plus the document's flat term buffer and sentence ends.
	scan     tokenScanner
	termBuf  []sequence.Term
	sentEnds []int

	// seed is the number of leading terms inherited from a previous
	// generation's dictionary (see NewSeededBuilder); 0 for an unseeded
	// build. Seeded identifiers are final, not provisional: Finish keeps
	// them in place and ranks only the terms first seen by this builder.
	seed int

	added    int64
	finished bool
}

// NewBuilder returns an empty builder for a collection with the given
// name.
func NewBuilder(name string, opts BuilderOptions) *Builder {
	return &Builder{
		name: name,
		opts: opts.withDefaults(),
		ids:  make(map[string]sequence.Term),
	}
}

// NewSeededBuilder returns a builder whose dictionary extends seed: the
// seed's identifiers 0..seed.Len()-1 stay assigned to the same terms in
// the finished dictionary, with their collection frequencies continued
// cumulatively (seed cf plus this build's occurrences), and terms first
// seen by this builder are appended after them, ranked among themselves
// by descending frequency with lexicographic tie-break.
//
// This is the dictionary contract of LSM delta generations: every
// generation's encoded sequences remain bytewise comparable because an
// identifier, once assigned, never moves, and the newest generation's
// (term, cumulative cf) table alone reconstructs the dictionary a batch
// rebuild over all documents would produce.
//
// The builder adopts seed's tables and its term map instead of copying
// them — one append costs one pass over the chain vocabulary, the
// parse that produced seed — so seed must not be used afterwards.
func NewSeededBuilder(name string, opts BuilderOptions, seed *dictionary.Dictionary) *Builder {
	b := &Builder{name: name, opts: opts.withDefaults(), seed: seed.Len()}
	b.terms, b.counts, b.ids = seed.Tables()
	return b
}

// errFinished guards against use after Finish or Discard.
var errFinished = errors.New("corpus: builder already finished")

// Added returns the number of documents added so far.
func (b *Builder) Added() int64 { return b.added }

// SpilledDocs returns the number of documents spilled to disk so far.
func (b *Builder) SpilledDocs() int { return b.spilledDocs }

// Add tokenizes, sentence-splits, and provisionally encodes one raw
// document. When web is true the text passes the boilerplate filter
// first. The raw text is not retained.
//
// The text streams through a single-pass tokenizer into reusable
// buffers: beyond new-term strings, the only allocations are the
// document's own encoded sentences (one term arena plus the sentence
// headers), gated by TestAddAllocsPerDocument.
func (b *Builder) Add(id int64, year int, text string, web bool) error {
	if b.finished {
		return errFinished
	}
	if web {
		text = BoilerplateFilter(text)
	}
	doc := Document{ID: id, Year: year}
	bytes := 48 // struct + slice headers

	b.termBuf = b.termBuf[:0]
	b.sentEnds = b.sentEnds[:0]
	b.scan.scan(text, (*builderSink)(b))

	if len(b.sentEnds) > 0 {
		// All sentences share one exact-size term arena; each sentence is
		// a capacity-capped window into it.
		arena := make(sequence.Seq, len(b.termBuf))
		copy(arena, b.termBuf)
		doc.Sentences = make([]sequence.Seq, len(b.sentEnds))
		start := 0
		for i, end := range b.sentEnds {
			doc.Sentences[i] = arena[start:end:end]
			bytes += 24 + 4*(end-start)
			start = end
		}
	}
	b.docs = append(b.docs, doc)
	b.buffered += bytes
	b.added++
	if b.buffered > b.opts.MemoryBudget {
		return b.spillDocs()
	}
	return nil
}

// builderSink adapts the builder to the tokenizer's callback interface
// without a per-Add closure allocation.
type builderSink Builder

func (s *builderSink) token(tok []byte) {
	b := (*Builder)(s)
	// b.ids[string(tok)] compiles to an allocation-free map lookup; the
	// string is materialized only for a term's first occurrence.
	tid, ok := b.ids[string(tok)]
	if !ok {
		term := string(tok)
		tid = sequence.Term(len(b.terms))
		b.ids[term] = tid
		b.terms = append(b.terms, term)
		b.counts = append(b.counts, 0)
	}
	b.counts[tid]++
	b.termBuf = append(b.termBuf, tid)
}

func (s *builderSink) sentenceEnd() {
	b := (*Builder)(s)
	start := 0
	if n := len(b.sentEnds); n > 0 {
		start = b.sentEnds[n-1]
	}
	if len(b.termBuf) > start {
		b.sentEnds = append(b.sentEnds, len(b.termBuf))
	}
}

// spillDocs appends every buffered document to the spill shard and
// resets the buffer.
func (b *Builder) spillDocs() error {
	if b.spill == nil {
		f, err := os.CreateTemp(b.opts.TempDir, "corpus-builder-*.bin")
		if err != nil {
			return fmt.Errorf("corpus: builder spill: %w", err)
		}
		b.spill = f
		b.spillW = bufio.NewWriterSize(f, 256<<10)
	}
	for i := range b.docs {
		d := &b.docs[i]
		if err := encoding.WriteRecord(b.spillW, EncodeDocKey(d.ID), EncodeDocValue(d)); err != nil {
			return fmt.Errorf("corpus: builder spill: %w", err)
		}
		b.spilledDocs++
	}
	// Zero the elements before reslicing: the backing array survives,
	// and stale Document values there would pin up to a full budget of
	// encoded sentences against the GC.
	clear(b.docs)
	b.docs = b.docs[:0]
	b.buffered = 0
	return nil
}

// Finish freezes the dictionary, remaps every document to the final
// frequency-ranked identifiers, and returns the completed collection.
// The builder must not be used afterwards.
func (b *Builder) Finish() (*Collection, error) {
	if b.finished {
		return nil, errFinished
	}
	b.finished = true
	defer b.cleanup()

	dict, remap := b.freezeDict()

	c := &Collection{Name: b.name, Dict: dict}
	c.Docs = make([]Document, 0, b.spilledDocs+len(b.docs))

	// Spilled documents first — they were added first.
	if b.spill != nil {
		if err := b.spillW.Flush(); err != nil {
			return nil, fmt.Errorf("corpus: builder: flush spill: %w", err)
		}
		if _, err := b.spill.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("corpus: builder: rewind spill: %w", err)
		}
		rr := encoding.NewRecordReader(bufio.NewReaderSize(b.spill, 256<<10))
		for {
			k, v, err := rr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("corpus: builder: read spill: %w", err)
			}
			id, err := DecodeDocKey(k)
			if err != nil {
				return nil, err
			}
			doc, err := DecodeDocValue(v)
			if err != nil {
				return nil, err
			}
			doc.ID = id
			if err := remapDoc(doc, remap); err != nil {
				return nil, err
			}
			c.Docs = append(c.Docs, *doc)
		}
	}
	for i := range b.docs {
		if err := remapDoc(&b.docs[i], remap); err != nil {
			return nil, err
		}
		c.Docs = append(c.Docs, b.docs[i])
	}
	b.docs = nil
	return c, nil
}

// freezeDict turns the provisional tables into the final dictionary,
// in place, and returns it with the provisional → final identifier
// table. The terms first seen by this builder — all of them unless it
// was seeded — are ranked among themselves by frequency and keep the
// identifiers after the inherited ones; inherited identifiers 0..seed-1
// stay where they are, with their cumulative frequencies, and remap to
// themselves. An unseeded build is thus the batch construction, so a
// streamed build yields byte-identical encodings.
func (b *Builder) freezeDict() (*dictionary.Dictionary, []sequence.Term) {
	seed, n := b.seed, len(b.terms)
	order := dictionary.RankOrder(b.terms, b.counts, seed)
	remap := make([]sequence.Term, n)
	for i := range remap[:seed] {
		remap[i] = sequence.Term(i)
	}
	terms, cfs := make([]string, n-seed), make([]int64, n-seed)
	for rank, old := range order {
		id := sequence.Term(seed + rank)
		remap[old] = id
		terms[rank], cfs[rank] = b.terms[old], b.counts[old]
		b.ids[terms[rank]] = id
	}
	copy(b.terms[seed:], terms)
	copy(b.counts[seed:], cfs)
	return dictionary.FromTables(b.terms, b.counts, b.ids), remap
}

// Discard releases the builder's resources without producing a
// collection.
func (b *Builder) Discard() {
	b.finished = true
	b.cleanup()
}

func (b *Builder) cleanup() {
	if b.spill != nil {
		name := b.spill.Name()
		b.spill.Close()
		os.Remove(name)
		b.spill = nil
		b.spillW = nil
	}
}

// remapDoc rewrites a document's terms through the provisional→final
// identifier table in place. A term outside the table means the spill
// record was corrupted after it was written (DecodeDocValue validates
// structure, not identifier range): report it rather than panic.
func remapDoc(d *Document, remap []sequence.Term) error {
	for _, s := range d.Sentences {
		for i, t := range s {
			if int(t) >= len(remap) {
				return fmt.Errorf("corpus: %w: doc %d: term id %d outside dictionary of %d",
					encoding.ErrCorrupt, d.ID, t, len(remap))
			}
			s[i] = remap[t]
		}
	}
	return nil
}
