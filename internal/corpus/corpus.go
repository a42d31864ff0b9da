package corpus

import (
	"fmt"
	"math"
	"math/rand"

	"ngramstats/internal/dictionary"
	"ngramstats/internal/encoding"
	"ngramstats/internal/mapreduce"
	"ngramstats/internal/sequence"
)

// Document is one document of a collection: integer-encoded sentences
// plus the metadata the extensions of Section VI-B aggregate over
// (publication year).
type Document struct {
	ID        int64
	Year      int
	Sentences []sequence.Seq
}

// Terms returns the total number of term occurrences in the document.
func (d *Document) Terms() int {
	n := 0
	for _, s := range d.Sentences {
		n += len(s)
	}
	return n
}

// Collection is an in-memory document collection together with its
// dictionary.
type Collection struct {
	// Name labels the collection in reports ("NYT", "CW", …).
	Name string
	// Dict is the term dictionary; may be nil for id-only collections.
	Dict *dictionary.Dictionary
	// Docs are the documents.
	Docs []Document
}

// Stats summarizes a collection the way Table I of the paper does.
type Stats struct {
	Documents       int64
	TermOccurrences int64
	DistinctTerms   int64
	Sentences       int64
	SentenceLenMean float64
	SentenceLenSD   float64
}

// Stats computes the Table I characteristics of the collection.
func (c *Collection) Stats() Stats {
	var st Stats
	st.Documents = int64(len(c.Docs))
	distinct := make(map[sequence.Term]struct{})
	var sum, sumSq float64
	for i := range c.Docs {
		for _, s := range c.Docs[i].Sentences {
			st.Sentences++
			st.TermOccurrences += int64(len(s))
			l := float64(len(s))
			sum += l
			sumSq += l * l
			for _, t := range s {
				distinct[t] = struct{}{}
			}
		}
	}
	st.DistinctTerms = int64(len(distinct))
	if st.Sentences > 0 {
		n := float64(st.Sentences)
		st.SentenceLenMean = sum / n
		variance := sumSq/n - st.SentenceLenMean*st.SentenceLenMean
		if variance < 0 {
			variance = 0
		}
		st.SentenceLenSD = math.Sqrt(variance)
	}
	return st
}

// Sample returns a new collection containing a random fraction of the
// documents, drawn without replacement with the given seed — the
// 25/50/75 % dataset-scaling subsets of Section VII-G.
func (c *Collection) Sample(fraction float64, seed int64) *Collection {
	if fraction >= 1 {
		return c
	}
	n := int(math.Round(fraction * float64(len(c.Docs))))
	if n < 0 {
		n = 0
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(c.Docs))[:n]
	out := &Collection{Name: fmt.Sprintf("%s-%d%%", c.Name, int(math.Round(fraction*100))), Dict: c.Dict}
	out.Docs = make([]Document, n)
	for i, idx := range perm {
		out.Docs[i] = c.Docs[idx]
	}
	return out
}

// EncodeDocKey encodes a document identifier as a MapReduce input key.
func EncodeDocKey(id int64) []byte {
	return encoding.AppendUvarint(nil, uint64(id))
}

// DecodeDocKey decodes a document identifier key.
func DecodeDocKey(b []byte) (int64, error) {
	v, n := encoding.Uvarint(b)
	if n <= 0 {
		return 0, fmt.Errorf("corpus: %w: doc key", encoding.ErrCorrupt)
	}
	return int64(v), nil
}

// EncodeDocValue encodes a document's payload (year and sentences) as a
// MapReduce input value: uvarint(year), uvarint(#sentences), then per
// sentence uvarint(length) followed by the term varints.
func EncodeDocValue(d *Document) []byte {
	size := 4
	for _, s := range d.Sentences {
		size += 2 + len(s)*2
	}
	buf := make([]byte, 0, size)
	buf = encoding.AppendUvarint(buf, uint64(d.Year))
	buf = encoding.AppendUvarint(buf, uint64(len(d.Sentences)))
	for _, s := range d.Sentences {
		buf = encoding.AppendUvarint(buf, uint64(len(s)))
		buf = encoding.AppendSeq(buf, s)
	}
	return buf
}

// DecodeDocValue decodes a payload produced by EncodeDocValue.
func DecodeDocValue(b []byte) (*Document, error) {
	d := &Document{}
	year, n := encoding.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("corpus: %w: year", encoding.ErrCorrupt)
	}
	b = b[n:]
	d.Year = int(year)
	nSent, n := encoding.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("corpus: %w: sentence count", encoding.ErrCorrupt)
	}
	b = b[n:]
	d.Sentences = make([]sequence.Seq, 0, nSent)
	for i := uint64(0); i < nSent; i++ {
		l, n := encoding.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("corpus: %w: sentence length", encoding.ErrCorrupt)
		}
		b = b[n:]
		s := make(sequence.Seq, l)
		for j := uint64(0); j < l; j++ {
			t, n := encoding.Uvarint(b)
			if n <= 0 || t > 0xFFFFFFFF {
				return nil, fmt.Errorf("corpus: %w: term", encoding.ErrCorrupt)
			}
			b = b[n:]
			s[j] = sequence.Term(t)
		}
		d.Sentences = append(d.Sentences, s)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("corpus: %w: %d trailing bytes", encoding.ErrCorrupt, len(b))
	}
	return d, nil
}

// DocYear decodes only the year of an encoded payload.
func DocYear(b []byte) (int, error) {
	year, n := encoding.Uvarint(b)
	if n <= 0 {
		return 0, fmt.Errorf("corpus: %w: year", encoding.ErrCorrupt)
	}
	return int(year), nil
}

// VisitSentences decodes only the sentences of an encoded payload,
// calling fn for each without materializing the whole document. The
// sequence passed to fn is freshly decoded per call but reused
// internally; callers must not retain it.
func VisitSentences(b []byte, fn func(s sequence.Seq) error) error {
	_, err := VisitSentencesInto(nil, b, fn)
	return err
}

// VisitSentencesInto is VisitSentences decoding into scratch, which it
// returns, grown, for the caller to pass with the next document.
func VisitSentencesInto(scratch sequence.Seq, b []byte, fn func(s sequence.Seq) error) (sequence.Seq, error) {
	s := scratch[:0]
	_, n := encoding.Uvarint(b) // year
	if n <= 0 {
		return s, fmt.Errorf("corpus: %w: year", encoding.ErrCorrupt)
	}
	b = b[n:]
	nSent, n := encoding.Uvarint(b)
	if n <= 0 {
		return s, fmt.Errorf("corpus: %w: sentence count", encoding.ErrCorrupt)
	}
	b = b[n:]
	for i := uint64(0); i < nSent; i++ {
		l, n := encoding.Uvarint(b)
		if n <= 0 {
			return s, fmt.Errorf("corpus: %w: sentence length", encoding.ErrCorrupt)
		}
		b = b[n:]
		s = s[:0]
		for j := uint64(0); j < l; j++ {
			t, n := encoding.Uvarint(b)
			if n <= 0 || t > 0xFFFFFFFF {
				return s, fmt.Errorf("corpus: %w: term", encoding.ErrCorrupt)
			}
			b = b[n:]
			s = append(s, sequence.Term(t))
		}
		if err := fn(s); err != nil {
			return s, err
		}
	}
	return s, nil
}

// Input exposes the collection as a MapReduce input of
// (docID, payload) records in the given number of splits.
func (c *Collection) Input(splits int) mapreduce.Input {
	if splits < 1 {
		splits = 1
	}
	if splits > len(c.Docs) {
		splits = len(c.Docs)
	}
	if splits == 0 {
		return mapreduce.SplitsInput()
	}
	per := (len(c.Docs) + splits - 1) / splits
	var parts []mapreduce.Split
	for off := 0; off < len(c.Docs); off += per {
		end := off + per
		if end > len(c.Docs) {
			end = len(c.Docs)
		}
		docs := c.Docs[off:end]
		parts = append(parts, mapreduce.SplitFunc(func(yield func(key, value []byte) error) error {
			for i := range docs {
				if err := yield(EncodeDocKey(docs[i].ID), EncodeDocValue(&docs[i])); err != nil {
					return err
				}
			}
			return nil
		}))
	}
	return mapreduce.SplitsInput(parts...)
}

// FromText builds a collection from raw text documents: boilerplate
// filtering (optional), sentence splitting, tokenization, dictionary
// construction, and integer encoding — the complete pre-processing
// pipeline of Section VII-B in one call. It is the batch facade over
// the incremental Builder.
func FromText(name string, texts []string, years []int, filterBoilerplate bool) (*Collection, error) {
	if years != nil && len(years) != len(texts) {
		return nil, fmt.Errorf("corpus: %d texts but %d years", len(texts), len(years))
	}
	// The batch inputs are already fully resident, so spilling encoded
	// documents to disk would only add a write-and-read-back round trip
	// (and a temp-dir dependency): disable it with an unbounded budget.
	b := NewBuilder(name, BuilderOptions{MemoryBudget: math.MaxInt})
	for i, text := range texts {
		year := 0
		if years != nil {
			year = years[i]
		}
		if err := b.Add(int64(i), year, text, filterBoilerplate); err != nil {
			b.Discard()
			return nil, err
		}
	}
	return b.Finish()
}
