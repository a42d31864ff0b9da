package core

import (
	"context"

	"ngramstats/internal/corpus"
	"ngramstats/internal/encoding"
	"ngramstats/internal/postings"
	"ngramstats/internal/sequence"
)

// Index is the positional inverted index over frequent n-grams that
// APRIORI-INDEX produces as a by-product (Section III-B: "the method
// produces an inverted index with positional information that can be
// used to quickly determine the locations of a specific frequent
// n-gram"). Positions are document-global with a gap of one between
// sentences, exactly as emitted by the index builder.
type Index struct {
	// lists maps encoded n-grams to their encoded posting lists.
	lists map[string][]byte
	// run carries the build's measures.
	run *Run
	// maxLen is the longest indexed n-gram.
	maxLen int
}

// Location is one occurrence of an n-gram.
type Location struct {
	// DocID is the containing document.
	DocID int64
	// Position is the document-global term position (sentences separated
	// by a gap of one).
	Position uint32
}

// BuildIndex constructs the positional index of all n-grams with
// cf ≥ p.Tau and length ≤ p.Sigma by running APRIORI-INDEX and
// retaining the posting lists.
func BuildIndex(ctx context.Context, col *corpus.Collection, p Params) (*Index, error) {
	p = p.withDefaults()
	outputs, drv, err := aprioriIndexDatasets(ctx, col, p)
	if err != nil {
		return nil, err
	}
	idx := &Index{lists: make(map[string][]byte)}
	for _, ds := range outputs {
		for part := 0; part < ds.NumPartitions(); part++ {
			err := ds.Scan(part, func(k, v []byte) error {
				idx.lists[string(k)] = append([]byte(nil), v...)
				if l := encoding.SeqLen(k); l > idx.maxLen {
					idx.maxLen = l
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		if err := ds.Release(); err != nil {
			return nil, err
		}
	}
	idx.run = &Run{
		Method:    AprioriIndex,
		Counters:  drv.Aggregate,
		Wallclock: drv.Wallclock(),
		Jobs:      len(drv.JobResults),
	}
	return idx, nil
}

// Len returns the number of indexed n-grams.
func (ix *Index) Len() int { return len(ix.lists) }

// MaxLength returns the length of the longest indexed n-gram.
func (ix *Index) MaxLength() int { return ix.maxLen }

// Jobs returns the number of MapReduce jobs the build launched.
func (ix *Index) Jobs() int { return ix.run.Jobs }

// Postings returns the posting list of an n-gram, if indexed.
func (ix *Index) Postings(s sequence.Seq) (postings.List, bool, error) {
	b, ok := ix.lists[string(encoding.EncodeSeq(s))]
	if !ok {
		return nil, false, nil
	}
	l, err := postings.Decode(b)
	if err != nil {
		return nil, false, err
	}
	return l, true, nil
}

// CF returns the collection frequency of an n-gram, if indexed.
func (ix *Index) CF(s sequence.Seq) (int64, bool, error) {
	b, ok := ix.lists[string(encoding.EncodeSeq(s))]
	if !ok {
		return 0, false, nil
	}
	cf, err := postings.EncodedCF(b)
	if err != nil {
		return 0, false, err
	}
	return cf, true, nil
}

// Locations returns every occurrence of an n-gram, ordered by document
// then position.
func (ix *Index) Locations(s sequence.Seq) ([]Location, error) {
	l, ok, err := ix.Postings(s)
	if err != nil || !ok {
		return nil, err
	}
	var out []Location
	for _, post := range l {
		for _, pos := range post.Positions {
			out = append(out, Location{DocID: post.DocID, Position: pos})
		}
	}
	return out, nil
}

// Each calls fn for every indexed n-gram in unspecified order.
func (ix *Index) Each(fn func(s sequence.Seq, l postings.List) error) error {
	for k, v := range ix.lists {
		s, err := encoding.DecodeSeq([]byte(k))
		if err != nil {
			return err
		}
		l, err := postings.Decode(v)
		if err != nil {
			return err
		}
		if err := fn(s, l); err != nil {
			return err
		}
	}
	return nil
}
