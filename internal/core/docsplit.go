package core

import (
	"context"
	"fmt"

	"ngramstats/internal/corpus"
	"ngramstats/internal/encoding"
	"ngramstats/internal/mapreduce"
	"ngramstats/internal/sequence"
)

// documentSplitInput implements the "Document Splits" optimization of
// Section V: collection frequencies of individual terms are computed
// first, and every document is split at the infrequent terms it
// contains — safe by the APRIORI principle, since no frequent n-gram
// can contain an infrequent term. It runs two jobs (a unigram count
// and a map-only rewrite) and returns the rewritten corpus as the input
// for the method's main jobs.
func documentSplitInput(ctx context.Context, col *corpus.Collection, p Params, drv *mapreduce.Driver) (mapreduce.Input, error) {
	// Job 1: unigram collection frequencies, keeping terms with cf ≥ τ.
	countJob := p.specJob("docsplit-unigrams", jobSpec{Kind: kindUnigrams, Tau: p.Tau})
	countJob.Input = col.Input(p.InputSplits)
	countRes, err := drv.Run(ctx, countJob)
	if err != nil {
		return nil, fmt.Errorf("core: document splits: %w", err)
	}

	// Serialize the frequent-term set as side data (distributed cache).
	var side []byte
	for part := 0; part < countRes.Output.NumPartitions(); part++ {
		err := countRes.Output.Scan(part, func(k, v []byte) error {
			side = append(side, k...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if err := countRes.Output.Release(); err != nil {
		return nil, err
	}

	// Job 2 (map-only): rewrite every document, splitting sentences at
	// infrequent terms.
	rewriteJob := p.specJob("docsplit-rewrite", jobSpec{Kind: kindRewrite})
	rewriteJob.Input = col.Input(p.InputSplits)
	rewriteJob.SideData = map[string][]byte{"frequent-terms": side}
	rewriteRes, err := drv.Run(ctx, rewriteJob)
	if err != nil {
		return nil, fmt.Errorf("core: document splits: %w", err)
	}
	return mapreduce.DatasetInput(rewriteRes.Output), nil
}

// unigramMapper emits every term occurrence with a unit count.
type unigramMapper struct {
	seq    sequence.Seq
	keyBuf []byte
}

// Map implements mapreduce.Mapper.
func (m *unigramMapper) Map(key, value []byte, emit mapreduce.Emit) (err error) {
	m.seq, err = corpus.VisitSentencesInto(m.seq, value, func(s sequence.Seq) error {
		for _, t := range s {
			m.keyBuf = encoding.AppendUvarint(m.keyBuf[:0], uint64(t))
			if err := emit(m.keyBuf, unitCount); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// splitRewriteMapper rewrites documents by splitting sentences at terms
// absent from the frequent-term side data.
type splitRewriteMapper struct {
	frequent map[sequence.Term]struct{}
}

// Setup implements mapreduce.TaskSetup: it loads the frequent-term set
// from the distributed cache.
func (m *splitRewriteMapper) Setup(tc *mapreduce.TaskContext) error {
	side, ok := tc.SideData["frequent-terms"]
	if !ok {
		return fmt.Errorf("core: docsplit rewrite: missing side data")
	}
	m.frequent = make(map[sequence.Term]struct{})
	for len(side) > 0 {
		v, n := encoding.Uvarint(side)
		if n <= 0 {
			return fmt.Errorf("core: docsplit rewrite: %w", encoding.ErrCorrupt)
		}
		side = side[n:]
		m.frequent[sequence.Term(v)] = struct{}{}
	}
	return nil
}

// Map implements mapreduce.Mapper.
func (m *splitRewriteMapper) Map(key, value []byte, emit mapreduce.Emit) error {
	doc, err := corpus.DecodeDocValue(value)
	if err != nil {
		return err
	}
	out := corpus.Document{ID: 0, Year: doc.Year}
	for _, s := range doc.Sentences {
		start := 0
		for i := 0; i <= len(s); i++ {
			atSplit := i == len(s)
			if !atSplit {
				_, frequent := m.frequent[s[i]]
				atSplit = !frequent
			}
			if atSplit {
				if i > start {
					out.Sentences = append(out.Sentences, s[start:i])
				}
				start = i + 1
			}
		}
	}
	if len(out.Sentences) == 0 {
		return nil
	}
	return emit(key, corpus.EncodeDocValue(&out))
}
