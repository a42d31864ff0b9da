package core

import (
	"context"

	"ngramstats/internal/corpus"
	"ngramstats/internal/encoding"
	"ngramstats/internal/mapreduce"
	"ngramstats/internal/sequence"
)

// computeNaive runs NAÏVE (Algorithm 1): the straightforward extension
// of word counting. The mapper emits every n-gram of length at most σ
// once per occurrence; the reducer determines collection frequencies
// and keeps those of at least τ. With p.Combiner, map-side local
// aggregation is applied (the "tweak" of Section V); the paper notes
// this is essentially the method Brants et al. used at Google for
// training large language models.
func computeNaive(ctx context.Context, col *corpus.Collection, p Params) (*Run, error) {
	drv := mapreduce.NewDriver()
	input, err := corpusInput(ctx, col, p, drv)
	if err != nil {
		return nil, err
	}
	job := p.specJob("naive", jobSpec{Kind: kindNaive, Tau: p.Tau, Sigma: p.Sigma, Combiner: p.Combiner})
	job.Input = input
	res, err := drv.Run(ctx, job)
	if err != nil {
		return nil, err
	}
	return &Run{
		Method:    Naive,
		Result:    NewResultSet(res.Output, AggCount),
		Counters:  drv.Aggregate,
		Wallclock: drv.Wallclock(),
		Jobs:      len(drv.JobResults),
	}, nil
}

// naiveMapper emits every n-gram of length ≤ σ with a unit count, one
// key-value pair per occurrence.
type naiveMapper struct {
	sigma  int
	seq    sequence.Seq
	keyBuf []byte
}

var unitCount = encoding.AppendUvarint(nil, 1)

// Map implements mapreduce.Mapper.
func (m *naiveMapper) Map(key, value []byte, emit mapreduce.Emit) (err error) {
	m.seq, err = corpus.VisitSentencesInto(m.seq, value, func(s sequence.Seq) error {
		// Enumerate n-grams by begin offset, extending the encoded key
		// incrementally so each n-gram costs one varint append.
		for b := 0; b < len(s); b++ {
			m.keyBuf = m.keyBuf[:0]
			max := b + m.sigma
			if max > len(s) || max < 0 { // < 0 guards σ = Unbounded overflow
				max = len(s)
			}
			for e := b; e < max; e++ {
				m.keyBuf = encoding.AppendUvarint(m.keyBuf, uint64(s[e]))
				if err := emit(m.keyBuf, unitCount); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return err
}

// countReducer sums unit (or pre-combined) counts and emits the n-gram
// with its collection frequency when it reaches tau. A zero tau makes
// it a pure aggregator, the combiner configuration.
type countReducer struct {
	tau    int64
	valBuf []byte
}

// Reduce implements mapreduce.Reducer.
func (r *countReducer) Reduce(key []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	var total int64
	for values.Next() {
		v, n := encoding.Uvarint(values.Value())
		if n <= 0 {
			return encoding.ErrCorrupt
		}
		total += int64(v)
	}
	if total >= r.tau {
		r.valBuf = encoding.AppendUvarint(r.valBuf[:0], uint64(total))
		return emit(key, r.valBuf)
	}
	return nil
}

// BruteForce computes the exact n-gram statistics of a collection by
// direct enumeration in memory, respecting sentence barriers. It is the
// reference oracle the tests compare every method against, and is also
// usable for small collections in its own right.
func BruteForce(col *corpus.Collection, tau int64, sigma int) map[string]int64 {
	if sigma <= 0 {
		sigma = Unbounded
	}
	counts := make(map[string]int64)
	var keyBuf []byte
	for i := range col.Docs {
		for _, s := range col.Docs[i].Sentences {
			for b := 0; b < len(s); b++ {
				keyBuf = keyBuf[:0]
				max := b + sigma
				if max > len(s) || max < 0 {
					max = len(s)
				}
				for e := b; e < max; e++ {
					keyBuf = encoding.AppendUvarint(keyBuf, uint64(s[e]))
					counts[string(keyBuf)]++
				}
			}
		}
	}
	for k, v := range counts {
		if v < tau {
			delete(counts, k)
		}
	}
	return counts
}
