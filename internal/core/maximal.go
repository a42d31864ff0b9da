package core

import (
	"context"
	"fmt"

	"ngramstats/internal/encoding"
	"ngramstats/internal/mapreduce"
	"ngramstats/internal/sequence"
)

// suffixFilterJob is the post-filtering MapReduce job of Section VI-A.
// Its input is SUFFIX-σ output restricted to prefix-maximal (or
// prefix-closed) n-grams. The mapper reverses every n-gram; reversed
// n-grams are partitioned by first term and sorted in reverse
// lexicographic order, reusing SUFFIX-σ's machinery; the reducer keeps
// only the prefix-maximal/closed reversed n-grams — i.e. the
// suffix-maximal/closed originals — and restores the original order
// before emitting.
func suffixFilterJob(ctx context.Context, drv *mapreduce.Driver, p Params, in mapreduce.Dataset) (mapreduce.Dataset, error) {
	job := p.specJob(fmt.Sprintf("suffix-filter-%s", p.Select), jobSpec{
		Kind: kindSuffixFilter, Select: p.Select, Agg: p.Aggregation,
	})
	job.Input = mapreduce.DatasetInput(in)
	res, err := drv.Run(ctx, job)
	if err != nil {
		return nil, fmt.Errorf("core: suffix filter: %w", err)
	}
	return res.Output, nil
}

// reverseMapper reverses the n-gram key into the key encoding, keeping
// the value.
type reverseMapper struct {
	cur    sequence.Seq
	keyBuf []byte
}

// Map implements mapreduce.Mapper.
func (m *reverseMapper) Map(key, value []byte, emit mapreduce.Emit) error {
	var err error
	m.cur, err = encoding.DecodeSeqInto(m.cur, key)
	if err != nil {
		return err
	}
	reverseInPlace(m.cur)
	m.keyBuf = encoding.AppendKey(m.keyBuf[:0], m.cur)
	return emit(m.keyBuf, value)
}

func reverseInPlace(s sequence.Seq) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// prefixFilterReducer applies the same consecutive-emission filter as
// the SUFFIX-σ reducer, but over an already-aggregated stream: an
// n-gram that is a prefix of the previously emitted one is dropped
// under maximality (and under closedness when frequencies coincide).
// Before emitting, the reversed n-gram is restored to original order.
type prefixFilterReducer struct {
	mode SelectMode
	kind AggregationKind

	cur         sequence.Seq
	lastEmitted sequence.Seq
	lastCF      int64
	haveLast    bool
	keyBuf      []byte
}

// Reduce implements mapreduce.Reducer.
func (r *prefixFilterReducer) Reduce(key []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	var err error
	r.cur, err = encoding.DecodeKeyInto(r.cur, key)
	if err != nil {
		return err
	}
	// Each reversed n-gram is unique, so groups have a single value;
	// merge defensively anyway.
	cell := newAggregate(r.kind)
	for values.Next() {
		if err := cell.Add(values.Value()); err != nil {
			return err
		}
	}
	cf := cell.Frequency()
	if r.haveLast && sequence.IsPrefix(r.cur, r.lastEmitted) {
		switch r.mode {
		case SelectMaximal:
			return nil
		case SelectClosed:
			if cf == r.lastCF {
				return nil
			}
		}
	}
	r.lastEmitted = append(r.lastEmitted[:0], r.cur...)
	r.lastCF = cf
	r.haveLast = true
	reverseInPlace(r.cur)
	r.keyBuf = encoding.AppendSeq(r.keyBuf[:0], r.cur)
	return emit(r.keyBuf, cell.Encode())
}

// MaximalOracle computes the maximal (or closed) subset of exact n-gram
// statistics by brute force — the reference the extension tests compare
// against. counts must map encoded n-grams to their collection
// frequencies; only entries with cf ≥ tau are considered.
func MaximalOracle(counts map[string]int64, tau int64, mode SelectMode) map[string]int64 {
	type entry struct {
		seq sequence.Seq
		cf  int64
	}
	var entries []entry
	for k, cf := range counts {
		if cf < tau {
			continue
		}
		s, err := encoding.DecodeSeq([]byte(k))
		if err != nil {
			continue
		}
		entries = append(entries, entry{s, cf})
	}
	out := make(map[string]int64)
	for _, e := range entries {
		keep := true
		for _, other := range entries {
			if len(other.seq) <= len(e.seq) {
				continue
			}
			if !sequence.IsSubsequence(e.seq, other.seq) {
				continue
			}
			switch mode {
			case SelectMaximal:
				keep = false
			case SelectClosed:
				if other.cf == e.cf {
					keep = false
				}
			}
			if !keep {
				break
			}
		}
		if keep {
			out[string(encoding.EncodeSeq(e.seq))] = e.cf
		}
	}
	return out
}
