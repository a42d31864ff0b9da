package ngramstats

import (
	"errors"
	"iter"
	"strings"
	"time"

	"ngramstats/internal/core"
	"ngramstats/internal/sequence"
)

// NGram is one reported n-gram with its statistics.
type NGram struct {
	// IDs are the term identifiers, in the dictionary of whatever
	// produced the n-gram: a Result's or a saved index's frequency-ranked
	// one, or for an uncompacted LSM chain the chain's own (its base's
	// ranks, then each delta's new terms). Compare n-grams across those
	// by Text.
	IDs []uint32
	// Text is the space-joined word form (empty terms render as the
	// identifier).
	Text string
	// Frequency is the collection frequency cf: the total number of
	// occurrences in the corpus.
	Frequency int64
	// Years holds per-year occurrence counts (Aggregation: TimeSeries).
	Years map[int]int64
	// Documents holds per-document occurrence counts (Aggregation:
	// DocumentIndex).
	Documents map[int64]int64
}

// Length returns the number of words.
func (n NGram) Length() int { return len(n.IDs) }

// Result is the outcome of a computation (Count, or Start + Wait).
type Result struct {
	corpus *Corpus
	run    *core.Run
	// opts is the Options the computation ran with, recorded so Save
	// can persist the parameters (τ, σ, selection) an LSM chain needs
	// to judge appendability.
	opts Options
}

// resolver returns the shared decoder rendering terms through the
// corpus dictionary.
func (r *Result) resolver() resolver {
	return resolver{term: r.corpus.Term}
}

// eachAggregate adapts the result set to the iteration seam shared
// with the persistent Index.
func (r *Result) eachAggregate(fn func(s sequence.Seq, agg core.Aggregate) error) error {
	return r.run.Result.EachAggregate(fn)
}

// Len returns the number of reported n-grams.
func (r *Result) Len() int64 { return r.run.Result.Len() }

// Wallclock returns the total elapsed time across all MapReduce jobs.
func (r *Result) Wallclock() time.Duration { return r.run.Wallclock }

// Jobs returns the number of MapReduce jobs the method launched.
func (r *Result) Jobs() int { return r.run.Jobs }

// BytesTransferred returns the bytes moved between map and reduce
// phases over all jobs (the paper's measure b).
func (r *Result) BytesTransferred() int64 { return r.run.BytesTransferred() }

// RecordsTransferred returns the key-value pairs moved between map and
// reduce phases over all jobs (the paper's measure c).
func (r *Result) RecordsTransferred() int64 { return r.run.RecordsTransferred() }

// ShuffleBytes returns the measured shuffle transfer over all jobs:
// the encoded run-format bytes map tasks actually handed to reduce
// tasks, after front-coding and any block codec — the on-the-wire
// counterpart of BytesTransferred's logical byte count.
func (r *Result) ShuffleBytes() int64 { return r.run.ShuffleBytesWritten() }

// errStop is the sentinel that terminates an internal result scan
// early without reporting an error to the caller.
var errStop = errors.New("ngramstats: stop iteration")

// NGrams returns an iterator over every reported n-gram, decoding one
// n-gram at a time: ranging over it never materializes the result set.
// Iteration order is unspecified. A decode error is yielded as the
// final pair (with a zero NGram) and ends the iteration; breaking out
// of the range stops the underlying scan immediately.
//
//	for ng, err := range result.NGrams() {
//		if err != nil { ... }
//		use(ng)
//	}
func (r *Result) NGrams() iter.Seq2[NGram, error] {
	rv := r.resolver()
	return func(yield func(NGram, error) bool) {
		err := r.eachAggregate(func(s sequence.Seq, agg core.Aggregate) error {
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

// Each calls fn for every reported n-gram. Iteration order is
// unspecified. Returning an error from fn stops iteration. NGrams is
// the range-over-func equivalent.
func (r *Result) Each(fn func(NGram) error) error {
	rv := r.resolver()
	return r.eachAggregate(func(s sequence.Seq, agg core.Aggregate) error {
		return fn(rv.decode(s, agg))
	})
}

// All collects every reported n-gram into a slice. For very large
// results prefer NGrams, which streams.
func (r *Result) All() ([]NGram, error) {
	out := make([]NGram, 0, r.Len())
	err := r.Each(func(ng NGram) error {
		out = append(out, ng)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TopK returns the k most frequent n-grams, most frequent first; ties
// break toward longer n-grams, then lexicographically. Selection
// streams over the result with a bounded min-heap: memory and NGram
// decodes are O(k), independent of the result size.
func (r *Result) TopK(k int) ([]NGram, error) {
	rv := r.resolver()
	return rv.selectTop(r.eachAggregate, r.Len(), k, rv.topKBetter)
}

// Longest returns the k longest reported n-grams, longest first; ties
// break toward higher frequency, then lexicographically. Like TopK it
// streams with a bounded heap in O(k) memory.
func (r *Result) Longest(k int) ([]NGram, error) {
	rv := r.resolver()
	return rv.selectTop(r.eachAggregate, r.Len(), k, rv.longestBetter)
}

// Lookup returns the statistics of the given phrase, if reported. The
// scan stops at the first match and decodes only the matching n-gram.
func (r *Result) Lookup(phrase string) (NGram, bool, error) {
	words := strings.Fields(phrase)
	ids := make(sequence.Seq, len(words))
	for i, w := range words {
		id, ok := r.corpus.TermID(strings.ToLower(w))
		if !ok {
			return NGram{}, false, nil
		}
		ids[i] = id
	}
	rv := r.resolver()
	var found NGram
	ok := false
	err := r.eachAggregate(func(s sequence.Seq, agg core.Aggregate) error {
		if !sequence.Equal(s, ids) {
			return nil
		}
		found = rv.decode(s, agg)
		ok = true
		return errStop
	})
	if err != nil && !errors.Is(err, errStop) {
		return NGram{}, false, err
	}
	return found, ok, nil
}

// Release frees the result's backing storage. The result must not be
// used afterwards.
func (r *Result) Release() error { return r.run.Result.Release() }
