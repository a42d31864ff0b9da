// Package core implements the paper's methods for computing n-gram
// statistics in MapReduce: NAÏVE (Algorithm 1), APRIORI-SCAN
// (Algorithm 2), APRIORI-INDEX (Algorithm 3), and the paper's
// contribution SUFFIX-σ (Algorithm 4), together with the implementation
// techniques of Section V (document splits, sequence encoding, combiner
// use, key-value stores for dictionary/posting buffering) and the
// extensions of Section VI (maximality/closedness, aggregations beyond
// occurrence counting).
//
// All methods solve the same problem: given a document collection D, a
// minimum collection frequency τ and a maximum length σ, identify every
// n-gram s with cf(s) ≥ τ and |s| ≤ σ, where cf is the total number of
// occurrences across documents. Sentence boundaries act as barriers:
// no n-gram spans a sentence (Section VII-B).
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"ngramstats/internal/corpus"
	"ngramstats/internal/encoding"
	"ngramstats/internal/extsort"
	"ngramstats/internal/mapreduce"
	"ngramstats/internal/sequence"
)

// Method selects one of the implemented algorithms.
type Method string

// The four methods evaluated in the paper (Section VII), plus an
// ablation variant of SUFFIX-σ that aggregates with an in-reducer
// hashmap instead of the reverse-lexicographic two-stack scheme
// (the "one way to accomplish this" strawman of Section IV).
const (
	Naive            Method = "naive"
	AprioriScan      Method = "apriori-scan"
	AprioriIndex     Method = "apriori-index"
	SuffixSigma      Method = "suffix-sigma"
	SuffixSigmaNaive Method = "suffix-sigma-hashmap"
)

// Methods lists the paper's four methods in presentation order.
func Methods() []Method {
	return []Method{Naive, AprioriScan, AprioriIndex, SuffixSigma}
}

// methodImpls is the dispatch table behind Compute and ValidMethod —
// the single list a new method must be added to.
var methodImpls = map[Method]func(context.Context, *corpus.Collection, Params) (*Run, error){
	Naive:            computeNaive,
	AprioriScan:      computeAprioriScan,
	AprioriIndex:     computeAprioriIndex,
	SuffixSigma:      computeSuffixSigma,
	SuffixSigmaNaive: computeSuffixSigmaHashmap,
}

// ValidMethod reports whether Compute can dispatch m.
func ValidMethod(m Method) bool {
	_, ok := methodImpls[m]
	return ok
}

// SelectMode restricts which n-grams are produced (Section VI-A).
type SelectMode int

const (
	// SelectAll keeps every n-gram with cf ≥ τ and |s| ≤ σ.
	SelectAll SelectMode = iota
	// SelectMaximal keeps only maximal n-grams: no frequent
	// super-sequence exists.
	SelectMaximal
	// SelectClosed keeps only closed n-grams: no super-sequence with the
	// same collection frequency exists.
	SelectClosed
)

func (m SelectMode) String() string {
	switch m {
	case SelectMaximal:
		return "maximal"
	case SelectClosed:
		return "closed"
	default:
		return "all"
	}
}

// Unbounded is the σ value representing no length restriction (σ = ∞).
const Unbounded = math.MaxInt32

// Params configures a method run.
type Params struct {
	// Tau is the minimum collection frequency τ (≥ 1).
	Tau int64
	// Sigma is the maximum n-gram length σ; use Unbounded for σ = ∞.
	Sigma int
	// NumReducers is the number of reduce partitions per job.
	NumReducers int
	// MapSlots and ReduceSlots bound task concurrency (Section VII-H).
	MapSlots, ReduceSlots int
	// InputSplits is the number of map tasks over the corpus.
	InputSplits int
	// TempDir is the scratch directory for shuffle spills.
	TempDir string
	// DocSplit enables splitting documents at infrequent terms before
	// the main computation (Section V, "Document Splits").
	DocSplit bool
	// Combiner enables map-side local aggregation where applicable
	// (Section V, "Hadoop-Specific Optimizations").
	Combiner bool
	// K is the length up to which APRIORI-INDEX builds its index by
	// scanning (Algorithm 3); beyond K it joins posting lists. The
	// paper's calibrated setting is 4.
	K int
	// Select restricts output to maximal or closed n-grams (SUFFIX-σ
	// only; Section VI-A).
	Select SelectMode
	// Aggregation selects what is aggregated per n-gram (SUFFIX-σ only;
	// Section VI-B). Default is occurrence counting.
	Aggregation AggregationKind
	// DictionaryMemory bounds the in-memory dictionary of frequent
	// (k−1)-grams in APRIORI-SCAN; beyond it the dictionary migrates to
	// a disk-resident key-value store (Section V, "Key-Value Store").
	// Zero selects 64 MiB.
	DictionaryMemory int
	// JoinMemory bounds the buffered posting lists per reduce group in
	// APRIORI-INDEX's join; beyond it they spill to disk (Section III-B).
	// Zero selects 64 MiB.
	JoinMemory int
	// ShuffleCodec selects optional per-block compression of shuffle
	// runs on top of the run format's front-coding (extsort.CodecRaw by
	// default). extsort.CodecFlate trades CPU for smaller transfer and
	// suits NAÏVE/APRIORI runs whose values compress well.
	ShuffleCodec extsort.Codec
	// Runner selects the execution backend for every MapReduce job the
	// method launches: mapreduce.LocalRunner (in-process goroutines) or
	// a mapreduce.NetRunner (worker processes leased tasks over HTTP,
	// with heartbeats, retry, and a shuffle-transfer service; its zero
	// value is what the "process" address builds). Nil selects
	// mapreduce.DefaultRunner, which honors the NGRAMS_RUNNER
	// environment variable ("local", "process", "net://host:port", or
	// any scheme registered via mapreduce.RegisterRunner).
	Runner mapreduce.Runner
	// Progress, if non-nil, receives structured lifecycle events from
	// every MapReduce job the method launches: job and phase starts,
	// per-task completions, and final summaries, plus live handles on
	// each job's counters and measured shuffle transfer. It replaces the
	// earlier free-form Logf hook; wrap a printf-style logger with
	// mapreduce.LogProgress for log-line output.
	Progress mapreduce.Progress
}

func (p Params) withDefaults() Params {
	if p.Tau < 1 {
		p.Tau = 1
	}
	if p.Sigma <= 0 {
		p.Sigma = Unbounded
	}
	if p.InputSplits <= 0 {
		p.InputSplits = 16
	}
	if p.K <= 0 {
		p.K = 4
	}
	if p.DictionaryMemory <= 0 {
		p.DictionaryMemory = 64 << 20
	}
	if p.JoinMemory <= 0 {
		p.JoinMemory = 64 << 20
	}
	return p
}

func (p Params) job(name string) *mapreduce.Job {
	return &mapreduce.Job{
		Name:         name,
		NumReducers:  p.NumReducers,
		MapSlots:     p.MapSlots,
		ReduceSlots:  p.ReduceSlots,
		TempDir:      p.TempDir,
		ShuffleCodec: p.ShuffleCodec,
		Runner:       p.Runner,
		Progress:     p.Progress,
	}
}

// Run is the outcome of a method execution.
type Run struct {
	// Method is the algorithm that ran.
	Method Method
	// Result is the computed n-gram statistics.
	Result *ResultSet
	// Counters aggregates the Hadoop-style counters over every job the
	// method launched, the way the paper reports bytes/records
	// (Section VII-A, measures b and c).
	Counters *mapreduce.Counters
	// Wallclock is the total elapsed time across all jobs, including
	// driver work between jobs (measure a).
	Wallclock time.Duration
	// Jobs is the number of MapReduce jobs launched.
	Jobs int
}

// BytesTransferred returns the paper's measure (b): MAP_OUTPUT_BYTES
// aggregated over all jobs.
func (r *Run) BytesTransferred() int64 {
	return r.Counters.Get(mapreduce.CounterMapOutputBytes)
}

// RecordsTransferred returns the paper's measure (c):
// MAP_OUTPUT_RECORDS aggregated over all jobs.
func (r *Run) RecordsTransferred() int64 {
	return r.Counters.Get(mapreduce.CounterMapOutputRecords)
}

// ShuffleBytesWritten returns the measured shuffle transfer aggregated
// over all jobs: encoded run-format bytes map tasks handed to the
// reduce side (SHUFFLE_BYTES_WRITTEN), after front-coding and any
// block codec — the real counterpart of the paper's "bytes
// transferred" rather than the logical key+value estimate.
func (r *Run) ShuffleBytesWritten() int64 {
	return r.Counters.Get(mapreduce.CounterShuffleBytesWritten)
}

// ShuffleBytesRead returns the encoded run-format bytes reduce-side
// merges consumed, aggregated over all jobs. On fully drained jobs it
// equals ShuffleBytesWritten.
func (r *Run) ShuffleBytesRead() int64 {
	return r.Counters.Get(mapreduce.CounterShuffleBytesRead)
}

// ResultSet is a computed set of n-gram statistics backed by a job
// output dataset of (encoded n-gram, encoded aggregate) records.
type ResultSet struct {
	data mapreduce.Dataset
	kind AggregationKind
}

// NewResultSet wraps a dataset of (encoded n-gram, aggregate) records.
func NewResultSet(d mapreduce.Dataset, kind AggregationKind) *ResultSet {
	return &ResultSet{data: d, kind: kind}
}

// Kind returns the aggregation the results carry.
func (r *ResultSet) Kind() AggregationKind { return r.kind }

// Len returns the number of n-grams in the result.
func (r *ResultSet) Len() int64 { return r.data.Records() }

// Dataset exposes the raw backing dataset.
func (r *ResultSet) Dataset() mapreduce.Dataset { return r.data }

// Each calls fn for every (n-gram, collection frequency) pair. The
// sequence passed to fn is freshly allocated and may be retained.
func (r *ResultSet) Each(fn func(s sequence.Seq, cf int64) error) error {
	for p := 0; p < r.data.NumPartitions(); p++ {
		err := r.data.Scan(p, func(k, v []byte) error {
			s, err := encoding.DecodeSeq(k)
			if err != nil {
				return err
			}
			cf, err := DecodeFrequency(r.kind, v)
			if err != nil {
				return err
			}
			return fn(s, cf)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// EachAggregate calls fn for every (n-gram, decoded aggregate) pair.
func (r *ResultSet) EachAggregate(fn func(s sequence.Seq, agg Aggregate) error) error {
	for p := 0; p < r.data.NumPartitions(); p++ {
		err := r.data.Scan(p, func(k, v []byte) error {
			s, err := encoding.DecodeSeq(k)
			if err != nil {
				return err
			}
			agg, err := decodeAggregate(r.kind, v)
			if err != nil {
				return err
			}
			return fn(s, agg)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// CountMap collects the result into a map keyed by the string form of
// the encoded n-gram. Intended for tests and small results.
func (r *ResultSet) CountMap() (map[string]int64, error) {
	m := make(map[string]int64)
	err := r.Each(func(s sequence.Seq, cf int64) error {
		m[string(encoding.EncodeSeq(s))] = cf
		return nil
	})
	return m, err
}

// Release frees the backing dataset.
func (r *ResultSet) Release() error { return r.data.Release() }

// Compute runs the selected method over the collection.
func Compute(ctx context.Context, col *corpus.Collection, method Method, p Params) (*Run, error) {
	impl, ok := methodImpls[method]
	if !ok {
		return nil, fmt.Errorf("core: unknown method %q", method)
	}
	return impl(ctx, col, p.withDefaults())
}

// corpusInput prepares the input of a method's main jobs: the raw
// collection, or the document-split rewrite of it when p.DocSplit is
// set. It returns the input, the number of pre-processing jobs
// launched, and their aggregated counters (folded into the method's
// driver by the caller).
func corpusInput(ctx context.Context, col *corpus.Collection, p Params, drv *mapreduce.Driver) (mapreduce.Input, error) {
	if !p.DocSplit {
		return col.Input(p.InputSplits), nil
	}
	return documentSplitInput(ctx, col, p, drv)
}
