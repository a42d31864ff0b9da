package core

import (
	"context"
	"fmt"

	"ngramstats/internal/corpus"
	"ngramstats/internal/encoding"
	"ngramstats/internal/mapreduce"
	"ngramstats/internal/sequence"
)

// computeSuffixSigma runs SUFFIX-σ (Algorithm 4), the paper's
// contribution. The mapper emits, at every position of a document, a
// single key-value pair whose key is the suffix starting there,
// truncated to σ terms — every n-gram is represented as a prefix of
// some emitted suffix. Suffixes are partitioned by their first term
// only, so one reducer sees every suffix that can represent n-grams
// starting with that term, and sorted in reverse lexicographic order,
// so an n-gram's collection frequency can be finalized and emitted as
// soon as the sort order guarantees no yet-unseen suffix represents it.
// The reducer needs just two stacks of depth ≤ σ (terms and lazily
// merged aggregates) instead of a dictionary of all n-grams.
//
// One MapReduce job suffices; with maximality/closedness selected, a
// second post-filtering job over reversed n-grams removes the
// non-suffix-maximal/closed ones (Section VI-A).
func computeSuffixSigma(ctx context.Context, col *corpus.Collection, p Params) (*Run, error) {
	drv := mapreduce.NewDriver()
	input, err := corpusInput(ctx, col, p, drv)
	if err != nil {
		return nil, err
	}
	job := p.specJob("suffix-sigma", jobSpec{
		Kind: kindSuffixSigma, Tau: p.Tau, Sigma: p.Sigma,
		Agg: p.Aggregation, Select: p.Select, Combiner: p.Combiner,
	})
	job.Input = input
	res, err := drv.Run(ctx, job)
	if err != nil {
		return nil, err
	}

	output := res.Output
	if p.Select != SelectAll {
		filtered, err := suffixFilterJob(ctx, drv, p, output)
		if err != nil {
			return nil, err
		}
		if err := output.Release(); err != nil {
			return nil, err
		}
		output = filtered
	}
	return &Run{
		Method:    SuffixSigma,
		Result:    NewResultSet(output, p.Aggregation),
		Counters:  drv.Aggregate,
		Wallclock: drv.Wallclock(),
		Jobs:      len(drv.JobResults),
	}, nil
}

// FirstTermPartitioner assigns a key-encoded sequence to a reducer
// based on its first term only (the partition-function of Algorithm 4),
// guaranteeing that a single reducer receives all suffixes that begin
// with the same term. A key whose first term does not parse is
// reported as malformed: the runtime counts it in MALFORMED_KEYS and
// fails the job, instead of the old behaviour of silently routing it
// to partition 0.
func FirstTermPartitioner(key []byte, r int) int {
	t, err := encoding.FirstTerm(key)
	if err != nil {
		return mapreduce.MalformedKeyPartition
	}
	return int(mix32(uint32(t)) % uint32(r))
}

// mix32 is a splittable finalizer (Stafford variant 13) standing in for
// Java's Integer.hashCode with better dispersion of the small,
// frequency-ranked term identifiers across reducers.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// suffixMapper emits at every position of every sentence the suffix
// starting there, truncated to σ terms and in the key encoding, with
// the aggregation's per-occurrence value (a unit count by default).
// Descending byte order of those keys is the reverse lexicographic
// order of Section IV.
type suffixMapper struct {
	sigma  int
	kind   AggregationKind
	encBuf []byte
	offs   []int
}

// Map implements mapreduce.Mapper.
func (m *suffixMapper) Map(key, value []byte, emit mapreduce.Emit) error {
	docID, err := corpus.DecodeDocKey(key)
	if err != nil {
		return err
	}
	year, err := corpus.DocYear(value)
	if err != nil {
		return err
	}
	val := mapValue(m.kind, &docMeta{docID: docID, year: year})
	return corpus.VisitSentences(value, func(s sequence.Seq) error {
		// Key-encode the sentence once, remembering each term's byte
		// offset, so every truncated suffix is a subslice.
		m.encBuf = m.encBuf[:0]
		m.offs = m.offs[:0]
		for _, t := range s {
			m.offs = append(m.offs, len(m.encBuf))
			m.encBuf = encoding.AppendKeyTerm(m.encBuf, t)
		}
		m.offs = append(m.offs, len(m.encBuf))
		for b := 0; b < len(s); b++ {
			end := b + m.sigma
			if end > len(s) || end < 0 { // < 0 guards σ = Unbounded overflow
				end = len(s)
			}
			if err := emit(m.encBuf[m.offs[b]:m.offs[end]], val); err != nil {
				return err
			}
		}
		return nil
	})
}

// aggregateCombiner merges the aggregate cells of equal suffixes
// map-side. Cell encodings are closed under merging, so combiner output
// feeds the reducer unchanged.
type aggregateCombiner struct {
	kind AggregationKind

	cell   Aggregate // reused for every group
	valBuf []byte
}

// Reduce implements mapreduce.Reducer.
func (c *aggregateCombiner) Reduce(key []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	if c.cell == nil {
		c.cell = newAggregate(c.kind)
	}
	c.cell.Reset()
	for values.Next() {
		if err := c.cell.Add(values.Value()); err != nil {
			return err
		}
	}
	c.valBuf = c.cell.AppendEncode(c.valBuf[:0])
	return emit(key, c.valBuf)
}

// suffixSigmaReducer is the reduce-function of Algorithm 4: it keeps a
// stack of terms (the prefix of the current suffix) and a parallel
// stack of aggregate cells, maintaining the invariant that the cells,
// summed from the top down to position i, reflect how often the n-gram
// terms[0..i] has been seen so far. Processing a suffix pops stack
// entries no longer on the current path — emitting them if frequent,
// since the reverse lexicographic order guarantees no later suffix can
// represent them — and pushes the new path with a fresh cell per term.
type suffixSigmaReducer struct {
	tau  int64
	kind AggregationKind
	mode SelectMode

	terms sequence.Seq
	cells []Aggregate
	free  []Aggregate // cells process is done with, reset on reuse
	cur   sequence.Seq

	// Prefix-maximality/closedness filter state (Section VI-A): the last
	// n-gram actually emitted and its frequency.
	lastEmitted sequence.Seq
	lastCF      int64
	haveLast    bool

	keyBuf, valBuf []byte
}

// newCell returns an empty cell, recycled from the free list when
// process has released one.
func (r *suffixSigmaReducer) newCell() Aggregate {
	if n := len(r.free); n > 0 {
		cell := r.free[n-1]
		r.free = r.free[:n-1]
		cell.Reset()
		return cell
	}
	return newAggregate(r.kind)
}

// Reduce implements mapreduce.Reducer.
func (r *suffixSigmaReducer) Reduce(key []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	var err error
	r.cur, err = encoding.DecodeKeyInto(r.cur, key)
	if err != nil {
		return err
	}
	cell := r.newCell()
	for values.Next() {
		if err := cell.Add(values.Value()); err != nil {
			return err
		}
	}
	return r.process(r.cur, cell, emit)
}

// Cleanup implements mapreduce.TaskCleanup: it flushes the stacks by
// processing a virtual empty suffix, mirroring the cleanup() of
// Algorithm 4.
func (r *suffixSigmaReducer) Cleanup(emit mapreduce.Emit) error {
	return r.process(nil, nil, emit)
}

func (r *suffixSigmaReducer) process(s sequence.Seq, cell Aggregate, emit mapreduce.Emit) error {
	lcp := sequence.LCP(s, r.terms)
	// Pop stack entries that are not prefixes of s; their frequencies
	// are final.
	for len(r.terms) > lcp {
		top := r.cells[len(r.cells)-1]
		if top.Frequency() >= r.tau {
			if err := r.emitNGram(r.terms, top, emit); err != nil {
				return err
			}
		}
		if len(r.cells) > 1 {
			// Lazy aggregation: fold the popped count into the parent.
			r.cells[len(r.cells)-2].Merge(top)
		}
		r.free = append(r.free, top)
		r.terms = r.terms[:len(r.terms)-1]
		r.cells = r.cells[:len(r.cells)-1]
	}
	if cell == nil {
		return nil // cleanup flush
	}
	if len(r.terms) == len(s) {
		// s equals the stack contents (it is a prefix of the previous
		// suffix): account its occurrences directly.
		if len(s) > 0 {
			r.cells[len(r.cells)-1].Merge(cell)
		}
		r.free = append(r.free, cell)
		return nil
	}
	// Push the diverging rest of s; only the complete suffix carries the
	// observed occurrences.
	for i := len(r.terms); i < len(s); i++ {
		r.terms = append(r.terms, s[i])
		if i == len(s)-1 {
			r.cells = append(r.cells, cell)
		} else {
			r.cells = append(r.cells, r.newCell())
		}
	}
	return nil
}

func (r *suffixSigmaReducer) emitNGram(s sequence.Seq, cell Aggregate, emit mapreduce.Emit) error {
	cf := cell.Frequency()
	if r.haveLast && sequence.IsPrefix(s, r.lastEmitted) {
		switch r.mode {
		case SelectMaximal:
			// s has a frequent extension (the last emitted n-gram): not
			// prefix-maximal.
			return nil
		case SelectClosed:
			if cf == r.lastCF {
				return nil // same-frequency extension exists: not prefix-closed
			}
		}
	}
	r.keyBuf = encoding.AppendSeq(r.keyBuf[:0], s)
	r.valBuf = cell.AppendEncode(r.valBuf[:0])
	if err := emit(r.keyBuf, r.valBuf); err != nil {
		return err
	}
	if r.mode != SelectAll {
		r.lastEmitted = append(r.lastEmitted[:0], s...)
		r.lastCF = cf
		r.haveLast = true
	}
	return nil
}

// computeSuffixSigmaHashmap is the ablation variant the paper sketches
// before introducing the stack scheme ("One way to accomplish this
// would be to enumerate all prefixes of a received suffix and aggregate
// their collection frequencies in main memory (e.g., using a hashmap)").
// It shares SUFFIX-σ's mapper and partitioner but uses the default sort
// order and keeps one hashmap entry per distinct n-gram in the
// partition, emitting everything in cleanup — the memory-hungry
// behaviour SUFFIX-σ is designed to avoid.
func computeSuffixSigmaHashmap(ctx context.Context, col *corpus.Collection, p Params) (*Run, error) {
	if p.Select != SelectAll {
		return nil, fmt.Errorf("core: %s does not support maximality/closedness", SuffixSigmaNaive)
	}
	if p.Aggregation != AggCount {
		return nil, fmt.Errorf("core: %s only supports occurrence counting", SuffixSigmaNaive)
	}
	drv := mapreduce.NewDriver()
	input, err := corpusInput(ctx, col, p, drv)
	if err != nil {
		return nil, err
	}
	job := p.specJob("suffix-sigma-hashmap", jobSpec{
		Kind: kindSuffixHashmap, Tau: p.Tau, Sigma: p.Sigma, Combiner: p.Combiner,
	})
	job.Input = input
	res, err := drv.Run(ctx, job)
	if err != nil {
		return nil, err
	}
	return &Run{
		Method:    SuffixSigmaNaive,
		Result:    NewResultSet(res.Output, AggCount),
		Counters:  drv.Aggregate,
		Wallclock: drv.Wallclock(),
		Jobs:      len(drv.JobResults),
	}, nil
}

// suffixHashmapReducer aggregates every prefix of every received suffix
// in a hashmap, keyed by its result encoding, and emits the frequent
// ones on cleanup.
type suffixHashmapReducer struct {
	tau            int64
	counts         map[string]int64
	cur            sequence.Seq
	keyBuf, valBuf []byte
}

// Setup implements mapreduce.TaskSetup.
func (r *suffixHashmapReducer) Setup(tc *mapreduce.TaskContext) error {
	r.counts = make(map[string]int64)
	return nil
}

// Reduce implements mapreduce.Reducer.
func (r *suffixHashmapReducer) Reduce(key []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	var total int64
	for values.Next() {
		v, n := encoding.Uvarint(values.Value())
		if n <= 0 {
			return encoding.ErrCorrupt
		}
		total += int64(v)
	}
	// Every prefix of the suffix is an n-gram it represents.
	var err error
	if r.cur, err = encoding.DecodeKeyInto(r.cur, key); err != nil {
		return err
	}
	r.keyBuf = r.keyBuf[:0]
	for _, t := range r.cur {
		r.keyBuf = encoding.AppendUvarint(r.keyBuf, uint64(t))
		r.counts[string(r.keyBuf)] += total
	}
	return nil
}

// Cleanup implements mapreduce.TaskCleanup.
func (r *suffixHashmapReducer) Cleanup(emit mapreduce.Emit) error {
	for k, cf := range r.counts {
		if cf >= r.tau {
			r.valBuf = encoding.AppendUvarint(r.valBuf[:0], uint64(cf))
			if err := emit([]byte(k), r.valBuf); err != nil {
				return err
			}
		}
	}
	return nil
}
