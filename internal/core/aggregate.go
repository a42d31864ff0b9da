package core

import (
	"fmt"
	"slices"

	"ngramstats/internal/encoding"
)

// AggregationKind selects what SUFFIX-σ aggregates per n-gram beyond
// plain occurrence counting (Section VI-B).
type AggregationKind int

const (
	// AggCount aggregates occurrence counts (the paper's main setting).
	AggCount AggregationKind = iota
	// AggTimeSeries aggregates per-year occurrence counts from document
	// timestamps, producing n-gram time series in the style of Michel et
	// al. ("culturomics").
	AggTimeSeries
	// AggDocIndex aggregates per-document occurrence counts, i.e. an
	// inverted index recording how often every n-gram occurs in
	// individual documents (first bullet of Section VI-B).
	AggDocIndex
)

func (k AggregationKind) String() string {
	switch k {
	case AggTimeSeries:
		return "timeseries"
	case AggDocIndex:
		return "docindex"
	default:
		return "count"
	}
}

// Aggregate is one cell of aggregated information about an n-gram. The
// SUFFIX-σ reducer keeps a stack of Aggregates parallel to its term
// stack and merges cells lazily as suffixes are popped.
type Aggregate interface {
	// Add folds one map-output value into the cell.
	Add(value []byte) error
	// Merge folds another cell of the same kind into this one.
	Merge(other Aggregate)
	// Frequency returns the total occurrence count the cell represents,
	// used for the cf ≥ τ test.
	Frequency() int64
	// Encode serializes the cell as an output value.
	Encode() []byte
	// AppendEncode appends the serialized cell to dst, so per-group
	// loops encode into one reused buffer.
	AppendEncode(dst []byte) []byte
	// Reset empties the cell for reuse, keeping its storage.
	Reset()
}

// newAggregate returns an empty cell of the given kind.
func newAggregate(kind AggregationKind) Aggregate {
	switch kind {
	case AggTimeSeries:
		return &timeSeriesAggregate{counts: make(map[int]int64)}
	case AggDocIndex:
		return &docIndexAggregate{counts: make(map[int64]int64)}
	default:
		return &countAggregate{}
	}
}

// appendMapValue appends to dst the map-output value SUFFIX-σ emits for
// one suffix occurrence under the given aggregation: the per-occurrence
// singleton cell. All kinds share the property that the value of a combiner
// output (a merged cell) is decodable by Add, so combiners work
// uniformly.
func appendMapValue(dst []byte, kind AggregationKind, doc *docMeta) []byte {
	switch kind {
	case AggTimeSeries:
		// Singleton time series: one (year, count) pair.
		dst = encoding.AppendUvarint(dst, 1)
		dst = encoding.AppendUvarint(dst, uint64(doc.year))
		return encoding.AppendUvarint(dst, 1)
	case AggDocIndex:
		dst = encoding.AppendUvarint(dst, 1)
		dst = encoding.AppendUvarint(dst, uint64(doc.docID))
		return encoding.AppendUvarint(dst, 1)
	default:
		return encoding.AppendUvarint(dst, 1)
	}
}

// docMeta carries the per-document metadata available to appendMapValue.
type docMeta struct {
	docID int64
	year  int
}

// DecodeFrequency extracts the total occurrence count from an encoded
// aggregate value without building the cell: every kind's frequency is
// a sum of stored counts, so it reads straight off the varints with no
// allocation. Selection loops use it to reject a record before paying
// for its sequence and aggregate.
func DecodeFrequency(kind AggregationKind, v []byte) (int64, error) {
	first, n := encoding.Uvarint(v)
	if n <= 0 {
		return 0, fmt.Errorf("core: %w: %s value", encoding.ErrCorrupt, kind)
	}
	v = v[n:]
	if kind == AggCount {
		if len(v) != 0 {
			return 0, fmt.Errorf("core: %w: count value", encoding.ErrCorrupt)
		}
		return int64(first), nil
	}
	// Time series and document index share one layout: a pair count,
	// then (year or document, count) pairs.
	var cf int64
	for i := uint64(0); i < first; i++ {
		_, n := encoding.Uvarint(v)
		if n <= 0 {
			return 0, fmt.Errorf("core: %w: %s pair", encoding.ErrCorrupt, kind)
		}
		v = v[n:]
		count, n := encoding.Uvarint(v)
		if n <= 0 {
			return 0, fmt.Errorf("core: %w: %s pair", encoding.ErrCorrupt, kind)
		}
		v = v[n:]
		cf += int64(count)
	}
	if len(v) != 0 {
		return 0, fmt.Errorf("core: %w: %s trailing bytes", encoding.ErrCorrupt, kind)
	}
	return cf, nil
}

// decodeAggregate decodes an encoded aggregate value of the given kind.
func decodeAggregate(kind AggregationKind, v []byte) (Aggregate, error) {
	agg := newAggregate(kind)
	if err := agg.Add(v); err != nil {
		return nil, err
	}
	return agg, nil
}

// DecodeAggregate decodes an encoded aggregate value of the given kind.
// The persistent index stores reducer-encoded values verbatim and
// decodes them on the serving path through this entry point.
func DecodeAggregate(kind AggregationKind, v []byte) (Aggregate, error) {
	return decodeAggregate(kind, v)
}

// countAggregate counts occurrences. Encoded form: uvarint(count).
type countAggregate struct {
	n int64
}

func (c *countAggregate) Add(value []byte) error {
	v, n := encoding.Uvarint(value)
	if n <= 0 || n != len(value) {
		return fmt.Errorf("core: %w: count value", encoding.ErrCorrupt)
	}
	c.n += int64(v)
	return nil
}

func (c *countAggregate) Merge(other Aggregate) { c.n += other.(*countAggregate).n }

func (c *countAggregate) Frequency() int64 { return c.n }

func (c *countAggregate) Encode() []byte { return c.AppendEncode(nil) }

func (c *countAggregate) AppendEncode(dst []byte) []byte {
	return encoding.AppendUvarint(dst, uint64(c.n))
}

func (c *countAggregate) Reset() { c.n = 0 }

// timeSeriesAggregate counts occurrences per publication year. Encoded
// form: uvarint(#pairs) then (uvarint(year), uvarint(count))… sorted by
// year.
type timeSeriesAggregate struct {
	counts map[int]int64
	years  []int // AppendEncode's sort scratch
}

func (t *timeSeriesAggregate) Add(value []byte) error {
	pairs, n := encoding.Uvarint(value)
	if n <= 0 {
		return fmt.Errorf("core: %w: time series pair count", encoding.ErrCorrupt)
	}
	value = value[n:]
	for i := uint64(0); i < pairs; i++ {
		year, n := encoding.Uvarint(value)
		if n <= 0 {
			return fmt.Errorf("core: %w: time series year", encoding.ErrCorrupt)
		}
		value = value[n:]
		count, n := encoding.Uvarint(value)
		if n <= 0 {
			return fmt.Errorf("core: %w: time series count", encoding.ErrCorrupt)
		}
		value = value[n:]
		t.counts[int(year)] += int64(count)
	}
	if len(value) != 0 {
		return fmt.Errorf("core: %w: time series trailing bytes", encoding.ErrCorrupt)
	}
	return nil
}

func (t *timeSeriesAggregate) Merge(other Aggregate) {
	for y, c := range other.(*timeSeriesAggregate).counts {
		t.counts[y] += c
	}
}

func (t *timeSeriesAggregate) Frequency() int64 {
	var n int64
	for _, c := range t.counts {
		n += c
	}
	return n
}

func (t *timeSeriesAggregate) Encode() []byte { return t.AppendEncode(nil) }

func (t *timeSeriesAggregate) AppendEncode(b []byte) []byte {
	t.years = t.years[:0]
	for y := range t.counts {
		t.years = append(t.years, y)
	}
	slices.Sort(t.years)
	b = encoding.AppendUvarint(b, uint64(len(t.years)))
	for _, y := range t.years {
		b = encoding.AppendUvarint(b, uint64(y))
		b = encoding.AppendUvarint(b, uint64(t.counts[y]))
	}
	return b
}

func (t *timeSeriesAggregate) Reset() { clear(t.counts) }

// Years returns the per-year counts of a time-series aggregate.
func (t *timeSeriesAggregate) Years() map[int]int64 { return t.counts }

// TimeSeriesCounts extracts the per-year counts from an aggregate
// produced under AggTimeSeries. It returns false if the aggregate is of
// a different kind.
func TimeSeriesCounts(a Aggregate) (map[int]int64, bool) {
	t, ok := a.(*timeSeriesAggregate)
	if !ok {
		return nil, false
	}
	return t.counts, true
}

// docIndexAggregate counts occurrences per document. Encoded form:
// uvarint(#pairs) then (uvarint(docID), uvarint(count))… sorted by
// document.
type docIndexAggregate struct {
	counts map[int64]int64
	docs   []int64 // AppendEncode's sort scratch
}

func (d *docIndexAggregate) Add(value []byte) error {
	pairs, n := encoding.Uvarint(value)
	if n <= 0 {
		return fmt.Errorf("core: %w: doc index pair count", encoding.ErrCorrupt)
	}
	value = value[n:]
	for i := uint64(0); i < pairs; i++ {
		doc, n := encoding.Uvarint(value)
		if n <= 0 {
			return fmt.Errorf("core: %w: doc index docID", encoding.ErrCorrupt)
		}
		value = value[n:]
		count, n := encoding.Uvarint(value)
		if n <= 0 {
			return fmt.Errorf("core: %w: doc index count", encoding.ErrCorrupt)
		}
		value = value[n:]
		d.counts[int64(doc)] += int64(count)
	}
	if len(value) != 0 {
		return fmt.Errorf("core: %w: doc index trailing bytes", encoding.ErrCorrupt)
	}
	return nil
}

func (d *docIndexAggregate) Merge(other Aggregate) {
	for doc, c := range other.(*docIndexAggregate).counts {
		d.counts[doc] += c
	}
}

func (d *docIndexAggregate) Frequency() int64 {
	var n int64
	for _, c := range d.counts {
		n += c
	}
	return n
}

func (d *docIndexAggregate) Encode() []byte { return d.AppendEncode(nil) }

func (d *docIndexAggregate) AppendEncode(b []byte) []byte {
	d.docs = d.docs[:0]
	for doc := range d.counts {
		d.docs = append(d.docs, doc)
	}
	slices.Sort(d.docs)
	b = encoding.AppendUvarint(b, uint64(len(d.docs)))
	for _, doc := range d.docs {
		b = encoding.AppendUvarint(b, uint64(doc))
		b = encoding.AppendUvarint(b, uint64(d.counts[doc]))
	}
	return b
}

// Reset drops a large map instead of clearing it: clear costs the
// map's capacity, which one frequent n-gram would otherwise charge to
// every later group that reuses the cell.
func (d *docIndexAggregate) Reset() {
	if len(d.counts) > 64 {
		d.counts = make(map[int64]int64)
		return
	}
	clear(d.counts)
}

// DocIndexCounts extracts the per-document counts from an aggregate
// produced under AggDocIndex. It returns false if the aggregate is of a
// different kind.
func DocIndexCounts(a Aggregate) (map[int64]int64, bool) {
	d, ok := a.(*docIndexAggregate)
	if !ok {
		return nil, false
	}
	return d.counts, true
}

// DocumentFrequency returns the number of distinct documents in an
// AggDocIndex aggregate — the df(s) notion of Section II.
func DocumentFrequency(a Aggregate) (int64, bool) {
	d, ok := a.(*docIndexAggregate)
	if !ok {
		return 0, false
	}
	return int64(len(d.counts)), true
}
