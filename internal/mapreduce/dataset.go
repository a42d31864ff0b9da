package mapreduce

import (
	"fmt"
	"sync"
)

// KV is a key-value record.
type KV struct {
	Key   []byte
	Value []byte
}

// Dataset is the materialized output of a job: a partitioned collection
// of records that can be scanned again (typically as the input of a
// follow-up job, as the APRIORI methods and the maximality post-filter
// do). Implementations are safe for concurrent Scan of distinct
// partitions.
type Dataset interface {
	// NumPartitions returns the number of partitions.
	NumPartitions() int
	// Scan calls yield for every record of partition p, in the order the
	// reducer emitted them. The slices passed to yield are only valid for
	// the duration of the call.
	Scan(p int, yield func(key, value []byte) error) error
	// Records returns the total number of records.
	Records() int64
	// Release frees any resources (e.g. backing files). The dataset must
	// not be scanned afterwards.
	Release() error
}

// MemDataset is an in-memory Dataset.
type MemDataset struct {
	parts [][]KV
	n     int64
}

// NewMemDataset creates a MemDataset from explicit partitions. The
// records are used directly without copying.
func NewMemDataset(parts [][]KV) *MemDataset {
	d := &MemDataset{parts: parts}
	for _, p := range parts {
		d.n += int64(len(p))
	}
	return d
}

// NumPartitions implements Dataset.
func (d *MemDataset) NumPartitions() int { return len(d.parts) }

// Scan implements Dataset.
func (d *MemDataset) Scan(p int, yield func(key, value []byte) error) error {
	if p < 0 || p >= len(d.parts) {
		return fmt.Errorf("mapreduce: partition %d out of range [0,%d)", p, len(d.parts))
	}
	for _, r := range d.parts[p] {
		if err := yield(r.Key, r.Value); err != nil {
			return err
		}
	}
	return nil
}

// Records implements Dataset.
func (d *MemDataset) Records() int64 { return d.n }

// Release implements Dataset.
func (d *MemDataset) Release() error {
	d.parts = nil
	return nil
}

// Partition returns partition p for direct access.
func (d *MemDataset) Partition(p int) []KV { return d.parts[p] }

// concatDataset exposes several datasets as one, partition-aligned end
// to end.
type concatDataset struct {
	parts []Dataset
}

// ConcatDatasets combines datasets into a single logical dataset whose
// partitions are the concatenation of the inputs' partitions. The
// multi-job APRIORI methods use it to expose their per-iteration
// outputs as one result.
func ConcatDatasets(parts ...Dataset) Dataset {
	if len(parts) == 1 {
		return parts[0]
	}
	return &concatDataset{parts: parts}
}

// NumPartitions implements Dataset.
func (d *concatDataset) NumPartitions() int {
	n := 0
	for _, p := range d.parts {
		n += p.NumPartitions()
	}
	return n
}

// Scan implements Dataset.
func (d *concatDataset) Scan(p int, yield func(key, value []byte) error) error {
	for _, part := range d.parts {
		if p < part.NumPartitions() {
			return part.Scan(p, yield)
		}
		p -= part.NumPartitions()
	}
	return fmt.Errorf("mapreduce: partition out of range")
}

// Records implements Dataset.
func (d *concatDataset) Records() int64 {
	var n int64
	for _, p := range d.parts {
		n += p.Records()
	}
	return n
}

// Release implements Dataset.
func (d *concatDataset) Release() error {
	var first error
	for _, p := range d.parts {
		if err := p.Release(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CollectDataset scans every partition of a dataset into memory. Handy
// in tests and for small outputs (e.g. dictionaries of frequent terms).
func CollectDataset(d Dataset) ([]KV, error) {
	var out []KV
	for p := 0; p < d.NumPartitions(); p++ {
		err := d.Scan(p, func(k, v []byte) error {
			out = append(out, KV{append([]byte(nil), k...), append([]byte(nil), v...)})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Sink receives reducer (or map-only) output and produces a Dataset.
type Sink interface {
	// Writer returns the writer for partition p. Writers for distinct
	// partitions may be used concurrently.
	Writer(p int) (SinkWriter, error)
	// Finish returns the completed dataset. All writers must be closed
	// first.
	Finish() (Dataset, error)
}

// SinkWriter writes the records of one partition.
type SinkWriter interface {
	Write(key, value []byte) error
	Close() error
}

// MemSinkFactory returns a factory for in-memory sinks, the default.
func MemSinkFactory() SinkFactory {
	return func(partitions int) (Sink, error) {
		return &memSink{parts: make([][]KV, partitions)}, nil
	}
}

// SinkFactory creates a sink with the given number of partitions.
type SinkFactory func(partitions int) (Sink, error)

type memSink struct {
	mu    sync.Mutex
	parts [][]KV
}

func (s *memSink) Writer(p int) (SinkWriter, error) {
	return &memSinkWriter{sink: s, p: p}, nil
}

func (s *memSink) Finish() (Dataset, error) {
	return NewMemDataset(s.parts), nil
}

type memSinkWriter struct {
	sink *memSink
	p    int
	buf  []KV
}

func (w *memSinkWriter) Write(key, value []byte) error {
	w.buf = append(w.buf, KV{append([]byte(nil), key...), append([]byte(nil), value...)})
	return nil
}

func (w *memSinkWriter) Close() error {
	w.sink.mu.Lock()
	w.sink.parts[w.p] = append(w.sink.parts[w.p], w.buf...)
	w.sink.mu.Unlock()
	w.buf = nil
	return nil
}
