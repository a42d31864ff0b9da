package extsort

import (
	"bytes"
	"fmt"
	"os"
)

// Run is a sealed, immutable sorted run of records in the block-framed
// run format (see format.go): either an encoded in-memory buffer or
// one on-disk spill file. Runs are the hand-off unit of the map-side
// shuffle: each map task seals its per-partition sorters into runs,
// and each reduce task merges every map task's runs for its partition
// with MergeRuns.
//
// A Run owns its backing resources (the spill file, if on disk) until
// ownership passes to a merge iterator via MergeRuns or the run is
// released with Discard.
type Run struct {
	// Encoded in-memory run (data), on-disk run (path), or remote run
	// (remote + size); exactly one is populated.
	data  []byte
	path  string
	n     int
	stats *IOStats // the sealing sorter's stats; merges account reads here
	// remote reads the encoded run through a byte-ranged transport
	// (OpenRemoteRun); size is its total encoded length.
	remote ReadAtFunc
	size   int64
}

// Len returns the number of records in the run. For on-disk runs this
// is the count recorded at spill time.
func (r *Run) Len() int { return r.n }

// InMemory reports whether the run is held in memory rather than in a
// spill file or behind a remote transport.
func (r *Run) InMemory() bool { return r.path == "" && r.remote == nil }

// Path returns the spill file backing an on-disk run (empty for
// in-memory runs). Net workers serve the file to the reduce workers
// that merge it (OpenRemoteRun).
func (r *Run) Path() string { return r.path }

// Bytes returns the encoded byte size of the run's data in memory
// (zero for on-disk runs).
func (r *Run) Bytes() int { return len(r.data) }

// Discard releases the run's resources. It is a no-op for runs whose
// ownership has passed to a merge iterator.
func (r *Run) Discard() {
	if r.path != "" {
		os.Remove(r.path)
		r.path = ""
	}
	r.data = nil
	r.remote = nil
}

// source returns a stream over the run's records in sorted order.
func (r *Run) source() (source, error) {
	if r.remote != nil {
		return openRemoteRunSource(r.size, r.remote, r.stats)
	}
	if r.path == "" {
		return openMemRunSource(r.data, r.stats)
	}
	return openFileRunSource(r.path, r.stats)
}

// Seal finalizes the sorter into its sealed sorted runs without merging
// them: the in-memory buffer is sorted and encoded — through
// Options.Combine, when set — into one in-memory run in the
// block-framed run format, and each spill file becomes one on-disk
// run. Ownership of all backing resources passes to the returned runs;
// when Seal fails it releases them, spill files included. After Seal,
// Add and Sort must not be called.
//
// Seal is the map-task half of the shuffle hand-off: it costs no disk
// I/O beyond spills that already happened, so small map outputs travel
// to the reduce-side merge entirely in memory — front-coded, so the
// resident hand-off bytes (and the measured transfer) shrink with the
// keys' shared prefixes.
func (s *Sorter) Seal() ([]*Run, error) {
	if s.closed {
		return nil, fmt.Errorf("extsort: Seal after Sort or Seal")
	}
	s.closed = true

	var runs []*Run
	for _, sp := range s.spills {
		runs = append(runs, &Run{path: sp.path, n: sp.recs, stats: s.opts.Stats})
	}
	s.spills = nil
	// The encoded run holds its own copy of every record, so the buffers
	// go back to the pools on every path out.
	defer func() {
		putArena(s.arena)
		putRecs(s.recs)
		s.arena, s.recs = nil, nil
	}()
	if len(s.recs) == 0 {
		return runs, nil
	}
	var buf bytes.Buffer
	written, n, err := s.encodeRun(&buf)
	if err != nil {
		for _, r := range runs {
			r.Discard()
		}
		return nil, fmt.Errorf("extsort: seal in-memory run: %w", err)
	}
	if n > 0 { // a combiner may drop every record
		s.opts.Stats.addWritten(written)
		runs = append(runs, &Run{data: buf.Bytes(), n: n, stats: s.opts.Stats})
	}
	return runs, nil
}

// MergeRuns returns an iterator over the k-way merge of the given
// sealed runs, ordered by cmp (nil selects bytewise order). The keys of
// each run must already be sorted under the same cmp. Ownership of all
// runs passes to the iterator — including on error — and their
// resources are released as the merge drains or when the iterator is
// closed; the Run values themselves are emptied, so a later Discard on
// them is a no-op. Zero runs yield an empty iterator.
//
// When the fan-in is large and more than one CPU is available, the
// merge splits its inputs across goroutines (see parallel.go); the
// record stream is byte-identical either way.
func MergeRuns(cmp Compare, runs []*Run) (*Iterator, error) {
	if cmp == nil {
		cmp = bytes.Compare
	}
	if g := mergeGroups(len(runs)); g > 1 {
		return mergeRunsParallel(cmp, runs, g)
	}
	return mergeRunsSequential(cmp, runs)
}

// mergeRunsSequential opens every run in the calling goroutine and
// merges them through one loser tree.
func mergeRunsSequential(cmp Compare, runs []*Run) (*Iterator, error) {
	it := &Iterator{cmp: cmp}
	for i, r := range runs {
		src, err := r.source()
		if err != nil {
			it.Close()
			// The failed run's resources were already released by the
			// source constructor; discard the rest.
			r.path = ""
			r.data = nil
			for _, rest := range runs[i+1:] {
				rest.Discard()
			}
			return nil, err
		}
		// Ownership of the backing resources is now with src; empty the
		// Run so a stray Discard cannot unlink a file mid-merge.
		r.path = ""
		r.data = nil
		ok, err := src.next()
		if err != nil {
			src.close()
			it.Close()
			for _, rest := range runs[i+1:] {
				rest.Discard()
			}
			return nil, err
		}
		if ok {
			it.addSource(src)
		} else {
			src.close()
		}
	}
	return it, nil
}
