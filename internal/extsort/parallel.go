package extsort

// Parallel reduce-side merge. A reduce task's fan-in is one sealed run
// per map task (more when maps spilled), so wide jobs hand a single
// reduce merge dozens of runs; when fewer reduce tasks run at once than
// there are CPUs, merging them in one goroutine leaves the other cores
// idle during the reduce phase. MergeRunsParallel then splits the runs
// into contiguous groups, each merged by its own goroutine through the
// same loser tree the sequential path uses, and the group winners are
// merged by a final loser tree in the consuming goroutine. Group records
// travel in pooled arena batches over bounded channels, so the hand-off
// stays allocation-light and the resident overhead per group is a
// couple of batches.
//
// How wide to go is the caller's decision, not this package's: only the
// caller knows how many merges run at once. The MapReduce runners give
// a reduce task the CPUs its concurrently running siblings leave idle.
//
// Determinism: groups are contiguous run ranges and the final merge
// tie-breaks equal keys by group index, while each group preserves
// the relative order of its own runs — together that reproduces the
// sequential merge's global run-index tie-break, so the merged record
// stream is byte-identical to a single-threaded merge (asserted by
// TestParallelMergeMatchesSequential and the golden runner-equivalence
// matrix).

import (
	"bytes"
	"sync"
)

const (
	// parallelMergeMinFanIn is the smallest fan-in worth splitting:
	// below it the goroutine and channel hand-off overhead outweighs
	// the parallel comparisons.
	parallelMergeMinFanIn = 8
	// parallelMergeSubFanIn is the target number of runs per sub-merge.
	parallelMergeSubFanIn = 4
	// mergeBatchTarget is the record-byte size of one hand-off batch.
	mergeBatchTarget = 64 << 10
	// mergeBatchRecords caps the records of one hand-off batch, so short
	// records fill a batch's table to a fixed size instead of growing it
	// toward mergeBatchTarget of them.
	mergeBatchRecords = 2048
)

// MergeRunsParallel is MergeRuns spread across at most width
// goroutines: the runs are split into contiguous groups of about
// parallelMergeSubFanIn, each merged by its own goroutine, and the
// group streams are merged in the caller's. A fan-in below
// parallelMergeMinFanIn, or a width below 2, merges sequentially. The
// ownership contract and the record stream are those of MergeRuns at
// every width.
func MergeRunsParallel(cmp Compare, runs []*Run, width int) (*Iterator, error) {
	if cmp == nil {
		cmp = bytes.Compare
	}
	if g := mergeGroups(len(runs), width); g > 1 {
		return mergeRunsParallel(cmp, runs, g)
	}
	return MergeRuns(cmp, runs)
}

// mergeGroups returns how many sub-merge goroutines a merge over n runs
// uses at the given width (1 = merge sequentially in the caller).
func mergeGroups(n, width int) int {
	if width <= 1 || n < parallelMergeMinFanIn {
		return 1
	}
	return min(width, (n+parallelMergeSubFanIn-1)/parallelMergeSubFanIn)
}

// mergeBatch is one hand-off unit of a group's pre-merged records:
// keys and values packed into a shared arena. A batch with err set
// terminates its stream after any records it carries.
type mergeBatch struct {
	arena []byte
	recs  []record
	err   error
}

// full reports whether the batch is due for hand-off.
func (b *mergeBatch) full() bool {
	return len(b.arena) >= mergeBatchTarget || len(b.recs) >= mergeBatchRecords
}

// batchPool recycles hand-off batches across merges, as the sorters'
// arenas are recycled across map tasks: a merge starts on batches whose
// arena and table are already sized.
var batchPool sync.Pool // *mergeBatch

func getBatch() *mergeBatch {
	if b, _ := batchPool.Get().(*mergeBatch); b != nil {
		return b
	}
	return &mergeBatch{
		arena: make([]byte, 0, mergeBatchTarget),
		recs:  make([]record, 0, mergeBatchRecords),
	}
}

func putBatch(b *mergeBatch) {
	b.arena, b.recs, b.err = b.arena[:0], b.recs[:0], nil
	batchPool.Put(b)
}

// groupSource adapts one sub-merge's batch stream to the source
// interface consumed by the final loser tree.
type groupSource struct {
	out  chan *mergeBatch // producer → consumer
	done chan struct{}    // closed to cancel the producer

	cur    *mergeBatch
	i      int
	k, v   []byte
	closed bool
}

func (g *groupSource) next() (bool, error) {
	for {
		if g.cur != nil && g.i < len(g.cur.recs) {
			r := g.cur.recs[g.i]
			g.i++
			g.k = g.cur.arena[r.keyOff : r.keyOff+r.keyLen]
			g.v = g.cur.arena[r.valOff : r.valOff+r.valLen]
			return true, nil
		}
		if g.cur != nil {
			if err := g.cur.err; err != nil {
				return false, err
			}
			putBatch(g.cur)
			g.cur = nil
		}
		b, ok := <-g.out
		if !ok {
			return false, nil
		}
		g.cur, g.i = b, 0
	}
}

func (g *groupSource) key() []byte   { return g.k }
func (g *groupSource) value() []byte { return g.v }

func (g *groupSource) close() {
	if g.closed {
		return
	}
	g.closed = true
	close(g.done)
	// Unblock a producer parked on a full out channel and wait for it
	// to finish releasing its runs (it closes out on exit).
	for b := range g.out {
		putBatch(b)
	}
	if g.cur != nil {
		putBatch(g.cur)
		g.cur, g.k, g.v = nil, nil, nil
	}
}

// runGroupProducer merges one contiguous range of runs and streams the
// result to its groupSource in batches. It owns the runs and releases
// them on every exit path; it always closes out before returning.
func runGroupProducer(cmp Compare, runs []*Run, gs *groupSource) {
	defer close(gs.out)
	send := func(b *mergeBatch) bool {
		select {
		case gs.out <- b:
			return true
		case <-gs.done:
			putBatch(b)
			return false
		}
	}
	it, err := MergeRuns(cmp, runs)
	if err != nil {
		b := getBatch()
		b.err = err
		send(b)
		return
	}
	defer it.Close()
	batch := getBatch()
	for it.Next() {
		k, v := it.Key(), it.Value()
		ko := len(batch.arena)
		batch.arena = append(batch.arena, k...)
		vo := len(batch.arena)
		batch.arena = append(batch.arena, v...)
		batch.recs = append(batch.recs, record{ko, len(k), vo, len(v)})
		if batch.full() {
			if !send(batch) {
				return
			}
			batch = getBatch()
		}
	}
	batch.err = it.Err()
	if len(batch.recs) > 0 || batch.err != nil {
		send(batch)
	} else {
		putBatch(batch)
	}
}

// mergeRunsParallel splits runs into g contiguous groups, each merged
// by its own goroutine, and returns an iterator merging the group
// streams. The caller's Run values are emptied synchronously, so the
// MergeRuns ownership contract (a later Discard is a no-op) holds
// without racing the producers.
func mergeRunsParallel(cmp Compare, runs []*Run, g int) (*Iterator, error) {
	owned := make([]Run, len(runs))
	for i, r := range runs {
		owned[i] = *r
		r.path = ""
		r.data = nil
		r.remote = nil
	}
	groups := make([]*groupSource, 0, g)
	per := (len(owned) + g - 1) / g
	for start := 0; start < len(owned); start += per {
		end := min(start+per, len(owned))
		sub := make([]*Run, end-start)
		for i := range sub {
			sub[i] = &owned[start+i]
		}
		gs := &groupSource{
			out:  make(chan *mergeBatch, 1),
			done: make(chan struct{}),
		}
		groups = append(groups, gs)
		go runGroupProducer(cmp, sub, gs)
	}

	it := &Iterator{cmp: cmp}
	for i, gs := range groups {
		ok, err := gs.next()
		if err != nil {
			gs.close()
			it.Close()
			for _, rest := range groups[i+1:] {
				rest.close()
			}
			return nil, err
		}
		if ok {
			it.addSource(gs)
		} else {
			gs.close()
		}
	}
	return it, nil
}
