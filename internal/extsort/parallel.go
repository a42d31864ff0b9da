package extsort

// Parallel reduce-side merge. A reduce task's fan-in is one sealed run
// per map task (more when maps spilled), so wide jobs hand a single
// reduce merge dozens of runs; merging them in one goroutine leaves
// every other core idle during the reduce phase. When the fan-in is
// large enough and more than one CPU is available, the merge splits
// the runs into contiguous groups, each merged by its own goroutine
// through the same loser tree the sequential path uses, and the group
// winners are merged by a final loser tree in the consuming
// goroutine. Group records travel in recycled arena batches over
// bounded channels, so the hand-off stays allocation-light and the
// resident overhead per group is a couple of batches.
//
// Determinism: groups are contiguous run ranges and the final merge
// tie-breaks equal keys by group index, while each group preserves
// the relative order of its own runs — together that reproduces the
// sequential merge's global run-index tie-break, so the merged record
// stream is byte-identical to a single-threaded merge (asserted by
// TestParallelMergeMatchesSequential and the golden runner-equivalence
// matrix).

import (
	"runtime"
	"sync/atomic"
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
)

// mergeParallelism overrides the merge goroutine cap when positive.
var mergeParallelism atomic.Int32

// SetMergeParallelism caps the number of goroutines one reduce-side
// merge may fan its inputs across. n <= 0 restores the default (the
// number of CPUs); 1 disables parallel merging. The setting is
// process-wide; the merged record stream is identical at every value.
func SetMergeParallelism(n int) {
	if n < 0 {
		n = 0
	}
	mergeParallelism.Store(int32(n))
}

// mergeGroups returns how many sub-merge goroutines to use for a merge
// over n runs (1 = merge sequentially in the caller).
func mergeGroups(n int) int {
	p := int(mergeParallelism.Load())
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p <= 1 || n < parallelMergeMinFanIn {
		return 1
	}
	g := (n + parallelMergeSubFanIn - 1) / parallelMergeSubFanIn
	if g > p {
		g = p
	}
	if g < 2 {
		return 1
	}
	return g
}

// mergeBatch is one hand-off unit of a group's pre-merged records:
// keys and values packed into a shared arena. A batch with err set
// terminates its stream after any records it carries.
type mergeBatch struct {
	arena []byte
	recs  []record
	err   error
}

// groupSource adapts one sub-merge's batch stream to the source
// interface consumed by the final loser tree.
type groupSource struct {
	out  chan *mergeBatch // producer → consumer
	free chan *mergeBatch // recycled batches back to the producer
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
			if g.cur.err != nil {
				return false, g.cur.err
			}
			g.cur.arena = g.cur.arena[:0]
			g.cur.recs = g.cur.recs[:0]
			select {
			case g.free <- g.cur:
			default:
			}
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
	for range g.out {
	}
}

// runGroupProducer merges one contiguous range of runs and streams the
// result to its groupSource in batches. It owns the runs and releases
// them on every exit path; it always closes out before returning.
func runGroupProducer(cmp Compare, runs []*Run, gs *groupSource) {
	defer close(gs.out)
	it, err := mergeRunsSequential(cmp, runs)
	if err != nil {
		select {
		case gs.out <- &mergeBatch{err: err}:
		case <-gs.done:
		}
		return
	}
	defer it.Close()
	batch := nextBatch(gs.free)
	for it.Next() {
		k, v := it.Key(), it.Value()
		ko := len(batch.arena)
		batch.arena = append(batch.arena, k...)
		vo := len(batch.arena)
		batch.arena = append(batch.arena, v...)
		batch.recs = append(batch.recs, record{ko, len(k), vo, len(v)})
		if len(batch.arena) >= mergeBatchTarget {
			select {
			case gs.out <- batch:
			case <-gs.done:
				return
			}
			batch = nextBatch(gs.free)
		}
	}
	batch.err = it.Err()
	if len(batch.recs) > 0 || batch.err != nil {
		select {
		case gs.out <- batch:
		case <-gs.done:
		}
	}
}

// nextBatch reuses a recycled batch when one is available.
func nextBatch(free chan *mergeBatch) *mergeBatch {
	select {
	case b := <-free:
		return b
	default:
		return &mergeBatch{}
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
		end := start + per
		if end > len(owned) {
			end = len(owned)
		}
		sub := make([]*Run, end-start)
		for i := range sub {
			sub[i] = &owned[start+i]
		}
		gs := &groupSource{
			out:  make(chan *mergeBatch, 1),
			free: make(chan *mergeBatch, 2),
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
