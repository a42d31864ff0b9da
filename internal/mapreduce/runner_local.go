package mapreduce

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ngramstats/internal/extsort"
)

// LocalRunner executes a plan's tasks as goroutines inside this
// process — the original in-process engine, now behind the Runner
// seam. It is the default backend.
type LocalRunner struct{}

func init() {
	RegisterRunner("local", func(cfg RunnerConfig) (Runner, error) {
		if cfg.Rest != "" {
			return nil, fmt.Errorf("mapreduce: runner %q: the local backend takes no address", cfg.Address)
		}
		return LocalRunner{}, nil
	})
}

// String renders the resolved backend for -stats attribution.
func (LocalRunner) String() string { return "local" }

// Run implements Runner.
func (LocalRunner) Run(ctx context.Context, plan *Plan, counters *Counters, progress Progress) (Dataset, error) {
	j := plan.job
	sink, err := plan.Sink(plan.NumReducers)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: sink: %w", plan.Name, err)
	}
	if plan.MapOnly {
		err = runMapOnly(ctx, j, plan.Splits, sink, counters, progress)
	} else {
		err = runMapReduce(ctx, j, plan.Splits, sink, plan.shuffleIO, counters, progress)
	}
	if err != nil {
		abortSink(sink)
		return nil, err
	}
	out, err := sink.Finish()
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: finish sink: %w", plan.Name, err)
	}
	return out, nil
}

// discardRuns releases every run in a per-partition run set.
func discardRuns(runSets ...[]*extsort.Run) {
	for _, rs := range runSets {
		for _, r := range rs {
			r.Discard()
		}
	}
}

func runMapReduce(ctx context.Context, j *Job, splits []Split, sink Sink, shuffleIO *extsort.IOStats, counters *Counters, progress Progress) error {
	// Lock-free run hand-off: every map task owns its splits[taskID]
	// slot exclusively while running, so no synchronization is needed on
	// the write; the map-phase barrier in runTasks publishes all slots
	// to the reduce tasks.
	runsByTask := make([][][]*extsort.Run, len(splits))
	discardByTask := func() {
		for _, taskRuns := range runsByTask {
			discardRuns(taskRuns...)
		}
	}

	// sealKeep bounds the in-memory bytes one task may hand off in
	// sealed runs, keeping the job's total resident hand-off memory
	// near MapSlots×ShuffleMemory even when many more tasks than slots
	// finish before the reduce phase drains them.
	sealKeep := j.ShuffleMemory
	if len(splits) > j.MapSlots {
		sealKeep = j.ShuffleMemory * j.MapSlots / len(splits)
	}

	// ---- Map phase: each task sorts and spills its own output. ----
	mapStart := time.Now()
	progress.PhaseStart(j.Name, "map")
	if err := runTasks(ctx, len(splits), j.MapSlots, func(ctx context.Context, taskID int) error {
		runs, err := runMapTask(ctx, j, taskID, splits[taskID], sealKeep, shuffleIO, counters)
		if err != nil {
			return err
		}
		runsByTask[taskID] = runs
		progress.TaskDone(j.Name, "map")
		return nil
	}); err != nil {
		discardByTask()
		return fmt.Errorf("mapreduce: job %q: map phase: %w", j.Name, err)
	}
	counters.Add(CounterMapPhaseMillis, time.Since(mapStart).Milliseconds())
	if n := counters.Get(CounterMalformedKeys); n > 0 {
		discardByTask()
		return fmt.Errorf("mapreduce: job %q: partitioner rejected %d malformed intermediate keys", j.Name, n)
	}

	// ---- Shuffle: gather every map task's sealed runs per partition. ----
	perPart := make([][]*extsort.Run, j.NumReducers)
	for _, taskRuns := range runsByTask {
		for p, rs := range taskRuns {
			perPart[p] = append(perPart[p], rs...)
		}
	}
	runsByTask = nil

	// ---- Reduce phase: each task multi-way merges its partition. ----
	reduceStart := time.Now()
	progress.PhaseStart(j.Name, "reduce")
	if err := runTasks(ctx, j.NumReducers, j.ReduceSlots, func(ctx context.Context, p int) error {
		runs := perPart[p]
		perPart[p] = nil // ownership passes to the reduce task
		if err := runReduceTask(ctx, j, p, runs, sink, counters); err != nil {
			return err
		}
		progress.TaskDone(j.Name, "reduce")
		return nil
	}); err != nil {
		discardRuns(perPart...)
		return fmt.Errorf("mapreduce: job %q: reduce phase: %w", j.Name, err)
	}
	counters.Add(CounterReducePhaseMillis, time.Since(reduceStart).Milliseconds())
	counters.Add(CounterShuffleBytesWritten, shuffleIO.BytesWritten())
	counters.Add(CounterShuffleBytesRead, shuffleIO.BytesRead())
	return nil
}

// armCancel mirrors ctx's cancellation into a flag only the calling
// task reads; ctx.Err() itself takes a mutex every task of the job
// shares. Once the flag is set, ctx.Err() is non-nil; release detaches
// the flag from ctx.
func armCancel(ctx context.Context) (cancelled *atomic.Bool, release func() bool) {
	cancelled = new(atomic.Bool)
	return cancelled, context.AfterFunc(ctx, func() { cancelled.Store(true) })
}

// mapTally is what one map task's loops count, in plain integers the
// task alone touches; addTo folds it into the job's counters once, when
// the task ends — in failure too, which the MALFORMED_KEYS check after
// the map phase relies on.
type mapTally struct {
	inRecs, outRecs, outBytes           int64
	combineIn, combineOut, shuffleBytes int64
	malformed, spilled                  int64
	sealedRuns, sealMicros              int64
}

func (t *mapTally) addTo(c *Counters, combine bool) {
	c.Add(CounterMapInputRecords, t.inRecs)
	c.Add(CounterMapOutputRecords, t.outRecs)
	c.Add(CounterMapOutputBytes, t.outBytes)
	if combine {
		c.Add(CounterCombineInputRecs, t.combineIn)
		c.Add(CounterCombineOutputRecs, t.combineOut)
	}
	c.Add(CounterReduceShuffleBytes, t.shuffleBytes)
	c.Add(CounterMalformedKeys, t.malformed)
	c.Add(CounterSpilledRecords, t.spilled)
	c.Add(CounterShuffleRuns, t.sealedRuns)
	c.Add(CounterShuffleMicros, t.sealMicros)
}

// runMapTask executes one map task: it runs the mapper over its split,
// partitions the output into task-private sorters, one per partition,
// and seals each sorter into sorted runs for the reduce-side merge. A
// combiner runs inside the sorters, over each sorted buffer as it is
// encoded into a run, so a record is copied once. Nothing the
// per-record and per-group paths touch is shared with another task.
//
// A negative sealKeep forces every partition sorter to spill before
// sealing, guaranteeing all handed-off runs are on-disk files — net
// workers rely on this to serve their runs to other processes.
func runMapTask(ctx context.Context, j *Job, taskID int, split Split, sealKeep int, shuffleIO *extsort.IOStats, counters *Counters) ([][]*extsort.Run, error) {
	combine := j.NewCombiner != nil
	var t mapTally
	defer func() { t.addTo(counters, combine) }()
	cancelled, release := armCancel(ctx)
	defer release()

	mapper := j.NewMapper()
	tc := &TaskContext{
		JobName: j.Name, TaskID: taskID, Phase: "map", Partition: -1,
		NumReducers: j.NumReducers, Counters: counters, SideData: j.SideData, TempDir: j.TempDir,
	}
	if s, ok := mapper.(TaskSetup); ok {
		if err := s.Setup(tc); err != nil {
			return nil, fmt.Errorf("map task %d setup: %w", taskID, err)
		}
	}

	// Task-private per-partition output sorters, created on first use so
	// tasks touching few partitions stay cheap. Each sorter's own budget
	// is the full task budget; the shared accounting below usually
	// triggers a graceful spill first.
	out := make([]*extsort.Sorter, j.NumReducers)
	discardOut := func() {
		for _, s := range out {
			if s != nil {
				s.Discard()
			}
		}
	}
	newSorter := func(p int) *extsort.Sorter {
		opts := extsort.Options{
			MemoryBudget: j.ShuffleMemory,
			TempDir:      j.TempDir,
			Descending:   j.Descending,
			OnSpill:      func(n int) { t.spilled += int64(n) },
			Codec:        j.ShuffleCodec,
			Stats:        shuffleIO,
		}
		if combine {
			opts.Combine = func(sorted *extsort.Iterator, write func(key, value []byte) error) error {
				if err := combineRun(ctx, cancelled, j, tc, p, sorted, write, &t); err != nil {
					return fmt.Errorf("combine partition %d: %w", p, err)
				}
				return nil
			}
		}
		return extsort.NewSorter(opts)
	}

	// Shared task-level memory accounting: when the buffered bytes
	// across all partition sorters exceed ShuffleMemory, spill the
	// largest buffer to a sorted on-disk run (graceful degradation, like
	// Hadoop's io.sort.mb buffer flush).
	var buffered int
	addOut := func(p int, key, value []byte) error {
		s := out[p]
		if s == nil {
			s = newSorter(p)
			out[p] = s
		}
		before := s.MemoryInUse()
		if err := s.Add(key, value); err != nil {
			return err
		}
		buffered += s.MemoryInUse() - before
		if buffered < j.ShuffleMemory {
			return nil
		}
		// Spill largest-first until under half the budget. The
		// hysteresis matters: evicting a single buffer per trigger
		// would pin `buffered` at the budget when many partitions hold
		// uniformly small buffers and degenerate into a per-record
		// spill storm of tiny runs.
		for buffered >= j.ShuffleMemory/2 {
			big := -1
			for q, sq := range out {
				if sq != nil && (big < 0 || sq.MemoryInUse() > out[big].MemoryInUse()) {
					big = q
				}
			}
			if big < 0 || out[big].MemoryInUse() == 0 {
				break
			}
			buffered -= out[big].MemoryInUse()
			if err := out[big].Spill(); err != nil {
				return err
			}
		}
		return nil
	}

	emit := Emit(func(key, value []byte) error {
		t.outRecs++
		t.outBytes += int64(len(key) + len(value))
		p := j.Partition(key, j.NumReducers)
		if p == MalformedKeyPartition {
			// Count every unparseable key and keep the task running so
			// the post-map-phase check can report the full tally; route
			// the record to partition 0 in the meantime (the job fails
			// before any reducer sees it).
			t.malformed++
			p = 0
		}
		if p < 0 || p >= j.NumReducers {
			return fmt.Errorf("partitioner returned %d for %d reducers", p, j.NumReducers)
		}
		if !combine {
			t.shuffleBytes += int64(len(key) + len(value))
		}
		return addOut(p, key, value)
	})

	err := split.Records(func(key, value []byte) error {
		if cancelled.Load() {
			return ctx.Err()
		}
		t.inRecs++
		return mapper.Map(key, value, emit)
	})
	if err != nil {
		discardOut()
		return nil, fmt.Errorf("map task %d: %w", taskID, err)
	}
	if c, ok := mapper.(TaskCleanup); ok {
		if err := c.Cleanup(emit); err != nil {
			discardOut()
			return nil, fmt.Errorf("map task %d cleanup: %w", taskID, err)
		}
	}

	// Seal each partition's sorter into its sorted runs and hand them
	// off; from here the runs are owned by the caller (and ultimately by
	// the reduce-side merge). Sealed in-memory runs stay resident until
	// their reduce task consumes them, so when more map tasks exist than
	// slots the remainders of finished tasks would accumulate past
	// MapSlots×ShuffleMemory — in that case spill them to disk first
	// (Hadoop's always-on-disk final map output, applied only when the
	// bound is at risk; the buffered bytes stand in for the smaller
	// combined, front-coded run they become).
	sealStart := time.Now()
	if buffered > sealKeep {
		for _, s := range out {
			if s != nil && s.MemoryInUse() > 0 {
				if err := s.Spill(); err != nil {
					discardOut()
					return nil, fmt.Errorf("map task %d final spill: %w", taskID, err)
				}
			}
		}
	}
	taskRuns := make([][]*extsort.Run, j.NumReducers)
	for p, s := range out {
		if s == nil {
			continue
		}
		out[p] = nil
		runs, err := s.Seal()
		if err != nil {
			discardRuns(taskRuns...)
			discardOut()
			return nil, fmt.Errorf("map task %d seal partition %d: %w", taskID, p, err)
		}
		taskRuns[p] = runs
		t.sealedRuns += int64(len(runs))
	}
	t.sealMicros = time.Since(sealStart).Microseconds()
	return taskRuns, nil
}

// combineRun runs a fresh combiner over one sorted buffer of partition
// p — the sorter calls it while encoding the buffer into a run — and
// passes the combined records on through write, which rejects a key
// that sorts before the one written last.
func combineRun(ctx context.Context, cancelled *atomic.Bool, j *Job, mapTC *TaskContext, p int, sorted *extsort.Iterator, write func(key, value []byte) error, t *mapTally) error {
	combiner := j.NewCombiner()
	if s, ok := combiner.(TaskSetup); ok {
		tc := *mapTC
		tc.Phase, tc.Partition = "combine", p
		if err := s.Setup(&tc); err != nil {
			return err
		}
	}
	emit := Emit(func(key, value []byte) error {
		t.combineOut++
		t.shuffleBytes += int64(len(key) + len(value))
		return write(key, value)
	})
	vals := newValues(sorted)
	for vals.nextGroup() {
		if cancelled.Load() {
			return ctx.Err()
		}
		if err := combiner.Reduce(vals.Key(), vals, emit); err != nil {
			return err
		}
		t.combineIn += vals.Count()
	}
	if err := vals.Err(); err != nil {
		return err
	}
	if c, ok := combiner.(TaskCleanup); ok {
		return c.Cleanup(emit)
	}
	return nil
}

// runReduceTask multi-way merges every map task's sealed runs for
// partition p and feeds the merged groups to the reducer. It takes
// ownership of runs. Like a map task it counts into its own integers.
func runReduceTask(ctx context.Context, j *Job, p int, runs []*extsort.Run, sink Sink, counters *Counters) error {
	var groups, inRecs, outRecs, outBytes int64
	defer func() {
		counters.Add(CounterReduceInputGroups, groups)
		counters.Add(CounterReduceInputRecords, inRecs)
		counters.Add(CounterReduceOutputRecs, outRecs)
		counters.Add(CounterReduceOutputBytes, outBytes)
	}()
	cancelled, release := armCancel(ctx)
	defer release()

	reducer := j.NewReducer()
	tc := &TaskContext{
		JobName: j.Name, TaskID: p, Phase: "reduce", Partition: p,
		NumReducers: j.NumReducers, Counters: counters, SideData: j.SideData, TempDir: j.TempDir,
	}
	if s, ok := reducer.(TaskSetup); ok {
		if err := s.Setup(tc); err != nil {
			discardRuns(runs)
			return fmt.Errorf("reduce task %d setup: %w", p, err)
		}
	}
	w, err := sink.Writer(p)
	if err != nil {
		discardRuns(runs)
		return fmt.Errorf("reduce task %d: sink writer: %w", p, err)
	}
	emit := Emit(func(key, value []byte) error {
		outRecs++
		outBytes += int64(len(key) + len(value))
		return w.Write(key, value)
	})
	mergeStart := time.Now()
	counters.Add(CounterMergeFanIn, int64(len(runs)))
	it, err := extsort.MergeRuns(extsort.Order(j.Descending), runs) // takes ownership of runs
	if err != nil {
		w.Close()
		return fmt.Errorf("reduce task %d: open merge: %w", p, err)
	}
	counters.Add(CounterShuffleMicros, time.Since(mergeStart).Microseconds())
	defer it.Close()

	vals := newValues(it)
	for vals.nextGroup() {
		if cancelled.Load() {
			w.Close()
			return ctx.Err()
		}
		groups++
		if err := reducer.Reduce(vals.Key(), vals, emit); err != nil {
			w.Close()
			return fmt.Errorf("reduce task %d: %w", p, err)
		}
		inRecs += vals.Count()
	}
	if err := vals.Err(); err != nil {
		w.Close()
		return fmt.Errorf("reduce task %d: merge: %w", p, err)
	}
	if c, ok := reducer.(TaskCleanup); ok {
		if err := c.Cleanup(emit); err != nil {
			w.Close()
			return fmt.Errorf("reduce task %d cleanup: %w", p, err)
		}
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("reduce task %d: close sink: %w", p, err)
	}
	return nil
}

func runMapOnly(ctx context.Context, j *Job, splits []Split, sink Sink, counters *Counters, progress Progress) error {
	// Map-only jobs write each task's output to a per-task writer on the
	// task's own partition index modulo R, preserving partitioning
	// without a shuffle.
	mapStart := time.Now()
	progress.PhaseStart(j.Name, "map")
	defer func() { counters.Add(CounterMapPhaseMillis, time.Since(mapStart).Milliseconds()) }()
	return runTasks(ctx, len(splits), j.MapSlots, func(ctx context.Context, taskID int) error {
		w, err := sink.Writer(taskID % j.NumReducers)
		if err != nil {
			return fmt.Errorf("map task %d: sink writer: %w", taskID, err)
		}
		taskErr := runMapOnlyTask(ctx, j, taskID, splits[taskID], w, counters)
		closeErr := w.Close()
		if taskErr != nil {
			return taskErr
		}
		if closeErr != nil {
			return closeErr
		}
		progress.TaskDone(j.Name, "map")
		return nil
	})
}

// runMapOnlyTask executes one task of a map-only job, writing the
// mapper's output records straight to w. The caller owns w and closes
// it in success and failure alike, so the local runner can route it
// into the sink while a worker process routes it into a task output
// file.
func runMapOnlyTask(ctx context.Context, j *Job, taskID int, split Split, w SinkWriter, counters *Counters) error {
	mapper := j.NewMapper()
	tc := &TaskContext{
		JobName: j.Name, TaskID: taskID, Phase: "map", Partition: -1,
		NumReducers: j.NumReducers, Counters: counters, SideData: j.SideData, TempDir: j.TempDir,
	}
	if s, ok := mapper.(TaskSetup); ok {
		if err := s.Setup(tc); err != nil {
			return fmt.Errorf("map task %d setup: %w", taskID, err)
		}
	}
	var inRecs, outRecs, outBytes int64
	defer func() {
		counters.Add(CounterMapInputRecords, inRecs)
		counters.Add(CounterMapOutputRecords, outRecs)
		counters.Add(CounterMapOutputBytes, outBytes)
	}()
	cancelled, release := armCancel(ctx)
	defer release()
	emit := Emit(func(key, value []byte) error {
		outRecs++
		outBytes += int64(len(key) + len(value))
		return w.Write(key, value)
	})
	err := split.Records(func(key, value []byte) error {
		if cancelled.Load() {
			return ctx.Err()
		}
		inRecs++
		return mapper.Map(key, value, emit)
	})
	if err != nil {
		return fmt.Errorf("map task %d: %w", taskID, err)
	}
	if c, ok := mapper.(TaskCleanup); ok {
		if err := c.Cleanup(emit); err != nil {
			return fmt.Errorf("map task %d cleanup: %w", taskID, err)
		}
	}
	return nil
}

// runTasks executes n tasks with at most slots running concurrently,
// returning the first error. A panicking task is converted into an
// error carrying its stack.
func runTasks(ctx context.Context, n, slots int, task func(ctx context.Context, i int) error) error {
	if n == 0 {
		return nil
	}
	if slots > n {
		slots = n
	}
	if slots < 1 {
		slots = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error

	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("task %d panicked: %v\n%s", i, r, debug.Stack()))
				}
			}()
			if err := task(ctx, i); err != nil {
				fail(err)
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
