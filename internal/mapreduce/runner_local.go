package mapreduce

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
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

// runMapTask executes one map task: it runs the mapper over its split,
// partitions and locally sorts the output in task-private sorters
// (routing it through the combiner first when configured), then seals
// each partition's sorter into sorted runs for the reduce-side merge.
// The per-record emit path acquires no locks: counters are resolved to
// atomic cells up front and all sorters are owned by this task alone.
//
// A negative sealKeep forces every partition sorter to spill before
// sealing, guaranteeing all handed-off runs are on-disk files — net
// workers rely on this to serve their runs to other processes.
func runMapTask(ctx context.Context, j *Job, taskID int, split Split, sealKeep int, shuffleIO *extsort.IOStats, counters *Counters) ([][]*extsort.Run, error) {
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

	mapOutRecs := counters.Counter(CounterMapOutputRecords)
	mapOutBytes := counters.Counter(CounterMapOutputBytes)
	shuffleBytes := counters.Counter(CounterReduceShuffleBytes)
	malformedKeys := counters.Counter(CounterMalformedKeys)
	spilled := counters.Counter(CounterSpilledRecords)
	onSpill := func(n int) { spilled.Add(int64(n)) }

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

	// Shared task-level memory accounting: when the buffered bytes
	// across all partition sorters exceed ShuffleMemory, spill the
	// largest buffer to a sorted on-disk run (graceful degradation, like
	// Hadoop's io.sort.mb buffer flush).
	var buffered int
	addOut := func(p int, key, value []byte) error {
		s := out[p]
		if s == nil {
			s = extsort.NewSorter(extsort.Options{
				MemoryBudget: j.ShuffleMemory,
				TempDir:      j.TempDir,
				Compare:      j.Compare,
				OnSpill:      onSpill,
				Codec:        j.ShuffleCodec,
				Stats:        shuffleIO,
			})
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

	var local []*extsort.Sorter // per-partition combiner buffers
	combine := j.NewCombiner != nil
	if combine {
		local = make([]*extsort.Sorter, j.NumReducers)
		per := j.CombineMemory / j.NumReducers
		if per < 256<<10 {
			per = 256 << 10
		}
		for p := range local {
			local[p] = extsort.NewSorter(extsort.Options{
				MemoryBudget: per,
				TempDir:      j.TempDir,
				Compare:      j.Compare,
				OnSpill:      onSpill,
			})
		}
	}
	discardLocal := func() {
		for _, s := range local {
			if s != nil {
				s.Discard()
			}
		}
	}
	discardAll := func() {
		discardLocal()
		discardOut()
	}

	emit := Emit(func(key, value []byte) error {
		mapOutRecs.Add(1)
		mapOutBytes.Add(int64(len(key) + len(value)))
		p := j.Partition(key, j.NumReducers)
		if p == MalformedKeyPartition {
			// Count every unparseable key and keep the task running so
			// the post-map-phase check can report the full tally; route
			// the record to partition 0 in the meantime (the job fails
			// before any reducer sees it).
			malformedKeys.Add(1)
			p = 0
		}
		if p < 0 || p >= j.NumReducers {
			return fmt.Errorf("partitioner returned %d for %d reducers", p, j.NumReducers)
		}
		if combine {
			return local[p].Add(key, value)
		}
		shuffleBytes.Add(int64(len(key) + len(value)))
		return addOut(p, key, value)
	})

	var n int64
	err := split.Records(func(key, value []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		n++
		return mapper.Map(key, value, emit)
	})
	counters.Add(CounterMapInputRecords, n)
	if err != nil {
		discardAll()
		return nil, fmt.Errorf("map task %d: %w", taskID, err)
	}
	if c, ok := mapper.(TaskCleanup); ok {
		if err := c.Cleanup(emit); err != nil {
			discardAll()
			return nil, fmt.Errorf("map task %d cleanup: %w", taskID, err)
		}
	}

	if combine {
		// Run the combiner over each partition's sorted local output and
		// feed the combined records into the task's output sorters.
		for p, sorter := range local {
			local[p] = nil
			add := func(key, value []byte) error { return addOut(p, key, value) }
			if err := combinePartition(ctx, j, taskID, p, sorter, add, counters); err != nil {
				discardAll()
				return nil, fmt.Errorf("map task %d combine partition %d: %w", taskID, p, err)
			}
		}
	}

	// Seal each partition's sorter into its sorted runs and hand them
	// off; from here the runs are owned by the caller (and ultimately by
	// the reduce-side merge). Sealed in-memory runs stay resident until
	// their reduce task consumes them, so when more map tasks exist than
	// slots the remainders of finished tasks would accumulate past
	// MapSlots×ShuffleMemory — in that case spill them to disk first
	// (Hadoop's always-on-disk final map output, applied only when the
	// bound is actually at risk).
	sealStart := time.Now()
	if buffered > sealKeep {
		for _, s := range out {
			if s != nil && s.MemoryInUse() > 0 {
				if err := s.Spill(); err != nil {
					discardAll()
					return nil, fmt.Errorf("map task %d final spill: %w", taskID, err)
				}
			}
		}
	}
	taskRuns := make([][]*extsort.Run, j.NumReducers)
	var sealedRuns int64
	for p, s := range out {
		if s == nil {
			continue
		}
		out[p] = nil
		runs, err := s.Seal()
		if err != nil {
			discardRuns(taskRuns...)
			discardAll()
			return nil, fmt.Errorf("map task %d seal partition %d: %w", taskID, p, err)
		}
		taskRuns[p] = runs
		sealedRuns += int64(len(runs))
	}
	counters.Add(CounterShuffleRuns, sealedRuns)
	counters.Add(CounterShuffleMicros, time.Since(sealStart).Microseconds())
	return taskRuns, nil
}

// combinePartition sorts one partition's local map output, runs the
// combiner over its groups, and forwards the combined records through
// add into the task's shuffle output for that partition.
func combinePartition(ctx context.Context, j *Job, taskID, p int, sorter *extsort.Sorter, add func(key, value []byte) error, counters *Counters) error {
	combiner := j.NewCombiner()
	tc := &TaskContext{
		JobName: j.Name, TaskID: taskID, Phase: "combine", Partition: p,
		NumReducers: j.NumReducers, Counters: counters, SideData: j.SideData, TempDir: j.TempDir,
	}
	if s, ok := combiner.(TaskSetup); ok {
		if err := s.Setup(tc); err != nil {
			return err
		}
	}
	it, err := sorter.Sort()
	if err != nil {
		return err
	}
	defer it.Close()
	combineOut := counters.Counter(CounterCombineOutputRecs)
	shuffleBytes := counters.Counter(CounterReduceShuffleBytes)
	emit := Emit(func(key, value []byte) error {
		combineOut.Add(1)
		shuffleBytes.Add(int64(len(key) + len(value)))
		return add(key, value)
	})
	vals := newValues(it, j.GroupCompare)
	for vals.nextGroup() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := combiner.Reduce(vals.Key(), vals, emit); err != nil {
			return err
		}
		counters.Add(CounterCombineInputRecs, vals.Count())
	}
	if err := vals.Err(); err != nil {
		return err
	}
	if c, ok := combiner.(TaskCleanup); ok {
		if err := c.Cleanup(emit); err != nil {
			return err
		}
	}
	return nil
}

// runReduceTask multi-way merges every map task's sealed runs for
// partition p and feeds the merged groups to the reducer. It takes
// ownership of runs.
func runReduceTask(ctx context.Context, j *Job, p int, runs []*extsort.Run, sink Sink, counters *Counters) error {
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
	reduceOutRecs := counters.Counter(CounterReduceOutputRecs)
	reduceOutBytes := counters.Counter(CounterReduceOutputBytes)
	emit := Emit(func(key, value []byte) error {
		reduceOutRecs.Add(1)
		reduceOutBytes.Add(int64(len(key) + len(value)))
		return w.Write(key, value)
	})
	mergeStart := time.Now()
	counters.Add(CounterMergeFanIn, int64(len(runs)))
	it, err := extsort.MergeRuns(j.Compare, runs) // takes ownership of runs
	if err != nil {
		w.Close()
		return fmt.Errorf("reduce task %d: open merge: %w", p, err)
	}
	counters.Add(CounterShuffleMicros, time.Since(mergeStart).Microseconds())
	defer it.Close()

	vals := newValues(it, j.GroupCompare)
	for vals.nextGroup() {
		if err := ctx.Err(); err != nil {
			w.Close()
			return err
		}
		counters.Add(CounterReduceInputGroups, 1)
		if err := reducer.Reduce(vals.Key(), vals, emit); err != nil {
			w.Close()
			return fmt.Errorf("reduce task %d: %w", p, err)
		}
		counters.Add(CounterReduceInputRecords, vals.Count())
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
	mapOutRecs := counters.Counter(CounterMapOutputRecords)
	mapOutBytes := counters.Counter(CounterMapOutputBytes)
	emit := Emit(func(key, value []byte) error {
		mapOutRecs.Add(1)
		mapOutBytes.Add(int64(len(key) + len(value)))
		return w.Write(key, value)
	})
	var n int64
	err := split.Records(func(key, value []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		n++
		return mapper.Map(key, value, emit)
	})
	counters.Add(CounterMapInputRecords, n)
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
