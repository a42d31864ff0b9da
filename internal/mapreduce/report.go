package mapreduce

import "time"

// JobSummary is a compact per-job account of a run, in the style of the
// Hadoop job history a practitioner would read after a workflow.
type JobSummary struct {
	Name          string
	MapTasks      int
	ReduceTasks   int
	InputRecords  int64
	MapOutRecords int64
	MapOutBytes   int64
	// ShuffleBytesWritten and ShuffleBytesRead are the measured shuffle
	// transfer: encoded run-format bytes map tasks produced and reduce
	// merges consumed. ShuffleLogicalBytes is the raw key+value byte
	// count entering the shuffle — the pre-encoding estimate older
	// reports called "shuffle bytes"; the written/logical ratio is the
	// run format's compression factor.
	ShuffleBytesWritten int64
	ShuffleBytesRead    int64
	ShuffleLogicalBytes int64
	OutputRecords       int64
	Spilled             int64
	// SealedRuns is the number of sorted runs map tasks handed off to
	// the reduce-side merge; MergeFanIn is the summed width of all
	// reduce-side merges; ShuffleTime is the cumulative time tasks spent
	// sealing runs and opening merges.
	SealedRuns  int64
	MergeFanIn  int64
	ShuffleTime time.Duration
	MapPhase    time.Duration
	ReducePhase time.Duration
	Wallclock   time.Duration
	// WorkerProcs and TasksRetried describe execution in worker
	// processes: workers the runner spawned (pool plus replacements)
	// and task attempts run again after a failure. Both are zero under
	// the in-process LocalRunner.
	WorkerProcs  int64
	TasksRetried int64
}

// Summary extracts the per-job account from a Result.
func Summary(name string, r *Result) JobSummary {
	c := r.Counters
	return JobSummary{
		Name:                name,
		MapTasks:            r.MapTasks,
		ReduceTasks:         r.ReduceTasks,
		InputRecords:        c.Get(CounterMapInputRecords),
		MapOutRecords:       c.Get(CounterMapOutputRecords),
		MapOutBytes:         c.Get(CounterMapOutputBytes),
		ShuffleBytesWritten: c.Get(CounterShuffleBytesWritten),
		ShuffleBytesRead:    c.Get(CounterShuffleBytesRead),
		ShuffleLogicalBytes: c.Get(CounterReduceShuffleBytes),
		OutputRecords:       c.Get(CounterReduceOutputRecs),
		Spilled:             c.Get(CounterSpilledRecords),
		SealedRuns:          c.Get(CounterShuffleRuns),
		MergeFanIn:          c.Get(CounterMergeFanIn),
		ShuffleTime:         time.Duration(c.Get(CounterShuffleMicros)) * time.Microsecond,
		MapPhase:            time.Duration(c.Get(CounterMapPhaseMillis)) * time.Millisecond,
		ReducePhase:         time.Duration(c.Get(CounterReducePhaseMillis)) * time.Millisecond,
		Wallclock:           r.Wallclock,
		WorkerProcs:         c.Get(CounterWorkerProcs),
		TasksRetried:        c.Get(CounterTasksRetried),
	}
}
