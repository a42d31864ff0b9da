package mapreduce

import (
	"context"
	"hash/fnv"
	"runtime"
	"time"

	"ngramstats/internal/extsort"
)

// Emit passes a key-value pair downstream: from a mapper into the
// shuffle, or from a reducer into the job output.
type Emit func(key, value []byte) error

// Mapper consumes input records and emits intermediate records. A fresh
// Mapper is created per map task via Job.NewMapper.
type Mapper interface {
	Map(key, value []byte, emit Emit) error
}

// Reducer consumes one group of intermediate records that share a key
// (under the job's group comparator) and emits output records. A fresh
// Reducer is created per reduce task via Job.NewReducer (and per map
// task for combiners via Job.NewCombiner).
type Reducer interface {
	Reduce(key []byte, values *Values, emit Emit) error
}

// TaskSetup is implemented by mappers/reducers that need per-task
// initialization (the analogue of Hadoop's setup()).
type TaskSetup interface {
	Setup(tc *TaskContext) error
}

// TaskCleanup is implemented by mappers/reducers that need a final
// flush after all input is consumed (the analogue of Hadoop's
// cleanup()). SUFFIX-σ uses this to flush its stacks (Algorithm 4).
type TaskCleanup interface {
	Cleanup(emit Emit) error
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(key, value []byte, emit Emit) error

// Map implements Mapper.
func (f MapperFunc) Map(key, value []byte, emit Emit) error { return f(key, value, emit) }

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key []byte, values *Values, emit Emit) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key []byte, values *Values, emit Emit) error {
	return f(key, values, emit)
}

// Partitioner assigns a key to one of r reduce partitions. A
// partitioner that cannot parse a key must return
// MalformedKeyPartition: the runtime counts such keys in the
// MALFORMED_KEYS counter and fails the job after the map phase, rather
// than letting malformed keys silently skew one partition.
type Partitioner func(key []byte, r int) int

// MalformedKeyPartition is the sentinel a Partitioner returns for a
// key it cannot parse.
const MalformedKeyPartition = -1

// DefaultPartitioner hashes the whole key (FNV-1a), Hadoop's
// HashPartitioner equivalent.
func DefaultPartitioner(key []byte, r int) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(r))
}

// TaskContext carries per-task information into Setup.
type TaskContext struct {
	// JobName is the name of the running job.
	JobName string
	// TaskID is the index of the task within its phase.
	TaskID int
	// Phase is "map", "combine", or "reduce".
	Phase string
	// Partition is the reduce partition (reduce phase only, else -1).
	Partition int
	// NumReducers is the number of reduce partitions.
	NumReducers int
	// Counters is the job's counter group, for custom counters. In a
	// worker process this is the attempt's private group, merged into
	// the job's counters when the attempt wins.
	Counters *Counters
	// SideData is the job's read-only side data (distributed cache).
	SideData map[string][]byte
	// TempDir is the task's scratch directory. In a worker process
	// every attempt gets a private directory, so a failed attempt's
	// files can be removed wholesale.
	TempDir string
}

// Job configures one MapReduce job.
type Job struct {
	// Name identifies the job in logs and errors.
	Name string
	// Input provides the input splits. Required.
	Input Input
	// NewMapper creates a mapper per map task. Required.
	NewMapper func() Mapper
	// NewCombiner, if non-nil, creates a combiner applied to each map
	// task's sorted output as it is encoded into a shuffle run (local
	// aggregation, Section V): once per partition, or once per spilled
	// run. It must emit in key order — its group's key, in practice.
	NewCombiner func() Reducer
	// NewReducer creates a reducer per reduce task. If nil the job is
	// map-only: mapper output goes straight to the sink, partitioned but
	// unsorted.
	NewReducer func() Reducer
	// Partition assigns intermediate keys to reduce partitions. Defaults
	// to DefaultPartitioner. SUFFIX-σ overrides it to partition by first
	// term only.
	Partition Partitioner
	// Compare is the shuffle sort order. Defaults to bytewise comparison.
	// SUFFIX-σ overrides it with the reverse lexicographic comparator.
	Compare extsort.Compare
	// GroupCompare decides which consecutive sorted keys form one reduce
	// group. Defaults to Compare.
	GroupCompare extsort.Compare
	// NumReducers is the number of reduce partitions R. Defaults to
	// 2×GOMAXPROCS.
	NumReducers int
	// MapSlots bounds the number of concurrently executing map tasks,
	// like the per-cluster map slot count in the paper's setup
	// (Section VII-A). Defaults to GOMAXPROCS.
	MapSlots int
	// ReduceSlots bounds the number of concurrently executing reduce
	// tasks. Defaults to GOMAXPROCS.
	ReduceSlots int
	// ShuffleMemory is the memory budget in bytes of a single map task
	// for buffering its partitioned (not yet combined) output — the
	// analogue of Hadoop's io.sort.mb, so total shuffle buffering
	// approaches MapSlots×ShuffleMemory. When a task's buffered bytes
	// across all of its partition sorters exceed the budget, the largest
	// buffer is gracefully spilled to a sorted on-disk run. Defaults to
	// 128 MiB; values below 64 KiB are clamped up to 64 KiB.
	ShuffleMemory int
	// ShuffleCodec selects the optional per-block compression of sealed
	// shuffle runs on top of the format's front-coding. Default is
	// extsort.CodecRaw; extsort.CodecFlate pays CPU for smaller transfer
	// and suits jobs whose values compress well.
	ShuffleCodec extsort.Codec
	// TempDir is the scratch directory for spills. Empty selects the
	// system default.
	TempDir string
	// Sink materializes the output. Defaults to MemSinkFactory.
	Sink SinkFactory
	// SideData is read-only data shared with every task, the analogue of
	// Hadoop's distributed cache (used by APRIORI-SCAN for the frequent
	// (k−1)-gram dictionary).
	SideData map[string][]byte
	// Spec, if non-nil, names a registered program (RegisterProgram)
	// that can reconstruct this job's task callbacks in a worker
	// process. Required for real multi-process execution; jobs without
	// it run in-process regardless of the selected runner.
	Spec *Spec
	// Runner selects the execution backend. Nil selects DefaultRunner:
	// the in-process LocalRunner, unless the NGRAMS_RUNNER environment
	// variable names another backend.
	Runner Runner
	// Progress, if non-nil, receives structured job lifecycle events
	// (job/phase starts, per-task completions, the final summary) plus
	// live handles on the job's counters and shuffle transfer. Wrap a
	// printf-style logger with LogProgress for the old Logf behaviour.
	Progress Progress
}

// Result is the outcome of a job.
type Result struct {
	// Output is the materialized job output.
	Output Dataset
	// Counters holds the job's counters.
	Counters *Counters
	// Wallclock is the total elapsed time of the job.
	Wallclock time.Duration
	// MapTasks and ReduceTasks are the task counts that ran.
	MapTasks, ReduceTasks int
}

func (j *Job) withDefaults() *Job {
	cp := *j
	if cp.Partition == nil {
		cp.Partition = DefaultPartitioner
	}
	if cp.Compare == nil {
		cp.Compare = extsort.Compare(compareBytes)
	}
	if cp.GroupCompare == nil {
		cp.GroupCompare = cp.Compare
	}
	if cp.NumReducers <= 0 {
		cp.NumReducers = 2 * runtime.GOMAXPROCS(0)
	}
	if cp.MapSlots <= 0 {
		cp.MapSlots = runtime.GOMAXPROCS(0)
	}
	if cp.ReduceSlots <= 0 {
		cp.ReduceSlots = runtime.GOMAXPROCS(0)
	}
	if cp.ShuffleMemory <= 0 {
		cp.ShuffleMemory = 128 << 20
	} else if cp.ShuffleMemory < 64<<10 {
		// Floor the task budget so a tiny setting degrades to frequent
		// small spills rather than one run per record.
		cp.ShuffleMemory = 64 << 10
	}
	if cp.Sink == nil {
		cp.Sink = MemSinkFactory()
	}
	if cp.Progress == nil {
		cp.Progress = nopProgress{}
	}
	return &cp
}

// nopProgress is the default sink when a job has none configured.
type nopProgress struct{}

func (nopProgress) JobStart(JobInfo)          {}
func (nopProgress) PhaseStart(string, string) {}
func (nopProgress) TaskDone(string, string)   {}
func (nopProgress) JobDone(JobSummary)        {}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return len(a) - len(b)
}

// Run executes the job to completion and returns its result: the job
// is compiled into its Plan, and the plan is handed to the job's
// Runner (DefaultRunner when unset).
func Run(ctx context.Context, job *Job) (*Result, error) {
	start := time.Now()
	plan, err := job.Compile()
	if err != nil {
		return nil, err
	}
	counters := NewCounters()
	counters.Add(CounterLaunchedJobs, 1)

	runner := job.Runner
	if runner == nil {
		runner, err = DefaultRunner()
		if err != nil {
			return nil, err
		}
	}
	progress := plan.job.Progress
	maps, reduces := plan.Tasks()
	progress.JobStart(JobInfo{
		Name: plan.Name, MapTasks: maps, ReduceTasks: reduces,
		Counters: counters, ShuffleIO: plan.shuffleIO,
	})
	out, err := runner.Run(ctx, plan, counters, progress)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Output:   out,
		Counters: counters,
		MapTasks: maps, ReduceTasks: reduces,
		Wallclock: time.Since(start),
	}
	progress.JobDone(Summary(plan.Name, res))
	return res, nil
}

// Driver runs a sequence of jobs and aggregates their counters, the way
// the paper reports measures (b) and (c) as "aggregates over all Hadoop
// jobs launched" for the multi-job APRIORI methods.
type Driver struct {
	// Aggregate accumulates the counters of every job run through the
	// driver.
	Aggregate *Counters
	// JobResults records per-job results in execution order.
	JobResults []*Result
	// Progress, if non-nil, is installed on jobs run through the driver
	// that have no sink of their own.
	Progress Progress
}

// NewDriver returns an empty driver.
func NewDriver() *Driver {
	return &Driver{Aggregate: NewCounters()}
}

// Run executes the job and folds its counters into the aggregate.
func (d *Driver) Run(ctx context.Context, job *Job) (*Result, error) {
	if job.Progress == nil {
		job.Progress = d.Progress
	}
	res, err := Run(ctx, job)
	if err != nil {
		return nil, err
	}
	d.Aggregate.Merge(res.Counters)
	d.JobResults = append(d.JobResults, res)
	return res, nil
}

// Wallclock returns the summed wallclock time of all jobs run so far.
func (d *Driver) Wallclock() time.Duration {
	var total time.Duration
	for _, r := range d.JobResults {
		total += r.Wallclock
	}
	return total
}
