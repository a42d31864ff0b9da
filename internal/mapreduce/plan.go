package mapreduce

import (
	"fmt"
	"sort"
	"sync"

	"ngramstats/internal/extsort"
)

// Plan is the compiled, declarative form of a Job: the phase layout,
// resolved input splits, partition count, memory budgets, and side
// data — everything a Runner needs to schedule the job's tasks,
// detached from how (and where) those tasks execute. Compile produces
// it; a Runner consumes it. The task-level callbacks (mapper, reducer,
// partitioner) stay reachable two ways: in-process through the
// compiled job (LocalRunner), and by reconstruction from Spec in a
// separate worker process (NetRunner).
type Plan struct {
	// Name identifies the job.
	Name string
	// Splits are the resolved input splits, one map task each.
	Splits []Split
	// MapOnly marks a job without a reducer: mapper output goes
	// straight to the sink, partitioned but unsorted.
	MapOnly bool
	// NumReducers is the number of reduce partitions R.
	NumReducers int
	// MapSlots and ReduceSlots bound in-process task concurrency.
	MapSlots, ReduceSlots int
	// ShuffleMemory is the per-map-task buffering budget in bytes.
	ShuffleMemory int
	// ShuffleCodec is the optional per-block compression of shuffle
	// runs.
	ShuffleCodec extsort.Codec
	// TempDir is the scratch directory for spills and (under the net
	// runner) the job's working directory.
	TempDir string
	// SideData is the job's read-only side data (distributed cache).
	SideData map[string][]byte
	// Spec, when non-nil, names a registered program from which a
	// worker process can reconstruct the job's task callbacks. Jobs
	// without a Spec can only execute in-process.
	Spec *Spec
	// Sink materializes the job output.
	Sink SinkFactory

	// job is the defaulted job the plan was compiled from; runners
	// executing tasks in-process reach the task callbacks through it.
	job *Job
	// shuffleIO measures the job's encoded shuffle transfer. It is
	// created at compile time (nil for map-only jobs) so progress
	// sinks can watch the transfer while any runner executes the plan.
	shuffleIO *extsort.IOStats
}

// Tasks returns the number of map and reduce tasks the plan will run.
func (p *Plan) Tasks() (maps, reduces int) {
	if p.MapOnly {
		return len(p.Splits), 0
	}
	return len(p.Splits), p.NumReducers
}

// Job returns the defaulted job the plan was compiled from, giving
// runners in-process access to the task callbacks (NewMapper,
// NewReducer, Partition, Descending, …).
func (p *Plan) Job() *Job { return p.job }

// ShuffleIO returns the live instrument measuring the plan's encoded
// shuffle transfer (nil for map-only jobs). Runners account every
// sealed-run write and merge read here — the net runner folds in
// worker-reported totals as tasks complete.
func (p *Plan) ShuffleIO() *extsort.IOStats { return p.shuffleIO }

// Compile resolves the job into its declarative Plan: defaults are
// applied, the input is split, and the phase layout is fixed. The
// returned plan is ready to hand to any Runner.
func (j *Job) Compile() (*Plan, error) {
	d := j.withDefaults()
	if d.Input == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no input", d.Name)
	}
	if d.NewMapper == nil && d.Spec != nil {
		// A Spec-only job: its callbacks all come from the registered
		// program, exactly as a worker process would rebuild them.
		built, err := buildProgram(d.Spec)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: %w", d.Name, err)
		}
		d.NewMapper = built.NewMapper
		d.NewCombiner = built.NewCombiner
		d.NewReducer = built.NewReducer
		if built.Partition != nil {
			d.Partition = built.Partition
		}
		d.Descending = built.Descending
	}
	if d.NewMapper == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no mapper", d.Name)
	}
	splits, err := d.Input.Splits()
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: input splits: %w", d.Name, err)
	}
	p := &Plan{
		Name:          d.Name,
		Splits:        splits,
		MapOnly:       d.NewReducer == nil,
		NumReducers:   d.NumReducers,
		MapSlots:      d.MapSlots,
		ReduceSlots:   d.ReduceSlots,
		ShuffleMemory: d.ShuffleMemory,
		ShuffleCodec:  d.ShuffleCodec,
		TempDir:       d.TempDir,
		SideData:      d.SideData,
		Spec:          d.Spec,
		Sink:          d.Sink,
		job:           d,
	}
	if !p.MapOnly {
		p.shuffleIO = &extsort.IOStats{}
	}
	return p, nil
}

// Spec names a registered program together with its serialized
// configuration. It is the portable identity of a job's task
// callbacks: a worker process rebuilds the mapper, combiner, reducer,
// partitioner, and sort order by handing Config to the program
// registered under Program. Jobs whose callbacks are ad-hoc closures
// leave Spec nil and are confined to in-process execution.
type Spec struct {
	// Program is the registered program name (RegisterProgram).
	Program string
	// Config is the program-defined serialized job configuration.
	Config []byte
}

// programRegistry maps program names to builders. Registration happens
// in init functions, lookups on the worker path; the lock keeps the
// race detector honest for test-registered programs.
var (
	programMu sync.RWMutex
	programs  = make(map[string]func(config []byte) (*Job, error))
)

// RegisterProgram registers a program: a builder that reconstructs a
// job's task-level callbacks (NewMapper, NewCombiner, NewReducer,
// Partition, Descending) from a serialized configuration.
// The runtime fields of the returned job (input, sink, slots, memory
// budgets, side data) are ignored — the executing runner supplies
// them. Registering the same name twice panics: programs are process-
// global identities shared between parent and re-executed workers.
func RegisterProgram(name string, build func(config []byte) (*Job, error)) {
	programMu.Lock()
	defer programMu.Unlock()
	if _, dup := programs[name]; dup {
		panic(fmt.Sprintf("mapreduce: program %q registered twice", name))
	}
	programs[name] = build
}

// buildProgram reconstructs a job's callbacks from a spec.
func buildProgram(spec *Spec) (*Job, error) {
	programMu.RLock()
	build, ok := programs[spec.Program]
	programMu.RUnlock()
	if !ok {
		known := registeredPrograms()
		return nil, fmt.Errorf("mapreduce: program %q not registered (known: %v)", spec.Program, known)
	}
	j, err := build(spec.Config)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: program %q: %w", spec.Program, err)
	}
	if j == nil || j.NewMapper == nil {
		return nil, fmt.Errorf("mapreduce: program %q built no mapper", spec.Program)
	}
	return j, nil
}

// registeredPrograms returns the sorted program names, for error
// messages.
func registeredPrograms() []string {
	programMu.RLock()
	defer programMu.RUnlock()
	names := make([]string, 0, len(programs))
	for name := range programs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
