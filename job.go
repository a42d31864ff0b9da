package ngramstats

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ngramstats/internal/core"
	"ngramstats/internal/extsort"
	"ngramstats/internal/mapreduce"
)

// Job is a handle on a running n-gram computation started with Start:
// it exposes live progress and counters while the underlying MapReduce
// jobs execute, and delivers the result through Wait. A Job is safe for
// concurrent use.
type Job struct {
	cancel context.CancelFunc
	done   chan struct{}
	track  *progressTracker

	res *Result
	err error
}

// JobProgress is a point-in-time snapshot of a running computation.
// Successive snapshots are monotonic: JobsStarted, JobsDone, TasksDone,
// TasksTotal, Records, and ShuffleBytes never decrease.
type JobProgress struct {
	// Phase is the current activity: "starting" before the first task
	// runs, then "map" or "reduce" within the running MapReduce job, and
	// "done" once Wait would return.
	Phase string
	// JobName is the MapReduce job currently running. Methods may launch
	// several jobs (APRIORI's per-length passes, document-split
	// pre-processing, maximality post-filtering); the name identifies
	// which one is active.
	JobName string
	// JobsStarted and JobsDone count the MapReduce jobs launched and
	// completed so far.
	JobsStarted, JobsDone int
	// TasksDone and TasksTotal accumulate map and reduce task
	// completions across every job started so far. TasksTotal grows as
	// new jobs announce their task counts.
	TasksDone, TasksTotal int
	// Records is the number of map-output records emitted so far. Within
	// the running job it advances as each map task finishes: a task
	// counts privately and hands its tally over when it ends.
	Records int64
	// ShuffleBytes is the encoded shuffle bytes written so far (the
	// measured transfer counter), live within the running job.
	ShuffleBytes int64
	// Elapsed is the time since Start.
	Elapsed time.Duration
	// Done reports whether the computation has finished — successfully,
	// with an error, or cancelled. Wait returns which.
	Done bool
}

// Start launches the computation of n-gram statistics over the corpus
// and returns immediately with a handle. The computation observes ctx:
// cancelling it (or calling the handle's Cancel) stops the run and
// makes Wait return the context's error. Count is Start followed by
// Wait.
func Start(ctx context.Context, c *Corpus, opts Options) (*Job, error) {
	method, params, err := opts.params()
	if err != nil {
		return nil, err
	}
	if !core.ValidMethod(method) {
		return nil, fmt.Errorf("ngramstats: unknown method %q", opts.Method)
	}
	track := newProgressTracker()
	params.Progress = mapreduce.MultiProgress(track, params.Progress)
	ctx, cancel := context.WithCancel(ctx)
	j := &Job{cancel: cancel, done: make(chan struct{}), track: track}
	go func() {
		defer close(j.done)
		defer cancel()
		run, err := core.Compute(ctx, c.collection(), method, params)
		if err != nil {
			j.err = err
		} else {
			j.res = &Result{corpus: c, run: run, opts: opts}
		}
		track.finish()
	}()
	return j, nil
}

// Count computes n-gram statistics over the corpus, blocking until the
// result is ready. It is Start followed by Wait.
func Count(ctx context.Context, c *Corpus, opts Options) (*Result, error) {
	j, err := Start(ctx, c, opts)
	if err != nil {
		return nil, err
	}
	return j.Wait()
}

// Wait blocks until the computation finishes and returns its result, or
// the first error (including ctx cancellation).
func (j *Job) Wait() (*Result, error) {
	<-j.done
	return j.res, j.err
}

// Cancel stops the computation. Wait returns context.Canceled if the
// run had not already finished. Cancel is idempotent.
func (j *Job) Cancel() { j.cancel() }

// Done returns a channel closed when the computation finishes.
func (j *Job) Done() <-chan struct{} { return j.done }

// Progress returns a snapshot of the computation's progress. It may be
// polled at any rate while the job runs.
func (j *Job) Progress() JobProgress { return j.track.snapshot() }

// Counters returns a snapshot of the Hadoop-style counters aggregated
// over every MapReduce job launched so far, including the live counters
// of the currently running job (names like MAP_OUTPUT_RECORDS,
// SHUFFLE_BYTES_WRITTEN — see the Result accessors for the measures the
// paper reports).
func (j *Job) Counters() map[string]int64 { return j.track.counters() }

// progressTracker accumulates mapreduce progress events into the
// monotonic JobProgress snapshots the Job handle serves. It implements
// mapreduce.Progress; events arrive from the compute goroutine and its
// task goroutines, snapshots are read from any goroutine.
type progressTracker struct {
	start time.Time

	mu          sync.Mutex
	phase       string
	jobName     string
	jobsStarted int
	jobsDone    int
	tasksDone   int
	tasksTotal  int
	// Totals of finished jobs; the running job is read live.
	doneRecords int64
	doneShuffle int64
	cur         *mapreduce.Counters
	curIO       *extsort.IOStats
	all         []*mapreduce.Counters
	finished    bool
}

func newProgressTracker() *progressTracker {
	return &progressTracker{start: time.Now(), phase: "starting"}
}

func (t *progressTracker) JobStart(info mapreduce.JobInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobsStarted++
	t.jobName = info.Name
	t.phase = "starting" // until this job's first PhaseStart
	t.tasksTotal += info.MapTasks + info.ReduceTasks
	t.cur = info.Counters
	t.curIO = info.ShuffleIO
	t.all = append(t.all, info.Counters)
}

func (t *progressTracker) PhaseStart(job, phase string) {
	t.mu.Lock()
	t.phase = phase
	t.mu.Unlock()
}

func (t *progressTracker) TaskDone(job, phase string) {
	t.mu.Lock()
	t.tasksDone++
	t.mu.Unlock()
}

func (t *progressTracker) JobDone(s mapreduce.JobSummary) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobsDone++
	t.doneRecords += s.MapOutRecords
	t.doneShuffle += s.ShuffleBytesWritten
	t.cur = nil
	t.curIO = nil
}

// finish marks the computation complete (in success and failure alike).
func (t *progressTracker) finish() {
	t.mu.Lock()
	t.finished = true
	t.phase = "done"
	t.mu.Unlock()
}

func (t *progressTracker) snapshot() JobProgress {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := JobProgress{
		Phase:        t.phase,
		JobName:      t.jobName,
		JobsStarted:  t.jobsStarted,
		JobsDone:     t.jobsDone,
		TasksDone:    t.tasksDone,
		TasksTotal:   t.tasksTotal,
		Records:      t.doneRecords,
		ShuffleBytes: t.doneShuffle,
		Elapsed:      time.Since(t.start),
		Done:         t.finished,
	}
	if t.cur != nil {
		p.Records += t.cur.Get(mapreduce.CounterMapOutputRecords)
	}
	if t.curIO != nil {
		p.ShuffleBytes += t.curIO.BytesWritten()
	}
	return p
}

func (t *progressTracker) counters() map[string]int64 {
	t.mu.Lock()
	jobs := append([]*mapreduce.Counters(nil), t.all...)
	t.mu.Unlock()
	agg := mapreduce.NewCounters()
	for _, c := range jobs {
		agg.Merge(c)
	}
	return agg.Snapshot()
}
