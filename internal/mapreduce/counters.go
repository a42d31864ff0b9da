package mapreduce

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Standard counter names, mirroring the Hadoop counters the paper reads
// for its measurements (Section VII-A): "bytes transferred" is
// MAP_OUTPUT_BYTES and "# records" is MAP_OUTPUT_RECORDS, both aggregated
// over all jobs a method launches.
const (
	CounterMapInputRecords    = "MAP_INPUT_RECORDS"
	CounterMapOutputRecords   = "MAP_OUTPUT_RECORDS"
	CounterMapOutputBytes     = "MAP_OUTPUT_BYTES"
	CounterCombineInputRecs   = "COMBINE_INPUT_RECORDS"
	CounterCombineOutputRecs  = "COMBINE_OUTPUT_RECORDS"
	CounterReduceShuffleBytes = "REDUCE_SHUFFLE_BYTES"
	CounterReduceInputGroups  = "REDUCE_INPUT_GROUPS"
	CounterReduceInputRecords = "REDUCE_INPUT_RECORDS"
	CounterReduceOutputRecs   = "REDUCE_OUTPUT_RECORDS"
	CounterReduceOutputBytes  = "REDUCE_OUTPUT_BYTES"
	CounterSpilledRecords     = "SPILLED_RECORDS"
	CounterLaunchedJobs       = "LAUNCHED_JOBS"
	CounterMapPhaseMillis     = "MAP_PHASE_MILLIS"
	CounterReducePhaseMillis  = "REDUCE_PHASE_MILLIS"

	// Shuffle counters for the map-side spill / reduce-side merge
	// architecture.
	//
	// SHUFFLE_SEALED_RUNS counts the sorted runs map tasks sealed and
	// handed off to the reduce side. SHUFFLE_MERGE_FAN_IN sums the number
	// of runs each reduce task merged (divide by reduce tasks for the
	// average fan-in). SHUFFLE_MICROS accumulates the microseconds tasks
	// spent in the shuffle hand-off itself — map-side sealing plus
	// reduce-side merge opening — summed across tasks, not wall-clock of
	// a phase (microseconds, because individual hand-offs are routinely
	// sub-millisecond and would otherwise truncate to zero).
	CounterShuffleRuns   = "SHUFFLE_SEALED_RUNS"
	CounterMergeFanIn    = "SHUFFLE_MERGE_FAN_IN"
	CounterShuffleMicros = "SHUFFLE_MICROS"

	// Measured shuffle transfer, in encoded run-format bytes (package
	// extsort): SHUFFLE_BYTES_WRITTEN counts every byte of sealed run
	// data map tasks produced — spill files and sealed in-memory runs
	// alike, after front-coding and the optional block codec — and
	// SHUFFLE_BYTES_READ counts the bytes reduce-side merges actually
	// consumed. Unlike REDUCE_SHUFFLE_BYTES (the logical key+value
	// bytes entering the shuffle, an estimate of transfer), these are
	// the real encoded sizes the paper's "bytes transferred" measure
	// cares about; on a fully drained job read equals written.
	CounterShuffleBytesWritten = "SHUFFLE_BYTES_WRITTEN"
	CounterShuffleBytesRead    = "SHUFFLE_BYTES_READ"

	// MALFORMED_KEYS counts intermediate keys the partitioner could not
	// parse (it returned MalformedKeyPartition). Any nonzero count
	// fails the job after the map phase instead of silently routing
	// garbage to partition 0.
	CounterMalformedKeys = "MALFORMED_KEYS"

	// Worker counters. WORKER_PROCS counts the worker OS processes the
	// runner spawned over the life of the job: its pool, plus a
	// replacement for every worker that died mid-job (external workers
	// are not counted); TASKS_RETRIED counts task attempts that failed,
	// or whose outputs were lost, and were run again. Both stay zero
	// under the in-process LocalRunner.
	CounterWorkerProcs  = "WORKER_PROCS"
	CounterTasksRetried = "TASKS_RETRIED"

	// Net-runner counters. NET_WORKERS counts worker registrations at
	// the coordinator over the life of the job; TASKS_SPECULATED counts
	// speculative (duplicate) attempts launched against stragglers;
	// LEASES_EXPIRED counts task leases that lapsed without heartbeat
	// renewal and were reassigned; SHUFFLE_FETCH_BYTES counts the
	// encoded run bytes reduce workers pulled over the wire from the
	// shuffle-transfer services of the map workers — including bytes
	// fetched by attempts that lost a speculative race, so it measures
	// real transfer, unlike SHUFFLE_BYTES_READ which stays equal to the
	// winner-only merge volume. All four stay zero under the local
	// runner.
	CounterNetWorkers        = "NET_WORKERS"
	CounterTasksSpeculated   = "TASKS_SPECULATED"
	CounterLeasesExpired     = "LEASES_EXPIRED"
	CounterShuffleFetchBytes = "SHUFFLE_FETCH_BYTES"
)

// Counters is a concurrency-safe named counter group, the equivalent of
// a Hadoop job's counter set. The zero value is not usable; call
// NewCounters.
type Counters struct {
	mu sync.Mutex
	m  map[string]*atomic.Int64
}

// NewCounters returns an empty counter group.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]*atomic.Int64)}
}

func (c *Counters) counter(name string) *atomic.Int64 {
	c.mu.Lock()
	v, ok := c.m[name]
	if !ok {
		v = new(atomic.Int64)
		c.m[name] = v
	}
	c.mu.Unlock()
	return v
}

// Add adds delta to the named counter, creating it if needed.
func (c *Counters) Add(name string, delta int64) {
	c.counter(name).Add(delta)
}

// Get returns the value of the named counter (zero if absent).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	v, ok := c.m[name]
	c.mu.Unlock()
	if !ok {
		return 0
	}
	return v.Load()
}

// Merge adds every counter of other into c. Used by the Driver to
// aggregate measures "over all Hadoop jobs launched" as the paper does
// for APRIORI-SCAN and APRIORI-INDEX.
func (c *Counters) Merge(other *Counters) {
	if other == nil {
		return
	}
	other.mu.Lock()
	names := make([]string, 0, len(other.m))
	for name := range other.m {
		names = append(names, name)
	}
	vals := make([]int64, len(names))
	for i, name := range names {
		vals[i] = other.m[name].Load()
	}
	other.mu.Unlock()
	for i, name := range names {
		c.Add(name, vals[i])
	}
}

// MergeSnapshot adds every entry of a plain counter map into c — the
// Merge counterpart for counters that crossed a process boundary as a
// serialized snapshot (worker results).
func (c *Counters) MergeSnapshot(snap map[string]int64) {
	for name, v := range snap {
		c.Add(name, v)
	}
}

// Snapshot returns a copy of all counters as a plain map. A map
// carries no order; use Sorted or String where deterministic ordering
// matters (reports, golden files, worker-result comparison).
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for name, v := range c.m {
		out[name] = v.Load()
	}
	return out
}

// CounterValue is one named counter reading.
type CounterValue struct {
	Name  string
	Value int64
}

// Sorted returns a point-in-time copy of all counters ordered by name
// — the deterministic view of the group. It is safe to call while
// other goroutines Add or Merge.
func (c *Counters) Sorted() []CounterValue {
	c.mu.Lock()
	out := make([]CounterValue, 0, len(c.m))
	for name, v := range c.m {
		out = append(out, CounterValue{Name: name, Value: v.Load()})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the counters sorted by name, one per line.
func (c *Counters) String() string {
	var b strings.Builder
	for _, cv := range c.Sorted() {
		fmt.Fprintf(&b, "%s=%d\n", cv.Name, cv.Value)
	}
	return b.String()
}
