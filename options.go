package ngramstats

import (
	"fmt"
	"os"

	"ngramstats/internal/core"
	"ngramstats/internal/mapreduce"
)

// Method selects the algorithm used to compute n-gram statistics.
type Method string

// Available methods. MethodSuffixSigma is the recommended default: it
// outperforms the alternatives by up to an order of magnitude for long
// or infrequent n-grams and is never significantly worse.
const (
	MethodNaive        Method = Method(core.Naive)
	MethodAprioriScan  Method = Method(core.AprioriScan)
	MethodAprioriIndex Method = Method(core.AprioriIndex)
	MethodSuffixSigma  Method = Method(core.SuffixSigma)
)

// Selection restricts which frequent n-grams are reported.
type Selection int

const (
	// SelectAll reports every n-gram with cf ≥ MinFrequency.
	SelectAll Selection = iota
	// SelectMaximal reports only n-grams with no frequent
	// super-sequence. Dramatically smaller output; omitted n-grams are
	// exactly the subsequences of reported ones.
	SelectMaximal
	// SelectClosed reports only n-grams with no equally-frequent
	// super-sequence. Omitted n-grams can be reconstructed together
	// with their exact frequencies.
	SelectClosed
)

// Aggregation selects what is collected per n-gram.
type Aggregation int

const (
	// Counts aggregates total occurrence counts (the default).
	Counts Aggregation = iota
	// TimeSeries aggregates per-year occurrence counts from document
	// publication years.
	TimeSeries
	// DocumentIndex aggregates per-document occurrence counts (an
	// inverted index).
	DocumentIndex
)

// Execution selects the backend that runs a computation's MapReduce
// tasks. The zero value keeps the in-process default (goroutine
// tasks), unless the NGRAMS_RUNNER environment variable overrides it.
type Execution struct {
	// Runner is the backend address: "local" executes tasks as
	// goroutines in this process; "net://host:port[?spawn=N]" starts
	// an HTTP coordinator on host:port and drives worker processes
	// with task leases, heartbeats, retry, and a shuffle-transfer
	// service (spawn=N fixes the number of spawned workers, spawn=0
	// relies entirely on externally connected `ngrams -worker-connect`
	// workers); "process" is that backend on 127.0.0.1:0 with Workers
	// spawned workers. Spawned workers are re-executions of the
	// current binary; wire mapreduce.RunWorkerIfRequested into main for
	// non-library binaries — the ngrams and experiments commands
	// already do, and a binary that does not gets a Start error. Any
	// scheme registered via mapreduce.RegisterRunner is accepted;
	// unknown ones are a Start error. Empty selects the default,
	// honoring NGRAMS_RUNNER.
	Runner string
	// Workers is the number of worker processes spawned per job under
	// "process" and "net://…" (default max(2, GOMAXPROCS)); each runs
	// one task at a time.
	Workers int
	// MaxAttempts is the per-task failure budget before the computation
	// fails; attempts beyond the first run on fresh scratch, and worker
	// exits and expired leases count against it (default: 2, i.e. one
	// retry).
	MaxAttempts int
}

// Options configures Count. The zero value computes statistics for all
// n-grams of any length occurring at least once, using SUFFIX-σ with
// sensible local defaults — set MinFrequency and MaxLength for
// anything non-trivial.
type Options struct {
	// Method is the algorithm; empty selects MethodSuffixSigma.
	Method Method
	// MinFrequency is τ: the minimum number of occurrences. Values < 1
	// are treated as 1.
	MinFrequency int64
	// MaxLength is σ: the maximum n-gram length in words. 0 means
	// unbounded.
	MaxLength int
	// Selection optionally restricts output to maximal or closed
	// n-grams (MethodSuffixSigma only).
	Selection Selection
	// Aggregation selects counts, per-year time series, or per-document
	// indexes (MethodSuffixSigma only for the latter two).
	Aggregation Aggregation
	// Reducers is the number of reduce partitions per job (default:
	// 2×GOMAXPROCS).
	Reducers int
	// MapSlots and ReduceSlots bound task concurrency (default:
	// GOMAXPROCS).
	MapSlots, ReduceSlots int
	// InputSplits is the number of map tasks over the corpus (default
	// 16).
	InputSplits int
	// DocumentSplits enables the pre-processing that splits documents
	// at infrequent terms; worthwhile for large MaxLength.
	DocumentSplits bool
	// Combiner enables map-side local aggregation.
	Combiner bool
	// TempDir is the scratch directory for shuffle spills (default:
	// system temp).
	TempDir string
	// Execution selects the backend that runs the MapReduce tasks: in
	// this process (the default) or in worker OS processes, with
	// per-task retry. The counters of a run report WORKER_PROCS and
	// TASKS_RETRIED under a worker-spawning backend.
	Execution Execution
	// Logf, if non-nil, receives human-readable progress lines. For
	// structured live progress (phases, task counts, live counters) use
	// Start and poll the returned Job's Progress instead.
	Logf func(format string, args ...any)
}

func (o Options) params() (core.Method, core.Params, error) {
	m := core.Method(o.Method)
	if o.Method == "" {
		m = core.SuffixSigma
	}
	p := core.Params{
		Tau:         o.MinFrequency,
		Sigma:       o.MaxLength,
		NumReducers: o.Reducers,
		MapSlots:    o.MapSlots,
		ReduceSlots: o.ReduceSlots,
		InputSplits: o.InputSplits,
		TempDir:     o.TempDir,
		DocSplit:    o.DocumentSplits,
		Combiner:    o.Combiner,
		Select:      core.SelectMode(o.Selection),
		Aggregation: core.AggregationKind(o.Aggregation),
	}
	if o.Execution != (Execution{}) {
		// Workers/MaxAttempts without an explicit Runner still apply:
		// the backend name then comes from NGRAMS_RUNNER (empty means
		// local, where the knobs are moot).
		name := o.Execution.Runner
		if name == "" {
			name = os.Getenv(mapreduce.RunnerEnv)
		}
		r, err := mapreduce.NewRunner(name, o.Execution.Workers, o.Execution.MaxAttempts)
		if err != nil {
			return m, p, fmt.Errorf("ngramstats: %w", err)
		}
		p.Runner = r
	}
	if o.Logf != nil {
		p.Progress = mapreduce.LogProgress(o.Logf)
	}
	return m, p, nil
}
