// Package mapreduce is a MapReduce runtime modeled on Hadoop, the
// substrate every method of the paper runs on. It provides the
// programming model of Dean & Ghemawat — map(k1,v1) → list<(k2,v2)>,
// sort/group, reduce(k2, list<v2>) → list<(k3,v3)> — together with the
// Hadoop facilities the paper's implementation section (Section V)
// depends on: custom partitioners and sort comparators, combiners for
// local aggregation, job counters (MAP_OUTPUT_BYTES, MAP_OUTPUT_RECORDS,
// …), side data in the style of the distributed cache, configurable
// map/reduce slot pools, and a driver for multi-job workflows.
//
// # Plan and Runner
//
// Execution is split into two halves. Run first compiles a Job into a
// declarative Plan — resolved input splits, phase layout, partition
// count, memory budgets, serialized side data — and then hands the
// plan to a Runner, the pluggable execution backend:
//
//	Job ──Compile──▶ Plan ──Runner.Run──▶ Dataset
//
// LocalRunner (the default) executes tasks as goroutines in this
// process, exactly as the engine always has. NetRunner executes them
// in worker OS processes — the in-repo analogue of Hadoop scheduling
// isolated task JVMs onto cluster slots: an HTTP coordinator leases
// tasks to registered workers, with heartbeats, per-task retry
// (MaxAttempts), speculative execution, and a shuffle-transfer
// service. The workers are re-executions of the current binary the
// runner spawns itself, external ones that join over the network, or
// both. Job.Runner selects the backend per job; DefaultRunner honors
// the NGRAMS_RUNNER environment variable for jobs that leave it nil.
//
// # Runner addresses and the registry
//
// Backends are addressed by a scheme string, parsed in exactly one
// place (NewRunner) and honored identically by Job.Runner resolution,
// NGRAMS_RUNNER, the public Options.Execution, and the -runner flags
// of the commands:
//
//	"local"                      in-process goroutine tasks (also "")
//	"net://host:port[?spawn=N]"  HTTP coordinator with leased workers
//	"process"                    "net://127.0.0.1:0" spawning Workers
//	                             one-job workers
//
// "process" is an address, not an implementation: NewRunner("process",
// w, a) returns &NetRunner{Workers: w, MaxAttempts: a}.
// The net scheme accepts further parameters: ttl=<duration> sets the
// lease TTL and spec=<duration|off> the speculative-execution delay
// (fault drills pin recovery to lease expiry with spec=off).
//
// RegisterRunner makes the scheme set extensible: a backend registers
// a factory for its scheme (the part before "://", matched
// case-insensitively) in an init function, and is then addressable
// everywhere a runner name is accepted. The factory receives the full
// address plus the shared Workers/MaxAttempts knobs and must reject
// addresses it cannot honor — an unknown scheme, a malformed address,
// or an unrecognized parameter is a loud error at job start, never a
// silent fallback to a different backend. Registering a duplicate
// scheme panics: schemes are process-global identities.
//
// Task callbacks are Go closures, so a worker process cannot receive
// them over the wire; instead a job carries a Spec — the name of a
// program registered with RegisterProgram plus a serialized
// configuration — from which the worker rebuilds the mapper, combiner,
// reducer, partitioner, and comparators. A job may even be Spec-only:
// Compile materializes the callbacks from the registry, so the local
// and worker construction paths are one and the same. Jobs without a
// Spec (ad-hoc closures in tests) silently fall back to in-process
// execution under the NetRunner.
//
// # Shuffle architecture
//
// The shuffle follows Hadoop's map-side spill / reduce-side merge
// design. Each map task partitions its output into task-private
// bounded-memory sorters (package extsort), one per reduce partition;
// a record is copied once, into its partition's buffer. A combiner
// runs inside the sorter, over each sorted buffer as it is encoded
// into a run (Hadoop's combine-on-spill), and must emit in key order:
// a key sorting before the previous one fails the task.
//
// A task shares nothing with its neighbours per record or per group,
// map or reduce: its sorters are its own, its loops count into plain
// integers added to the job's Counters once when the task ends (live
// readers see counters advance per finished task), and cancellation
// reaches it through a task-local flag the context sets.
//
// When a task finishes, it seals every partition sorter into immutable
// sorted runs — the final in-memory buffer is encoded into an
// in-memory run at zero disk I/O; earlier spills travel as on-disk
// runs — and hands them off through a per-task slot, so the hand-off
// itself is also lock-free. Each reduce task then opens a multi-way
// merge (extsort.MergeRuns) over all map tasks' runs for its partition
// and streams the merged groups through the reducer.
//
// # Run format and measured transfer
//
// Sealed runs — in memory and on disk alike — use extsort's
// block-framed run format: records are grouped into ~64 KiB blocks
// whose sorted keys are front-coded (shared-prefix length + differing
// suffix), each block carries a CRC-32C checksum, and a per-run footer
// index maps every block to its first key so merge readers stream
// block-at-a-time with readahead and can skip blocks outside a key
// range (extsort.MergeRunsRange). Front-coding is what makes SUFFIX-σ
// suffix keys — long sorted stretches sharing leading terms — much
// smaller in flight than flat framing. Job.ShuffleCodec optionally
// adds per-block DEFLATE on top for jobs whose values compress well.
//
// Because every sealed run is really encoded, shuffle transfer is
// measured rather than estimated: SHUFFLE_BYTES_WRITTEN counts the
// encoded run bytes map tasks produced, SHUFFLE_BYTES_READ the bytes
// reduce-side merges consumed (equal on a fully drained job), while
// REDUCE_SHUFFLE_BYTES remains the logical key+value byte count —
// written/logical is the format's compression ratio.
//
// # Memory accounting
//
// Job.ShuffleMemory is the buffering budget of a single map task — the
// analogue of Hadoop's io.sort.mb — shared across that task's partition
// sorters; total shuffle buffering therefore approaches
// MapSlots×ShuffleMemory. When a task's buffered bytes exceed its
// budget, the largest partition buffer is gracefully spilled to a
// sorted on-disk run and counting continues. The budget holds the map
// output as emitted; a combiner shrinks a buffer only as it is encoded.
//
// Sealed in-memory runs stay resident until their reduce task drains
// them, so when a job has more map tasks than slots, each finishing
// task spills its remainder to disk once its share of the
// MapSlots×ShuffleMemory hand-off budget is exceeded — the analogue of
// Hadoop's always-on-disk final map output, paid only when the bound
// is actually at risk.
//
// The shuffle reports its shape through counters:
// SHUFFLE_SEALED_RUNS (runs handed off), SHUFFLE_MERGE_FAN_IN (summed
// reduce-side merge width), SHUFFLE_MICROS (time spent sealing and
// opening merges, summed across tasks), and the measured transfer
// pair SHUFFLE_BYTES_WRITTEN / SHUFFLE_BYTES_READ, alongside the
// Hadoop-style SPILLED_RECORDS and REDUCE_SHUFFLE_BYTES. A
// partitioner that cannot parse a key returns MalformedKeyPartition;
// such keys are tallied in MALFORMED_KEYS and any nonzero count fails
// the job after the map phase.
//
// # The worker protocol
//
// There is one worker protocol. A spawned worker is a re-execution of
// the current binary (os.Executable) with NGRAMS_NET_WORKER naming the
// coordinator; the child must call RunWorkerIfRequested first thing in
// main — or TestMain for test binaries — which hijacks the process. A
// binary that skips the hook fails fast in both roles: as the child it
// finds NGRAMS_NET_WORKER set when it reaches NetRunner.Run and
// refuses to spawn in turn, and the parent fails the job — naming the
// hook — when a child exits without ever registering.
//
// The coordinator and its workers speak plain HTTP/JSON under the
// /mr/ prefix (message types in netproto.go). The coordinator serves:
//
//	POST /mr/register       worker announces its shuffle-service URL;
//	                        gets a worker id plus the job config
//	                        (program name, serialized config, partition
//	                        count, memory budgets, codec, side-data
//	                        keys, lease TTL)
//	POST /mr/poll           worker asks for work; the request is held
//	                        open until the answer is a leased task,
//	                        "drain" (job over), "reregister" (unknown
//	                        worker id), or — after a quarter of the
//	                        lease TTL (at most 500ms) with nothing to
//	                        do — "wait"
//	POST /mr/heartbeat      renews the leases a worker still executes;
//	                        the reply lists leases to cancel
//	POST /mr/output/{lease} streams a reduce or map-only attempt's
//	                        output records into coordinator staging
//	POST /mr/result         reports a finished or failed attempt;
//	                        the reply says whether the attempt won
//	POST /mr/goodbye        graceful exit: leases and published map
//	                        outputs are requeued immediately
//	GET  /mr/split/{i}      input split i as a record file
//	GET  /mr/side/{key}     side data by key
//
// Each worker runs a shuffle-transfer service of its own, serving
//
//	GET /mr/run/{id}        one sealed map run, with HTTP Range support
//
// A map task's sealed runs stay on the producing worker; the result
// report carries their URLs, sizes, and record counts. Reduce workers
// merge them via ranged fetches (extsort.OpenRemoteRun) — the run
// format's per-block CRCs and footer index verify every transferred
// block, so a corrupted or truncated fetch surfaces as
// extsort.ErrCorruptRun rather than wrong counts, and
// SHUFFLE_FETCH_BYTES counts the wire bytes pulled.
//
// Idle workers never sleep: a poll the coordinator cannot answer with
// a task is held until a task goes back to pending, the reduce phase
// opens (or re-opens, once a lost map output has been re-executed), or
// the job ends, so the map→reduce barrier and the final drain cost a
// wake-up, not a polling interval. The hold is bounded at a quarter of
// the lease TTL and at 500ms; the "wait" that ends it makes the worker
// poll again, which is also when speculation is re-evaluated.
//
// Fault tolerance is lease-based. Every assignment is a lease with a
// TTL; workers heartbeat at a third of it, a coordinator janitor
// expires leases that fall silent (LEASES_EXPIRED) and requeues their
// tasks, and failures charge a per-task attempt budget (MaxAttempts,
// fresh scratch per attempt) before the job fails. Workers the runner
// spawned do not wait for that: the pool that started them sees each
// exit and reports it to the coordinator under the pid the worker
// registered with (matched only against workers on the coordinator's
// own host), which fails the worker's live leases at once —
// charged, so TASKS_RETRIED and the attempt budget see a crash exactly
// as they see a reported error — requeues the maps it had finished,
// and starts a replacement. A worker silent past three TTLs is
// presumed dead: map outputs published by it are
// invalidated and their tasks re-executed — the Hadoop lost-map-output
// recovery — triggered eagerly when a reduce attempt reports fetch
// failures. Stragglers are speculatively duplicated (TASKS_SPECULATED)
// once an otherwise-idle worker has nothing pending and the lone
// attempt is older than both the configured delay and twice the
// phase's median task duration; the first result wins, and losing
// attempts are cancelled through their next heartbeat and their late
// results rejected. Winner-only result folding keeps record counters —
// and the output bytes — identical to the local runner's.
//
// Workers come in two flavors: a NetRunner spawns one-job workers
// (scratch rooted under the coordinator's working directory, so one
// removal cleans up after success, failure, cancellation, and SIGKILL
// alike) unless NoSpawn is set, and external persistent workers join
// with RunNetWorker — the `ngrams -worker-connect` path —
// re-registering between jobs until interrupted. WORKER_PROCS counts
// the workers spawned (the pool plus replacements), NET_WORKERS the
// registrations.
package mapreduce
