// Package ngramstats computes n-gram statistics over document
// collections with MapReduce-style distributed data processing, as
// described in:
//
//	Klaus Berberich, Srikanta Bedathur.
//	"Computing n-Gram Statistics in MapReduce." EDBT 2013.
//
// Given a collection of documents, a minimum collection frequency τ and
// a maximum length σ, the library identifies every n-gram (contiguous
// sequence of words, respecting sentence boundaries) occurring at least
// τ times with at most σ words, together with its exact number of
// occurrences. Four algorithms are provided:
//
//   - MethodNaive: word counting extended to all n-grams (Algorithm 1);
//   - MethodAprioriScan: one pruned scan per n-gram length, using the
//     APRIORI principle (Algorithm 2);
//   - MethodAprioriIndex: builds a positional inverted index and joins
//     posting lists for longer n-grams (Algorithm 3);
//   - MethodSuffixSigma: the paper's contribution — a single job that
//     sorts truncated suffixes in reverse lexicographic order and
//     aggregates with two stacks (Algorithm 4). It dominates the
//     alternatives for long and/or infrequent n-grams and matches them
//     elsewhere.
//
// The MapReduce substrate is a runtime faithful to Hadoop's
// programming model (mappers, combiners, partitioners, ascending or
// descending byte-order sorts, reducers, counters, slot-bounded
// parallelism, spill-to-disk shuffle), so the same algorithm structure,
// data movement, and measures the paper reports are observable locally
// via Result counters. Execution is pluggable: jobs compile into a declarative
// plan handed to an execution backend, either in-process goroutine
// tasks (the default) or worker OS processes leased tasks by an HTTP
// coordinator, with per-task retry ("process" spawns them on this
// machine, "net://host:port" also admits external ones) — select it
// with Options.Execution (or the NGRAMS_RUNNER environment variable),
// and read WORKER_PROCS / TASKS_RETRIED in the counters.
//
// # Streaming-first API
//
// The paper's methods exist because corpora do not fit comfortably in
// one machine's memory; the public API streams at every stage
// accordingly.
//
// Ingestion: a CorpusBuilder accepts one Document at a time, tokenizes
// and integer-encodes it immediately, and spills encoded documents to
// disk past a memory budget — raw text is never held beyond the
// document being added. FromDocuments drives a builder from an
// iterator; FromText, FromWebText and FromTextFiles are batch facades
// over the same path.
//
// Execution: Start launches the computation and returns a Job handle
// with live, monotonic progress (phases, task counts, live counters
// including measured shuffle bytes), cancellation via context, and
// Wait for the result. Count remains as Start followed by Wait.
//
// Consumption: Result.NGrams is a range-over-func iterator decoding
// one n-gram at a time; TopK and Longest select with a bounded
// min-heap in O(k) memory rather than materializing the result; Lookup
// stops at its first match.
//
// # Persistence and serving
//
// A Result can outlive its process: Result.Save persists it as a
// sharded on-disk index — globally sorted records in the shuffle's
// block-framed, front-coded, CRC-checked run format, plus the corpus
// dictionary, precomputed top-k records, and a checksummed manifest —
// and OpenIndex reopens it with answers byte-identical to the live
// Result's:
//
//	if err := result.Save("/data/books-idx"); err != nil { ... }
//	index, err := ngramstats.OpenIndex("/data/books-idx")
//	if err != nil { ... }
//	defer index.Close()
//	ng, found, err := index.Lookup("new york")
//	extensions, err := index.Prefix("new york", 10)
//	top, err := index.TopK(25)
//
// An Index is built for serving: all state is immutable after open, a
// point lookup reads exactly one shard block (found by binary search
// over the manifest's shard ranges and the shard footer's first-key
// index), a decoded-block LRU cache keeps hot blocks resident, and any
// number of goroutines may query concurrently without locking. Index
// adds Prefix — every indexed phrase extending a word sequence — which
// the sorted layout serves as a bounded range scan. TopK up to the
// saved precomputation depth (SaveOptions.TopDepth) never scans.
// Damage to any index file — truncation, bit flips, missing files —
// surfaces as an error wrapping index.ErrCorrupt or
// extsort.ErrCorruptRun, never as silently wrong statistics.
//
// An index directory can be rewritten in place without disturbing its
// readers: SaveOptions.Replace stages the new index in a generation
// subdirectory and swaps the manifest atomically, so the directory is
// openable at every instant and an Index opened before the swap keeps
// answering from its generation. Close is drain-aware — queries in
// flight finish normally and the files close when the last one ends,
// while queries started after Close fail with ErrIndexClosed. These
// two properties are what the serving daemon's zero-downtime reload is
// built from.
//
// The cmd/ngramsd daemon serves one or more indexes over a versioned
// HTTP API (/v1/lookup, /v1/prefix, /v1/topk, batched POST /v1/query,
// /v1/lm/score, /v1/lm/predict, POST /v1/admin/reload, /healthz,
// /metrics), hot-swaps to rewritten indexes (-watch or the admin
// endpoint) with zero dropped requests, and sheds excess load per
// endpoint with 429 + Retry-After. cmd/ngrams can save (-save) or
// compute-and-serve (-serve) directly.
//
// # Incremental maintenance (LSM chains)
//
// A saved index need not be rebuilt to grow. AppendDelta counts a
// batch of new documents with the exact same job — restricted to just
// those documents, so the cost is O(new documents) — and links the
// result to the saved index as a delta generation of an LSM chain
// (internal/lsm), or creates the chain from its first batch: the chain
// manifest (CHAIN.json, checksummed) orders the base index and its
// deltas, delta dictionaries are seeded from
// the previous generation so term identifiers stay stable, and
// OpenIndex serves the chain through a merge-on-read view that holds
// exactly the n-grams and aggregates of a from-scratch rebuild over all
// documents. The view speaks the chain's own identifiers — the base's
// frequency ranks, then each delta's new terms — and nothing translates
// them: Lookup, TopK and Longest answer as the rebuild does (ties broken
// by text), while NGram.IDs, the order of NGrams, and which extensions
// a Prefix limit keeps follow the chain's dictionary until compaction,
// the only step that ranks identifiers. There is one reader: a plain
// index is a chain of one generation, read with no fold. Each delta stores its
// own top records, so TopK over a chain is an exact threshold merge of
// the generations' stored lists plus point gets rather than a scan
// (Index.TopKStats counts which answered). The merge runs once per
// handle and depth: the handle keeps the list it proved, so a repeated
// or shallower TopK costs what a plain index's stored list costs and
// issues no point get (Index.TopKPointGets counts them), and Reopen
// keeps that list while the generations are unchanged. Prefix merges one
// block-cache-served cursor per generation and stops at the limit
// (Index.PrefixStats counts the records read). A
// reader that holds the directory open follows it with Index.Reopen,
// which opens only the generations the manifest added and shares the
// rest, warm block caches included (Index.OpenStats counts both).
// CompactIndex merges base + deltas back into a single
// base that is byte-identical — dictionary, shard files, precomputed
// top records — to that rebuild, committing via an atomic manifest
// swap (a crash leaves the previous chain intact and queryable).
//
//	stats, err := ngramstats.AppendDelta(ctx, "/data/books-idx", newDocs, ngramstats.AppendOptions{})
//	// stats.Counters["MAP_INPUT_RECORDS"] == len(newDocs): O(new documents)
//	cstats, err := ngramstats.CompactIndex("/data/books-idx", ngramstats.CompactOptions{})
//
// Every generation is counted with MinFrequency 1 and no
// maximal/closed selection — the invariants under which per-generation
// counts merge losslessly — so an adopted saved index must have been
// computed that way. The chain's τ (AppendOptions.Count.MinFrequency
// when the chain is created or adopted) is a read filter on the folded
// frequency, which commutes with appends and compaction. Maximal and
// closed are properties of the whole fold, so a chain has neither. On
// the command line, ngrams -append / -compact / -open drive the same
// cycle, and ngramsd -ingest appends every live reconciliation, with a
// background compactor (-compact-deltas, -compact-ratio,
// -compact-interval; POST /v1/admin/compact on demand).
//
// # Live ingestion and approximate counting
//
// The batch methods need the whole corpus before anything can be
// counted. NewStreamIngester is the streaming companion: documents are
// folded one at a time into a per-order count-min sketch (conservative
// update, safe for concurrent use without locking on the hot path) and
// are queryable immediately. Estimates are one-sided — never below the
// true count of the ingested stream — and exceed it by at most
// ceil(ε·N) with probability 1−δ per phrase, where N is the number of
// n-gram occurrences at that order (IngestOptions.Epsilon and Delta;
// the sketch is sized width = ceil(e/ε), depth = ceil(ln(1/δ))). One
// top-k heap across all orders tracks heavy hitters.
//
//	si, err := ngramstats.NewStreamIngester(ngramstats.IngestOptions{
//		Epsilon: 1e-4, Delta: 0.01, MaxLength: 3,
//	})
//	if err != nil { ... }
//	if err := si.Ingest(ngramstats.Document{Text: "a rose is a rose"}); err != nil { ... }
//	ac, ok := si.Estimate("a rose") // one-sided; ac.Bound states the error
//	hot := si.TopK(25)
//
// The sketch is an accelerator, not a replacement: BeginReconcile
// freezes the documents ingested since the last commit, and the caller
// appends the Reconcile's NewDocuments to an index with AppendDelta.
// Commit then releases them and drops the counted sketch delta
// (documents ingested during the reconciliation stay held and counted
// in a fresh delta); Abort folds the delta back.
//
// cmd/ngramsd wires this into the daemon as -ingest: POST /v1/ingest
// accepts documents, GET /v1/approx/lookup and /v1/approx/topk answer
// with approx:true and stated bounds, and a reconciliation loop
// (-reconcile-every, or POST /v1/admin/reconcile) appends to the exact
// index and hot-swaps it in with zero dropped requests. cmd/ngrams
// -sketch is the one-pass command-line variant.
//
// # Language models
//
// NewLanguageModel trains an n-gram language model from a live Result;
// NewLanguageModelFromIndex trains the identical model from a saved
// index by streaming its records through the persisted dictionary — no
// recomputation, and the index may be closed once the model is built:
//
//	index, err := ngramstats.OpenIndex("/data/books-idx")
//	if err != nil { ... }
//	lm, err := ngramstats.NewLanguageModelFromIndex(index, 3)
//	if err != nil { ... }
//	index.Close()
//	logp := lm.LogProb([]string{"the", "new", "york", "times"}) // Katz back-off
//	next := lm.Predict([]string{"new", "york"}, 5)              // stupid backoff
//
// Score, Predict, and Generate use stupid backoff (Brants et al.);
// LogProb uses Katz back-off with Good-Turing discounting and returns
// true log-probabilities. This is what ngramsd -lm exposes over
// /v1/lm/score and /v1/lm/predict.
//
// # Performance tuning
//
// The defaults are sized for a corpus that fits one machine
// comfortably; four knobs cover most deviations from that:
//
//   - BuilderOptions.MemoryBudget bounds how many encoded documents the
//     corpus builder keeps resident before spilling them to a temporary
//     shard (default 256 MiB). Lower it under memory pressure — spilled
//     documents cost one sequential write plus one sequential re-read
//     at Finish, nothing more.
//   - Options.ShuffleMemory bounds each map task's in-memory sort
//     buffers; past it the largest buffer sorts, front-codes, and
//     spills as a run file. Raising it means fewer, larger runs —
//     less spill I/O in the map phase and a lower merge fan-in in the
//     reduce phase. Raising it is the first lever when a job is
//     disk-bound.
//   - Options.MapSlots and Options.ReduceSlots set task parallelism
//     (default GOMAXPROCS). More reduce slots also mean more
//     partitions, so each reducer merges and aggregates less data.
//     When reduce fan-in (runs per partition) reaches 8 and fewer
//     reduce tasks run at once than there are CPUs, each k-way merge
//     additionally fans out across the CPUs they leave idle —
//     automatic, byte-identical output.
//   - Options.Codec selects the run-file compression. The default raw
//     front-coding already removes most redundancy from sorted
//     SUFFIX-σ keys; CodecFlate trades CPU for bytes and pays off
//     mainly for NAÏVE/APRIORI value shapes or genuinely slow disks.
//
// On the serving side, ngramsd -cache-blocks (index.Options via the
// library) sizes the per-index decoded-block LRU — raise it until the
// hot key range stays resident (each block is ~64 KiB decoded); full
// scans bypass the cache, so scans never evict the hot set.
//
// PERFORMANCE.md in the repository root walks the whole cost model —
// map spill, seal, shuffle format, merge, index — with profiling
// how-tos and the benchmark regression gate.
//
// # Quick start
//
//	builder := ngramstats.NewCorpusBuilder("demo", ngramstats.BuilderOptions{})
//	if err := builder.Add(ngramstats.Document{Text: "a rose is a rose is a rose"}); err != nil { ... }
//	corpus, err := builder.Finish()
//	if err != nil { ... }
//
//	job, err := ngramstats.Start(ctx, corpus, ngramstats.Options{
//		MinFrequency: 2,
//		MaxLength:    3,
//	})
//	if err != nil { ... }
//	// optional: poll job.Progress() while it runs
//	result, err := job.Wait()
//	if err != nil { ... }
//	defer result.Release()
//
//	for ng, err := range result.NGrams() {
//		if err != nil { ... }
//		fmt.Printf("%6d  %s\n", ng.Frequency, ng.Text)
//	}
//
// # Migrating from the batch-and-materialize API
//
// Old calls map directly onto the streaming surface; all of them still
// work, implemented on the streaming path:
//
//   - FromText(name, docs, years) → NewCorpusBuilder, Add(Document{...}),
//     Finish — or FromDocuments for an iterator source;
//   - Count(ctx, c, opts) → Start(ctx, c, opts) then Job.Wait (Count
//     itself remains and does exactly that);
//   - Options.Logf → Job.Progress / Job.Counters for structured live
//     progress (Logf still emits log lines);
//   - Result.All + sorting → Result.TopK / Result.Longest (now
//     memory-bounded), or range over Result.NGrams;
//   - Result.Each(fn) → for ng, err := range Result.NGrams().
//
// Beyond plain counting, SUFFIX-σ supports restricting output to
// maximal or closed n-grams and aggregations beyond occurrence counting
// (per-year time series, per-document inverted indexes) — the
// extensions of Section VI of the paper.
//
// See the examples directory for complete programs, including the
// paper's two evaluation use cases (language-model training and long
// n-gram text analytics) and the time-series extension.
package ngramstats
