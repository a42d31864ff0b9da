// Command ngrams computes n-gram statistics over text files.
//
// Usage:
//
//	ngrams [flags] file.txt...
//	cat corpus.txt | ngrams [flags]
//
// Each input file is one document (with stdin, each line is one
// document). Ingestion streams: documents are tokenized and encoded one
// at a time through the CorpusBuilder API, so the corpus never holds
// all raw text in memory. Example:
//
//	ngrams -tau 5 -sigma 5 -top 20 books/*.txt
//
// The result can outlive the run: -save dir persists it as a sharded
// on-disk index (servable later with cmd/ngramsd), and -serve :8091
// serves it over HTTP right away:
//
//	ngrams -tau 5 -save /data/books-idx books/*.txt
//	ngrams -tau 5 -serve :8091 books/*.txt
//
// By default MapReduce tasks run as goroutines. -runner=net://host:port
// starts an HTTP coordinator and drives worker processes with task
// leases, heartbeats, retry, and a shuffle-transfer service;
// -runner=process is that backend on a loopback port with -workers
// spawned workers (re-execs of this binary in a hidden worker mode):
//
//	ngrams -runner=process -workers 4 -tau 5 books/*.txt
//
// By default a net:// run spawns its own workers too; with ?spawn=0 it
// waits for external workers started with -worker-connect (possibly on
// other machines):
//
//	ngrams -worker-connect host:7001 &   # repeat per worker
//	ngrams -runner='net://host:7001?spawn=0' -tau 5 books/*.txt
//
// -sketch skips the exact MapReduce job entirely and answers from a
// one-pass count-min sketch: a single streaming scan, fixed counter
// memory, one-sided estimates with a stated eps*N error bound:
//
//	ngrams -sketch -eps 1e-4 -delta 0.01 -sigma 3 -top 20 books/*.txt
//
// A saved index (computed with -tau 1 and no -maximal/-closed) can grow
// incrementally: -append runs the exact job over only the new input and
// links it to the index as a delta generation (on a directory with no
// index, it creates a chain at τ = 1 and -sigma), -compact merges base
// and deltas back into one index byte-identical to a full rebuild, and
// -open dumps any saved index or chain deterministically:
//
//	ngrams -tau 1 -sigma 3 -save /data/idx batch1/*.txt
//	ngrams -append /data/idx batch2/*.txt
//	ngrams -open /data/idx
//	ngrams -compact /data/idx
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"iter"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"ngramstats"
	"ngramstats/internal/mapreduce"
	"ngramstats/internal/serving"
)

func main() {
	var (
		method   = flag.String("method", "suffix-sigma", "algorithm: naive | apriori-scan | apriori-index | suffix-sigma")
		tau      = flag.Int64("tau", 2, "minimum collection frequency τ")
		sigma    = flag.Int("sigma", 5, "maximum n-gram length σ (0 = unbounded)")
		top      = flag.Int("top", 25, "print the k most frequent n-grams (0 = all)")
		longest  = flag.Int("longest", 0, "also print the k longest n-grams")
		maximal  = flag.Bool("maximal", false, "report only maximal n-grams")
		closed   = flag.Bool("closed", false, "report only closed n-grams")
		combine  = flag.Bool("combiner", true, "use map-side local aggregation")
		docsplit = flag.Bool("docsplit", false, "split documents at infrequent terms first")
		web      = flag.Bool("web", false, "apply boilerplate filtering (web pages)")
		df       = flag.Bool("df", false, "also report document frequencies (distinct documents)")
		stats    = flag.Bool("stats", false, "print run statistics (jobs, bytes, records, time)")
		progress = flag.Bool("progress", false, "print live progress while computing")
		mem      = flag.Int("mem", 0, "corpus builder memory budget in MiB (0 = default)")
		save     = flag.String("save", "", "persist the result as a queryable index in this directory")
		serve    = flag.String("serve", "", "serve the result over HTTP on this address (e.g. :8091) until interrupted")
		runner   = flag.String("runner", "", "execution backend address: local (in-process tasks) | net://host:port[?spawn=N] (HTTP coordinator with leased worker processes) | process (net://127.0.0.1:0 with -workers spawned workers); default honors $NGRAMS_RUNNER")
		workers  = flag.Int("workers", 0, "worker processes spawned per job with a worker-spawning -runner (0 = backend default)")
		retries  = flag.Int("retries", 0, "per-task attempt budget with a worker-based -runner (0 = default of 2)")
		connect  = flag.String("worker-connect", "", "run as a net worker for the coordinator at this address (host:port) until interrupted; no input is read")
		appendTo = flag.String("append", "", "append the input documents to the saved index in this directory as a delta generation (exact job over only the new documents)")
		compact  = flag.String("compact", "", "merge the saved index chain in this directory (base + deltas) into a single base index and exit")
		open     = flag.String("open", "", "dump every n-gram of the saved index or chain in this directory to stdout, in its encoded-key order (an uncompacted chain's own identifiers), and exit")
		sketch   = flag.Bool("sketch", false, "one-pass approximate mode: count-min sketch instead of the exact MapReduce job")
		eps      = flag.Float64("eps", 0, "with -sketch: estimates exceed true counts by at most eps*N (0 = default 1e-4)")
		delta    = flag.Float64("delta", 0, "with -sketch: the eps*N bound holds per key with probability 1-delta (0 = default 0.01)")
	)
	mapreduce.RunWorkerIfRequested() // hidden worker mode: -runner=process and net:// re-exec this binary
	flag.Parse()
	ctx := context.Background()

	if *connect != "" {
		wctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
		fmt.Fprintf(os.Stderr, "ngrams: worker serving coordinator %s; interrupt to stop\n", *connect)
		if err := mapreduce.RunNetWorker(wctx, *connect); err != nil {
			fmt.Fprintln(os.Stderr, "ngrams: worker:", err)
			os.Exit(1)
		}
		return
	}

	if *open != "" {
		if err := dumpIndex(*open); err != nil {
			fmt.Fprintln(os.Stderr, "ngrams:", err)
			os.Exit(1)
		}
		return
	}
	if *compact != "" {
		if err := compactRun(*compact); err != nil {
			fmt.Fprintln(os.Stderr, "ngrams:", err)
			os.Exit(1)
		}
		return
	}
	if *appendTo != "" {
		err := appendRun(ctx, *appendTo, documents(flag.Args(), *web), ngramstats.AppendOptions{
			Count: ngramstats.Options{
				MaxLength:      *sigma,
				Method:         ngramstats.Method(*method),
				Combiner:       *combine,
				DocumentSplits: *docsplit,
				Execution: ngramstats.Execution{
					Runner:      *runner,
					Workers:     *workers,
					MaxAttempts: *retries,
				},
			},
			Builder: ngramstats.BuilderOptions{MemoryBudget: *mem << 20},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ngrams:", err)
			os.Exit(1)
		}
		return
	}

	if *sketch {
		if err := sketchRun(documents(flag.Args(), *web), *eps, *delta, *sigma, *top); err != nil {
			fmt.Fprintln(os.Stderr, "ngrams:", err)
			os.Exit(1)
		}
		return
	}

	corpus, err := ngramstats.FromDocuments(ctx, "input", documents(flag.Args(), *web),
		ngramstats.BuilderOptions{MemoryBudget: *mem << 20})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ngrams:", err)
		os.Exit(1)
	}
	if corpus.Stats().Documents == 0 {
		fmt.Fprintln(os.Stderr, "ngrams: no input documents")
		os.Exit(1)
	}

	opts := ngramstats.Options{
		Method:         ngramstats.Method(*method),
		MinFrequency:   *tau,
		MaxLength:      *sigma,
		Combiner:       *combine,
		DocumentSplits: *docsplit,
		Execution: ngramstats.Execution{
			Runner:      *runner,
			Workers:     *workers,
			MaxAttempts: *retries,
		},
	}
	switch {
	case *maximal:
		opts.Selection = ngramstats.SelectMaximal
	case *closed:
		opts.Selection = ngramstats.SelectClosed
	}
	if *df {
		opts.Aggregation = ngramstats.DocumentIndex
	}

	job, err := ngramstats.Start(ctx, corpus, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ngrams:", err)
		os.Exit(1)
	}
	if *progress {
		go watch(job)
	}
	result, err := job.Wait()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ngrams:", err)
		os.Exit(1)
	}
	defer result.Release()

	k := *top
	if k == 0 {
		k = int(result.Len())
	}
	ngrams, err := result.TopK(k)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ngrams:", err)
		os.Exit(1)
	}
	fmt.Printf("%d n-grams with cf >= %d (sigma = %d)\n", result.Len(), *tau, *sigma)
	for _, ng := range ngrams {
		if *df {
			fmt.Printf("%10d  df=%-6d %s\n", ng.Frequency, len(ng.Documents), ng.Text)
		} else {
			fmt.Printf("%10d  %s\n", ng.Frequency, ng.Text)
		}
	}
	if *longest > 0 {
		fmt.Printf("\nlongest n-grams:\n")
		lngrams, err := result.Longest(*longest)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ngrams:", err)
			os.Exit(1)
		}
		for _, ng := range lngrams {
			fmt.Printf("%4d words x%d  %s\n", ng.Length(), ng.Frequency, ng.Text)
		}
	}
	if *stats {
		counters := job.Counters()
		fmt.Printf("\nbackend=%s\n", backendLabel(*runner, *workers, *retries))
		fmt.Printf("jobs=%d wallclock=%v bytes=%d shuffle-bytes=%d records=%d worker-procs=%d tasks-retried=%d\n",
			result.Jobs(), result.Wallclock(), result.BytesTransferred(), result.ShuffleBytes(), result.RecordsTransferred(),
			counters[mapreduce.CounterWorkerProcs], counters[mapreduce.CounterTasksRetried])
		if counters[mapreduce.CounterNetWorkers] > 0 {
			fmt.Printf("net-workers=%d leases-expired=%d tasks-speculated=%d shuffle-fetch-bytes=%d\n",
				counters[mapreduce.CounterNetWorkers], counters[mapreduce.CounterLeasesExpired],
				counters[mapreduce.CounterTasksSpeculated], counters[mapreduce.CounterShuffleFetchBytes])
		}
	}
	if *save != "" {
		// Replace lets a rerun refresh an existing index in place; a
		// watching ngramsd (-watch) hot-swaps to it without downtime.
		if err := result.SaveWith(*save, ngramstats.SaveOptions{Replace: true}); err != nil {
			fmt.Fprintln(os.Stderr, "ngrams: save:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ngrams: saved index with %d n-grams to %s\n", result.Len(), *save)
	}
	if *serve != "" {
		if err := serveResult(ctx, result, *save, *serve); err != nil {
			fmt.Fprintln(os.Stderr, "ngrams: serve:", err)
			os.Exit(1)
		}
	}
}

// appendRun is the -append mode: the exact job runs over only the new
// documents and the result links to the existing index as a delta
// generation. τ, σ, selection, and aggregation come from the chain,
// not from flags.
func appendRun(ctx context.Context, dir string, docs iter.Seq2[ngramstats.Document, error], opts ngramstats.AppendOptions) error {
	var batch []ngramstats.Document
	for doc, err := range docs {
		if err != nil {
			return err
		}
		batch = append(batch, doc)
	}
	stats, err := ngramstats.AppendDelta(ctx, dir, batch, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ngrams: appended %d documents (%d n-grams, %d map input records) to %s; chain now %d documents, %d deltas\n",
		stats.Docs, stats.Records, stats.Counters[mapreduce.CounterMapInputRecords], dir, stats.ChainDocs, stats.Deltas)
	return nil
}

// compactRun is the -compact mode: merge the chain's generations into
// one base index, byte-identical to a full rebuild.
func compactRun(dir string) error {
	stats, err := ngramstats.CompactIndex(dir, ngramstats.CompactOptions{})
	if err != nil {
		return err
	}
	if !stats.Compacted {
		fmt.Fprintf(os.Stderr, "ngrams: %s has no deltas to compact\n", dir)
		return nil
	}
	fmt.Fprintf(os.Stderr, "ngrams: compacted %d generations of %s into %d n-grams in %v\n",
		stats.Generations, dir, stats.Records, stats.Wallclock.Round(time.Millisecond))
	return nil
}

// dumpIndex is the -open mode: every n-gram of a saved index or chain
// on stdout in encoded-key order, rendering time-series and document
// aggregates sorted. The same documents produce the same lines whether
// indexed in one batch or incrementally; an uncompacted chain lists
// them in the order of its own identifiers, so its dump equals a
// rebuild's once both are sorted, and byte for byte after compaction —
// what the CI smoke diffs assert.
func dumpIndex(dir string) error {
	x, err := ngramstats.OpenIndex(dir)
	if err != nil {
		return err
	}
	defer x.Close()
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for ng, err := range x.NGrams() {
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%s", ng.Frequency, ng.Text)
		if len(ng.Years) > 0 {
			years := make([]int, 0, len(ng.Years))
			for y := range ng.Years {
				years = append(years, y)
			}
			sort.Ints(years)
			for _, y := range years {
				fmt.Fprintf(w, "\t%d:%d", y, ng.Years[y])
			}
		}
		if len(ng.Documents) > 0 {
			ids := make([]int64, 0, len(ng.Documents))
			for id := range ng.Documents {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				fmt.Fprintf(w, "\t%d:%d", id, ng.Documents[id])
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// sketchRun is the -sketch mode: one streaming pass over the input
// through a count-min sketch, then the tracked heavy hitters with
// their one-sided error bounds. No exact job runs. The sketch's
// counters are fixed in size, but the ingester holds every document for
// a reconciliation this mode never runs, so memory grows with the input.
func sketchRun(docs iter.Seq2[ngramstats.Document, error], eps, delta float64, sigma, top int) error {
	si, err := ngramstats.NewStreamIngester(ngramstats.IngestOptions{
		Epsilon: eps, Delta: delta, MaxLength: sigma, TopK: max(top, 1),
	})
	if err != nil {
		return err
	}
	for doc, err := range docs {
		if err != nil {
			return err
		}
		if err := si.Ingest(doc); err != nil {
			return err
		}
	}
	if si.Docs() == 0 {
		return fmt.Errorf("no input documents")
	}
	opts := si.Options()
	fmt.Printf("approximate heavy hitters over %d documents (eps=%g delta=%g sigma=%d)\n",
		si.Docs(), opts.Epsilon, opts.Delta, opts.MaxLength)
	for _, hh := range si.TopK(top) {
		fmt.Printf("%10d (+<=%d)  %s\n", hh.Estimate, hh.Bound, hh.Phrase)
	}
	return nil
}

// backendLabel resolves the same runner address the run used and
// renders it (scheme plus worker count) for -stats attribution.
func backendLabel(addr string, workers, retries int) string {
	if addr == "" {
		addr = os.Getenv(mapreduce.RunnerEnv)
	}
	r, err := mapreduce.NewRunner(addr, workers, retries)
	if err != nil {
		return addr
	}
	return fmt.Sprint(r)
}

// serveResult exposes the computed result over HTTP: the result is
// persisted as an index (reusing savedDir when -save already wrote
// one, else a temporary directory) and served until interrupted.
func serveResult(ctx context.Context, result *ngramstats.Result, savedDir, addr string) error {
	dir := savedDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "ngrams-serve-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
		if err := result.Save(dir); err != nil {
			return err
		}
	}
	srv, err := serving.NewServer(serving.ServerOptions{
		Indexes: map[string]serving.IndexConfig{"input": {Dir: dir}},
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	ready := make(chan string, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "ngrams: serving %d n-grams on http://%s (/v1/lookup /v1/prefix /v1/topk /v1/query /healthz /metrics); interrupt to stop\n",
			result.Len(), <-ready)
	}()
	return serving.ListenAndServe(ctx, addr, srv, ready)
}

// watch prints progress snapshots to stderr until the job finishes.
func watch(job *ngramstats.Job) {
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-job.Done():
			return
		case <-tick.C:
			p := job.Progress()
			fmt.Fprintf(os.Stderr, "  [%6s] %s: tasks %d/%d, jobs %d/%d, %d records, %d shuffle bytes (%v)\n",
				p.Phase, p.JobName, p.TasksDone, p.TasksTotal, p.JobsDone, p.JobsStarted,
				p.Records, p.ShuffleBytes, p.Elapsed.Round(time.Millisecond))
		}
	}
}

// documents streams the input as a document sequence: one document per
// file path, or one per non-empty stdin line when no paths are given.
// Only one document's raw text is resident at a time; documents take
// ordinal IDs.
func documents(paths []string, web bool) iter.Seq2[ngramstats.Document, error] {
	if len(paths) > 0 {
		return ngramstats.FileDocuments(paths, web)
	}
	return func(yield func(ngramstats.Document, error) bool) {
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 16<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				continue
			}
			if !yield(ngramstats.Document{Text: line, Web: web}, nil) {
				return
			}
		}
		if err := sc.Err(); err != nil {
			yield(ngramstats.Document{}, err)
		}
	}
}
