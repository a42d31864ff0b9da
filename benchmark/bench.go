package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ngramstats"
)

// bench is one run of one workload: it makes the inputs from the seed, drives
// the pipeline through the layers' exported functions, times them from
// outside, checks every answer, and collects samples by metric name.
type bench struct {
	w       workload
	seed    int64
	seconds float64
	tr      *tracer // nil when tracing is off
	dir     string  // scratch directory, inside the checkout
	slots   int     // map and reduce slots of every job: nproc
	clients int     // closed-loop HTTP clients of the read phase: never above nproc

	mu      sync.Mutex
	samples map[string][]float64

	attempted, failed atomic.Int64
	firstFailures     []string // a few, for the report
}

func (b *bench) tracing() bool { return b.tr != nil }

// add records one sample of a metric; the value reported is the best of them
// (see best).
func (b *bench) add(name string, v float64) {
	b.mu.Lock()
	b.samples[name] = append(b.samples[name], v)
	b.mu.Unlock()
}

// set replaces a metric's samples by one value (a count, or a ratio of two
// reported values).
func (b *bench) set(name string, v float64) {
	b.mu.Lock()
	b.samples[name] = []float64{v}
	b.mu.Unlock()
}

// value is what the metric's samples reduce to.
func (b *bench) value(name string) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return best(b.samples[name], higherIsBetter[name])
}

// check counts one verified operation, and one failure when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted.Add(1)
	if ok {
		return
	}
	b.failed.Add(1)
	b.mu.Lock()
	if len(b.firstFailures) < 10 {
		b.firstFailures = append(b.firstFailures, fmt.Sprintf(format, args...))
	}
	b.mu.Unlock()
}

// inputs is everything generated from the seed. The program under test sees
// these documents and the operations drawn over its own answers, never the
// seed.
type inputs struct {
	main     []ngramstats.Document   // batch corpus
	deltas   [][]ngramstats.Document // appended to the main index when it is a chain
	liveBase []ngramstats.Document   // base of the write-phase chain
	batches  [][]ngramstats.Document // write-phase appends, chainDepth to a cycle
	bytes    int64                   // text bytes of main
}

func (b *bench) generate() *inputs {
	w := b.w
	rng := rand.New(rand.NewSource(b.seed))
	nBatches := b.rounds() * chainDepth
	nDeltas := 0
	if w.deltaDocs > 0 {
		nDeltas = chainDepth
	}
	all := genDocs(profiles[w.profile], w.docs+nDeltas*w.deltaDocs+w.liveDocs+nBatches*w.batchDocs, rng)
	take := func(n int) []ngramstats.Document {
		part := all[:n:n]
		all = all[n:]
		return part
	}
	in := &inputs{main: take(w.docs)}
	for i := 0; i < nDeltas; i++ {
		in.deltas = append(in.deltas, take(w.deltaDocs))
	}
	in.liveBase = take(w.liveDocs)
	for i := 0; i < nBatches; i++ {
		in.batches = append(in.batches, take(w.batchDocs))
	}
	for _, d := range in.main {
		in.bytes += int64(len(d.Text))
	}
	return in
}

// options are the job settings every count of the run shares.
func (b *bench) options(method ngramstats.Method, tau int64, sigma int) ngramstats.Options {
	return ngramstats.Options{
		Method: method, MinFrequency: tau, MaxLength: sigma,
		Combiner: true, Reducers: 4, InputSplits: 16,
		MapSlots: b.slots, ReduceSlots: b.slots, TempDir: b.dir,
	}
}

// ingest builds a corpus through the streaming builder, the way text enters
// the system. finish is the time of Finish alone.
func (b *bench) ingest(parent *span, rep int, docs []ngramstats.Document) (c *ngramstats.Corpus, total, finish float64, err error) {
	sp := b.tr.begin(parent, "corpus.ingest", rep)
	defer sp.finish()
	t0 := time.Now()
	cb := ngramstats.NewCorpusBuilder(b.w.name, ngramstats.BuilderOptions{TempDir: b.dir})
	for _, d := range docs {
		if err := cb.Add(d); err != nil {
			cb.Discard()
			return nil, 0, 0, fmt.Errorf("corpus add: %w", err)
		}
	}
	t1 := time.Now()
	fsp := b.tr.begin(sp, "corpus.finish", rep)
	c, err = cb.Finish()
	fsp.finish()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("corpus finish: %w", err)
	}
	return c, time.Since(t0).Seconds(), time.Since(t1).Seconds(), nil
}

// counted is one finished job with what the outside can see of it.
type counted struct {
	res      *ngramstats.Result
	wall     float64          // Start called → Wait returned
	counters map[string]int64 // summed over the method's MapReduce jobs
}

func (b *bench) count(parent *span, name string, rep int, c *ngramstats.Corpus, opts ngramstats.Options) (counted, error) {
	sp := b.tr.begin(parent, name, rep)
	defer sp.finish()
	t0 := time.Now()
	job, err := ngramstats.Start(context.Background(), c, opts)
	if err != nil {
		return counted{}, fmt.Errorf("%s: %w", name, err)
	}
	res, err := job.Wait()
	if err != nil {
		return counted{}, fmt.Errorf("%s: %w", name, err)
	}
	return counted{res: res, wall: time.Since(t0).Seconds(), counters: job.Counters()}, nil
}

// digest identifies a result whatever order it is iterated in: the n-gram
// count and the sum of a hash of every (text, frequency) pair.
type digest struct {
	n   int64
	sum uint64
}

func resultDigest(res *ngramstats.Result) (digest, error) {
	var d digest
	for ng, err := range res.NGrams() {
		if err != nil {
			return d, err
		}
		d.n++
		d.sum += (hashPhrase(ng.Text) ^ uint64(ng.Frequency)) * 1099511628211
	}
	return d, nil
}

// sampleCheck counts the first sampleDocs documents with SUFFIX-σ and holds
// every n-gram against the brute-force counter: the counts must be right, not
// only equal to each other.
func (b *bench) sampleCheck(in *inputs) error {
	docs := in.main[:min(sampleDocs, len(in.main))]
	truth := make(map[string]int64)
	bruteForce(truth, docs, b.w.sigma)
	var want int64
	for _, f := range truth {
		if f >= b.w.tau {
			want++
		}
	}
	c, _, _, err := b.ingest(nil, 0, docs)
	if err != nil {
		return err
	}
	got, err := b.count(nil, "core.count_sample", 0, c, b.options(ngramstats.MethodSuffixSigma, b.w.tau, b.w.sigma))
	if err != nil {
		return err
	}
	defer got.res.Release()
	b.check(got.res.Len() == want, "sample: %d n-grams counted, brute force has %d", got.res.Len(), want)
	for ng, err := range got.res.NGrams() {
		if err != nil {
			return err
		}
		b.check(truth[ng.Text] == ng.Frequency, "sample: %q counted %d, brute force %d", ng.Text, ng.Frequency, truth[ng.Text])
	}
	return nil
}

// pipeline is what the rounds of one run share.
type pipeline struct {
	in *inputs

	// Left by build repetition 0, whose index is the one served.
	dir    string  // the saved main index
	tokens int64   // words of the batch corpus
	digest digest  // of the SUFFIX-σ result; every later repetition must equal it
	suffix counted // that job's counters

	// The method corpus and SUFFIX-σ's result on it under the local runner.
	methodCorpus *ngramstats.Corpus
	methodTokens int64
	methodDigest digest

	served
}

// buildRep is text in → queryable index out, once: ingest, SUFFIX-σ count,
// save, open. Repetition 0 is set-up: it leaves its index for serving and is
// not a sample of anything (it is the one cold build, and setup_s times it).
// Later ones must produce the same result and are removed. In a traced run every
// other repetition records no spans, and the ratio of the two medians is the
// tracing overhead.
func (b *bench) buildRep(p *pipeline, rep int) error {
	tr := b.tr
	if rep%2 == 1 {
		b.tr = nil
	}
	defer func() { b.tr = tr }()
	sp := b.tr.begin(nil, "bench.build", rep)
	defer sp.finish()
	var before, after memCounters
	if b.tracing() {
		before = readMem()
	}
	t0 := time.Now()
	c, ingestS, finishS, err := b.ingest(sp, rep, p.in.main)
	if err != nil {
		return err
	}
	if b.tracing() {
		after = readMem()
	}
	got, err := b.count(sp, "core.count", rep, c, b.options(ngramstats.MethodSuffixSigma, b.w.tau, b.w.sigma))
	if err != nil {
		return err
	}
	defer got.res.Release()
	dir := filepath.Join(b.dir, fmt.Sprintf("main-%d", rep))
	ssp := b.tr.begin(sp, "index.save", rep)
	t1 := time.Now()
	err = got.res.SaveWith(dir, ngramstats.SaveOptions{TempDir: b.dir})
	saveS := time.Since(t1).Seconds()
	ssp.finish()
	if err != nil {
		return fmt.Errorf("save: %w", err)
	}
	osp := b.tr.begin(sp, "index.open", rep)
	t2 := time.Now()
	ix, err := ngramstats.OpenIndex(dir)
	openS := time.Since(t2).Seconds()
	osp.finish()
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	defer ix.Close()
	buildS := time.Since(t0).Seconds()

	csp := b.tr.begin(sp, "bench.check", rep)
	defer csp.finish()
	d, err := resultDigest(got.res)
	if err != nil {
		return err
	}
	b.check(ix.Len() == got.res.Len(), "build %d: index holds %d n-grams, result %d", rep, ix.Len(), got.res.Len())
	tokens := c.Stats().TermOccurrences
	if rep == 0 {
		p.dir, p.tokens, p.digest, p.suffix = dir, tokens, d, got
		p.suffix.res = nil
		return nil
	}
	b.check(d == p.digest, "build %d: result differs from repetition 0", rep)

	b.add("build_s", buildS)
	b.add("count_s", got.wall)
	b.add("corpus.ingest_s", ingestS)
	b.add("corpus.finish_s", finishS)
	b.add("corpus.ingest_mb_per_s", float64(p.in.bytes)/1e6/ingestS)
	b.add("index.save_s", saveS)
	b.add("index.open_s", openS)
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	b.add("index_bytes_per_token", float64(size)/float64(tokens))
	b.add("index.bytes_per_record", float64(size)/float64(max(ix.Len(), 1)))
	b.add("index.shards", float64(ix.Shards()))
	if tr != nil {
		if b.tracing() {
			b.add("trace.build_traced_s", buildS)
			b.add("corpus.allocs_per_doc", float64(after.mallocs-before.mallocs)/float64(len(p.in.main)))
		} else {
			b.add("trace.build_untraced_s", buildS)
		}
	}
	return os.RemoveAll(dir)
}

// dirBytes is the size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// methodRuns names the metric and the span of each job a method round times.
var methodRuns = []struct {
	metric, span string
	method       ngramstats.Method
	runner       string
}{
	{"count_naive_s", "core.count_naive", ngramstats.MethodNaive, ""},
	{"count_apriori_scan_s", "core.count_apriori_scan", ngramstats.MethodAprioriScan, ""},
	{"count_apriori_index_s", "core.count_apriori_index", ngramstats.MethodAprioriIndex, ""},
	{"mapreduce.count_process_s", "core.count_process", ngramstats.MethodSuffixSigma, "process"},
}

// prepareMethods ingests the method corpus and counts it once with SUFFIX-σ on
// the local runner: the result every other method and runner must equal.
func (b *bench) prepareMethods(p *pipeline) error {
	docs := p.in.main[:min(b.w.methodDocs, len(p.in.main))]
	c, _, _, err := b.ingest(nil, 0, docs)
	if err != nil {
		return err
	}
	ref, err := b.count(nil, "core.count_reference", 0, c, b.options(ngramstats.MethodSuffixSigma, b.w.tau, b.w.sigma))
	if err != nil {
		return err
	}
	defer ref.res.Release()
	p.methodCorpus, p.methodTokens = c, c.Stats().TermOccurrences
	if p.methodDigest, err = resultDigest(ref.res); err != nil {
		return err
	}
	if len(docs) == len(p.in.main) {
		b.check(p.methodDigest == p.digest, "methods: the reference count differs from the build's")
	}
	return nil
}

// countMethod counts the method corpus once and checks the result against the
// reference. The counters returned carry the job count and the jobs' summed
// wallclock beside the engine's own.
func (b *bench) countMethod(p *pipeline, parent *span, name string, rep int, opts ngramstats.Options) (counted, error) {
	got, err := b.count(parent, name, rep, p.methodCorpus, opts)
	if err != nil {
		return got, err
	}
	d, err := resultDigest(got.res)
	got.counters["jobs"] = int64(got.res.Jobs())
	got.counters["job_wall_micros"] = got.res.Wallclock().Microseconds()
	got.res.Release()
	got.res = nil
	b.check(err == nil && d == p.methodDigest, "%s: result differs from SUFFIX-σ on the local runner (%v)", name, err)
	return got, err
}

// methodRound counts the method corpus with the other three methods and under
// the process runner, and sums the counters of the round's local jobs (with
// the build's SUFFIX-σ job) into the transfer measures.
func (b *bench) methodRound(p *pipeline, rep int) error {
	sp := b.tr.begin(nil, "bench.methods", rep)
	defer sp.finish()
	round := []counted{p.suffix}
	for _, m := range methodRuns {
		opts := b.options(m.method, b.w.tau, b.w.sigma)
		opts.Execution.Runner = m.runner
		got, err := b.countMethod(p, sp, m.span, rep, opts)
		if err != nil {
			return err
		}
		b.add(m.metric, got.wall)
		if m.runner == "" {
			round = append(round, got)
		} else {
			b.add("mapreduce.worker_procs", float64(got.counters["WORKER_PROCS"]))
			b.add("mapreduce.tasks_retried", float64(got.counters["TASKS_RETRIED"]))
		}
	}
	b.roundCounters(round, p.tokens+3*p.methodTokens)
	return nil
}

// runnerLayer is the traced run's look at the other two ways to execute the
// job: the net runner on the method corpus, and the build's job on one slot.
func (b *bench) runnerLayer(p *pipeline) error {
	opts := b.options(ngramstats.MethodSuffixSigma, b.w.tau, b.w.sigma)
	opts.Execution.Runner = "net://127.0.0.1:0?spawn=" + strconv.Itoa(b.slots)
	got, err := b.countMethod(p, nil, "core.count_net", 0, opts)
	if err != nil {
		return err
	}
	b.add("mapreduce.net_count_s", got.wall)
	b.add("mapreduce.tasks_retried", float64(got.counters["TASKS_RETRIED"]))

	full, _, _, err := b.ingest(nil, 0, p.in.main)
	if err != nil {
		return err
	}
	opts = b.options(ngramstats.MethodSuffixSigma, b.w.tau, b.w.sigma)
	opts.MapSlots, opts.ReduceSlots = 1, 1
	one, err := b.count(nil, "core.count_slots1", 0, full, opts)
	if err != nil {
		return err
	}
	defer one.res.Release()
	d, err := resultDigest(one.res)
	b.check(err == nil && d == p.digest, "slots=1: result differs from the build's (%v)", err)
	b.add("mapreduce.slots1_count_s", one.wall)
	return err
}

// roundCounters turns the counters of one round of local jobs into samples.
// tokens is the input those jobs read, summed.
func (b *bench) roundCounters(round []counted, tokens int64) {
	sum := func(name string) (n float64) {
		for _, r := range round {
			n += float64(r.counters[name])
		}
		return n
	}
	var wall float64
	for _, r := range round[1:] { // the build's job has no driver to wait on
		wall += r.wall
	}
	t := float64(tokens)
	b.add("shuffle_bytes_per_token", sum("SHUFFLE_BYTES_WRITTEN")/t)
	b.add("mapreduce.map_output_records_per_token", sum("MAP_OUTPUT_RECORDS")/t)
	b.add("mapreduce.map_output_bytes_per_token", sum("MAP_OUTPUT_BYTES")/t)
	b.add("mapreduce.map_phase_s", sum("MAP_PHASE_MILLIS")/1e3)
	b.add("mapreduce.reduce_phase_s", sum("REDUCE_PHASE_MILLIS")/1e3)
	b.add("mapreduce.shuffle_s", sum("SHUFFLE_MICROS")/1e6)
	b.add("mapreduce.spilled_records", sum("SPILLED_RECORDS"))
	b.add("mapreduce.sealed_runs", sum("SHUFFLE_SEALED_RUNS"))
	b.add("mapreduce.merge_fan_in", sum("SHUFFLE_MERGE_FAN_IN"))
	b.add("mapreduce.jobs", sum("jobs")+1)
	b.add("mapreduce.driver_gap_s", wall-sum("job_wall_micros")/1e6)
}
