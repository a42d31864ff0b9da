package main

// workload is one set of inputs the pipeline runs on. Every workload runs the
// whole pipeline (text in, batch count, save, open, HTTP reads, appends beside
// reads) and reports every metric; they differ in the text, the job and the
// index served. Sizes were tuned once on a 2-core machine and are frozen:
// changing one changes what every later comparison is made against.
type workload struct {
	name, why string

	profile string // text shape: "nyt" or "cw"
	docs    int    // documents of the batch corpus
	tau     int64  // minimum frequency of the batch job
	sigma   int    // maximum n-gram length of the batch job
	// methodDocs leading documents are what NAIVE, both APRIORI methods and
	// the process and net runners count; their cost per document is several
	// times SUFFIX-σ's, so they get a corpus of their own size.
	methodDocs int
	// deltaDocs > 0 serves the main index as an LSM chain: the batch corpus is
	// its base and four deltas of deltaDocs documents are appended (needs
	// tau = 1).
	deltaDocs int

	// The write phase appends to a chain of its own (τ = 1, σ = liveSigma)
	// served beside the main index: liveDocs in its base, then every round
	// four appends of batchDocs documents and one compaction.
	liveDocs, batchDocs int

	// A run is rounds rounds of: one build repetition, one round of the other
	// methods, readSecs seconds of mixed reads and topKs top-k calls a client, one
	// write cycle. Every metric's samples are so spread over the whole run,
	// and a slow stretch of the machine moves a few of each, not all of one.
	// The number of rounds follows --seconds; the work in a round is fixed.
	rounds   int
	readSecs float64
	topKs    int
}

const (
	liveSigma  = 3   // n-gram length of the write-phase chain
	sampleDocs = 300 // documents of the brute-force sample check
	chainDepth = 4   // deltas on a chain when it is read or compacted
)

var workloads = []workload{
	{
		name:    "batch-suffix",
		why:     "news-like text, 5000 docs, SUFFIX-sigma at tau=5 sigma=5 as one job: map emit, shuffle and the reducer's stacks dominate, the index served is tiny and cached; a read-path change must not show here",
		profile: "nyt", docs: 5000, tau: 5, sigma: 5, methodDocs: 800,
		liveDocs: 600, batchDocs: 10,
		rounds: 8, readSecs: 0.4, topKs: 20,
	},
	{
		name:    "batch-methods",
		why:     "web-like text with spam blocks, 1600 docs, all four methods on the same corpus: NAIVE is shuffle-bound, APRIORI-SCAN chains jobs on a kvstore, APRIORI-INDEX joins postings lists",
		profile: "cw", docs: 1600, tau: 5, sigma: 5, methodDocs: 1600,
		liveDocs: 600, batchDocs: 10,
		rounds: 8, readSecs: 0.4, topKs: 20,
	},
	{
		name:    "serve-plain",
		why:     "news-like text, 4000 docs, tau=3 sigma=5 saved as a plain index that fits the block cache: serving and index do the work; a chain of length one must cost what this costs",
		profile: "nyt", docs: 4000, tau: 3, sigma: 5, methodDocs: 500,
		liveDocs: 600, batchDocs: 10,
		rounds: 8, readSecs: 1.0, topKs: 20,
	},
	{
		name:    "serve-chain",
		why:     "news-like text at tau=1 sigma=3 served as an LSM chain (1500 docs + 4 deltas of 250), default cache: lsm does the work - generations probed per get, the fold, scanning top-k, appends, compaction",
		profile: "nyt", docs: 1500, tau: 1, sigma: 3, methodDocs: 500, deltaDocs: 250,
		liveDocs: 1500, batchDocs: 10,
		rounds: 8, readSecs: 1.0, topKs: 2,
	},
}

// quickScale shrinks a workload for --quick and for the tests.
const quickScale = 0.1

// scaled shrinks the workload's document counts, read slices and top-k calls,
// keeping every part non-empty.
func (w workload) scaled(f float64) workload {
	shrink := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(int(float64(n)*f), 20)
	}
	w.docs, w.methodDocs, w.deltaDocs = shrink(w.docs), shrink(w.methodDocs), shrink(w.deltaDocs)
	w.liveDocs, w.batchDocs = shrink(w.liveDocs), shrink(w.batchDocs)
	w.methodDocs = min(w.methodDocs, w.docs)
	w.readSecs, w.topKs = max(w.readSecs*f, 0.05), min(w.topKs, 2)
	return w
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one metric. BENCHMARK.json declares the same names, units
// and directions; a test holds the two together.
type metricDef struct{ name, unit string }

// higherIsBetter names the metrics whose direction is up; every other is down.
var higherIsBetter = map[string]bool{
	"query_qps":                 true,
	"corpus.ingest_mb_per_s":    true,
	"mapreduce.slot_speedup":    true,
	"index.cache_hit_ratio":     true,
	"lsm.append_docs_per_s":     true,
	"lsm.compact_records_per_s": true,
}

// beside are the per-layer metrics a run with tracing off prints beside the
// end-to-end ones: the two above, and the cache hit ratio the read latencies
// were measured under.
var beside = []metricDef{
	{"serving.lookup_p99_us", "us"},
	{"mapreduce.count_process_s", "s"},
	{"index.cache_hit_ratio", "ratio"},
}

// endToEnd are what a user of the system sees. Every one is reported on every
// workload from a run with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"build_s", "s"},
	{"count_s", "s"},
	{"count_naive_s", "s"},
	{"count_apriori_scan_s", "s"},
	{"count_apriori_index_s", "s"},
	{"shuffle_bytes_per_token", "B/token"},
	{"index_bytes_per_token", "B/token"},
	{"lookup_p50_us", "us"},
	{"prefix_p50_us", "us"},
	{"topk_p50_us", "us"},
	{"query_qps", "ops/s"},
	{"append_visible_s", "s"},
	{"compact_s", "s"},
}

// perLayer attribute a change to a layer. They come from the traced run and
// carry no bound.
//
// Two of them are what a user sees and were meant to be end-to-end: the tail of
// lookup latency and the job under the process runner. On a shared machine the
// first swings two- to five-fold and the second by a third from one run to the
// next, whatever the run is reduced to, and no bound a driver accepts (0.25 at
// most) holds them; they are reported, in every run, and gate nothing.
var perLayer = []metricDef{
	{"corpus.ingest_s", "s"},
	{"corpus.finish_s", "s"},
	{"corpus.ingest_mb_per_s", "MB/s"},
	{"corpus.allocs_per_doc", "count"},
	{"mapreduce.map_phase_s", "s"},
	{"mapreduce.reduce_phase_s", "s"},
	{"mapreduce.shuffle_s", "s"},
	{"mapreduce.driver_gap_s", "s"},
	{"mapreduce.jobs", "count"},
	{"mapreduce.map_output_records_per_token", "rec/token"},
	{"mapreduce.map_output_bytes_per_token", "B/token"},
	{"mapreduce.spilled_records", "count"},
	{"mapreduce.sealed_runs", "count"},
	{"mapreduce.merge_fan_in", "count"},
	{"mapreduce.tasks_retried", "count"},
	{"mapreduce.worker_procs", "count"},
	{"mapreduce.count_process_s", "s"},
	{"mapreduce.slots1_count_s", "s"},
	{"mapreduce.slot_speedup", "ratio"},
	{"mapreduce.net_count_s", "s"},
	{"extsort.sort_inmem_ns_per_rec", "ns"},
	{"extsort.sort_spill_ns_per_rec", "ns"},
	{"extsort.merge16_ns_per_rec", "ns"},
	{"extsort.encoded_bytes_per_rec", "B"},
	{"kvstore.put_ns", "ns"},
	{"kvstore.get_ns", "ns"},
	{"postings.join_ns_per_posting", "ns"},
	{"index.save_s", "s"},
	{"index.open_s", "s"},
	{"index.bytes_per_record", "B"},
	{"index.shards", "count"},
	{"index.lookup_hot_us", "us"},
	{"index.lookup_cold_us", "us"},
	{"index.lookup_allocs", "count"},
	{"index.prefix_us", "us"},
	{"index.topk_stored_us", "us"},
	{"index.topk_scan_us", "us"},
	{"index.cache_hit_ratio", "ratio"},
	{"lsm.view_lookup_us", "us"},
	{"lsm.view_prefix_us", "us"},
	{"lsm.view_topk_us", "us"},
	{"lsm.lookup_amplification", "ratio"},
	{"lsm.topk_amplification", "ratio"},
	{"lsm.space_amplification", "ratio"},
	{"lsm.append_s", "s"},
	{"lsm.append_docs_per_s", "docs/s"},
	{"lsm.compact_records_per_s", "rec/s"},
	{"lsm.compact_bytes_written", "B"},
	{"lsm.lookup_during_write_p99_us", "us"},
	{"serving.http_overhead_us", "us"},
	{"serving.server_lookup_mean_us", "us"},
	{"serving.lookup_p99_us", "us"},
	{"serving.batch64_us_per_key", "us"},
	{"serving.reload_s", "s"},
	{"serving.shed_total", "count"},
	{"serving.errors_total", "count"},
	{"sketch.ingest_us_per_doc", "us"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.cpu_s", "s"},
	{"proc.alloc_mb", "MB"},
	{"proc.gc_pause_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}
