package ngramstats

// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section VII) at benchmark scale. One benchmark per
// table/figure, with sub-benchmarks per dataset/method/parameter; the
// full parameter sweeps at larger scale live in cmd/experiments.
//
// Reported custom metrics mirror the paper's measures:
// records/op = MAP_OUTPUT_RECORDS, MBtransfer/op = MAP_OUTPUT_BYTES,
// ngrams/op = output size.
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"ngramstats/internal/core"
	"ngramstats/internal/corpus"
	"ngramstats/internal/lsm"
	"ngramstats/internal/sequence"
	"ngramstats/internal/stats"
	"ngramstats/internal/synth"
)

var (
	benchOnce sync.Once
	benchNYT  *corpus.Collection
	benchCW   *corpus.Collection
)

// benchCorpora generates the benchmark-scale corpora once.
func benchCorpora() (*corpus.Collection, *corpus.Collection) {
	benchOnce.Do(func() {
		benchNYT = synth.Generate(synth.NYTLike(250, 42))
		benchCW = synth.Generate(synth.CWLike(500, 43))
	})
	return benchNYT, benchCW
}

func benchParams(b *testing.B, tau int64, sigma int) core.Params {
	b.Helper()
	return core.Params{
		Tau:         tau,
		Sigma:       sigma,
		NumReducers: 4,
		InputSplits: 8,
		TempDir:     b.TempDir(),
		Combiner:    true,
	}
}

// runMethod executes one method run and reports the paper's measures
// as custom benchmark metrics.
func runMethod(b *testing.B, col *corpus.Collection, m core.Method, p core.Params) {
	b.Helper()
	var records, bytes, shuffle, output int64
	for i := 0; i < b.N; i++ {
		run, err := core.Compute(context.Background(), col, m, p)
		if err != nil {
			b.Fatal(err)
		}
		records = run.RecordsTransferred()
		bytes = run.BytesTransferred()
		shuffle = run.ShuffleBytesWritten()
		output = run.Result.Len()
		if err := run.Result.Release(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records), "records/op")
	b.ReportMetric(float64(bytes)/(1<<20), "MBtransfer/op")
	b.ReportMetric(float64(shuffle)/(1<<20), "shuffleMB/op")
	b.ReportMetric(float64(output), "ngrams/op")
}

// BenchmarkTable1DatasetCharacteristics measures computing the Table I
// corpus statistics.
func BenchmarkTable1DatasetCharacteristics(b *testing.B) {
	nyt, cw := benchCorpora()
	for _, col := range []*corpus.Collection{nyt, cw} {
		b.Run(col.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := col.Stats()
				if st.Documents == 0 {
					b.Fatal("empty corpus")
				}
			}
		})
	}
}

// BenchmarkFig2OutputCharacteristics measures the full τ=5, σ=∞
// computation plus log-bucket histogramming of Figure 2.
func BenchmarkFig2OutputCharacteristics(b *testing.B) {
	nyt, cw := benchCorpora()
	for _, col := range []*corpus.Collection{nyt, cw} {
		b.Run(col.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := core.Compute(context.Background(), col, core.SuffixSigma,
					benchParams(b, 5, core.Unbounded))
				if err != nil {
					b.Fatal(err)
				}
				buckets := stats.NewBucket2D()
				err = run.Result.Each(func(s sequence.Seq, cf int64) error {
					buckets.Add(len(s), cf)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if buckets.Total() == 0 {
					b.Fatal("no output")
				}
				if err := run.Result.Release(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3UseCases measures the two Figure 3 use cases for every
// method on both corpora.
func BenchmarkFig3UseCases(b *testing.B) {
	nyt, cw := benchCorpora()
	cases := []struct {
		name  string
		col   *corpus.Collection
		tau   int64
		sigma int
	}{
		{"LanguageModel/NYT", nyt, 2, 5},
		{"LanguageModel/CW", cw, 3, 5},
		{"Analytics/NYT", nyt, 3, 100},
		{"Analytics/CW", cw, 5, 100},
	}
	for _, c := range cases {
		for _, m := range core.Methods() {
			b.Run(fmt.Sprintf("%s/%s", c.name, m), func(b *testing.B) {
				runMethod(b, c.col, m, benchParams(b, c.tau, c.sigma))
			})
		}
	}
}

// BenchmarkFig4VaryMinFrequency measures the τ sweep of Figure 4 at
// σ=5 on the NYT-like corpus.
func BenchmarkFig4VaryMinFrequency(b *testing.B) {
	nyt, _ := benchCorpora()
	for _, tau := range []int64{2, 10, 50} {
		for _, m := range core.Methods() {
			b.Run(fmt.Sprintf("tau=%d/%s", tau, m), func(b *testing.B) {
				runMethod(b, nyt, m, benchParams(b, tau, 5))
			})
		}
	}
}

// BenchmarkFig5VaryMaxLength measures the σ sweep of Figure 5 on the
// NYT-like corpus.
func BenchmarkFig5VaryMaxLength(b *testing.B) {
	nyt, _ := benchCorpora()
	for _, sigma := range []int{5, 10, 50, 100} {
		for _, m := range core.Methods() {
			b.Run(fmt.Sprintf("sigma=%d/%s", sigma, m), func(b *testing.B) {
				runMethod(b, nyt, m, benchParams(b, 3, sigma))
			})
		}
	}
}

// BenchmarkFig6ScalingDatasets measures SUFFIX-σ on 25–100 % samples
// (Figure 6).
func BenchmarkFig6ScalingDatasets(b *testing.B) {
	nyt, _ := benchCorpora()
	for _, frac := range []int{25, 50, 75, 100} {
		sample := nyt.Sample(float64(frac)/100, int64(frac))
		b.Run(fmt.Sprintf("fraction=%d%%", frac), func(b *testing.B) {
			runMethod(b, sample, core.SuffixSigma, benchParams(b, 3, 5))
		})
	}
}

// BenchmarkFig7ScalingSlots measures SUFFIX-σ under 1–8 map/reduce
// slots (Figure 7).
func BenchmarkFig7ScalingSlots(b *testing.B) {
	nyt, _ := benchCorpora()
	for _, slots := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			p := benchParams(b, 3, 5)
			p.MapSlots = slots
			p.ReduceSlots = slots
			runMethod(b, nyt, core.SuffixSigma, p)
		})
	}
}

// BenchmarkAprioriIndexJob measures one APRIORI-INDEX count of the
// web-like corpus at τ=5, σ=5: the posting-list scan jobs (k ≤ K) and
// the join jobs after them. Run it with -benchmem.
func BenchmarkAprioriIndexJob(b *testing.B) {
	_, cw := benchCorpora()
	runMethod(b, cw, core.AprioriIndex, benchParams(b, 5, 5))
}

// BenchmarkAblationStackVsHashmap compares the reverse-lexicographic
// two-stack reducer against the in-memory hashmap strawman of
// Section IV at the analytics setting.
func BenchmarkAblationStackVsHashmap(b *testing.B) {
	nyt, _ := benchCorpora()
	for _, m := range []core.Method{core.SuffixSigma, core.SuffixSigmaNaive} {
		b.Run(string(m), func(b *testing.B) {
			runMethod(b, nyt, m, benchParams(b, 3, 100))
		})
	}
}

// BenchmarkAblationCombiner measures NAÏVE with and without map-side
// local aggregation (Section V).
func BenchmarkAblationCombiner(b *testing.B) {
	nyt, _ := benchCorpora()
	for _, combine := range []bool{true, false} {
		b.Run(fmt.Sprintf("combiner=%v", combine), func(b *testing.B) {
			p := benchParams(b, 3, 5)
			p.Combiner = combine
			runMethod(b, nyt, core.Naive, p)
		})
	}
}

// BenchmarkAblationDocSplit measures SUFFIX-σ with and without the
// document-split pre-processing at large σ (Section V).
func BenchmarkAblationDocSplit(b *testing.B) {
	nyt, _ := benchCorpora()
	for _, split := range []bool{false, true} {
		b.Run(fmt.Sprintf("docsplit=%v", split), func(b *testing.B) {
			p := benchParams(b, 5, 100)
			p.DocSplit = split
			runMethod(b, nyt, core.SuffixSigma, p)
		})
	}
}

// fig7Result computes the fig7 SUFFIX-σ workload (τ=3, σ=5 on the
// NYT-like corpus) once for the consumption benchmarks.
func fig7Result(b *testing.B) *Result {
	b.Helper()
	nyt, _ := benchCorpora()
	c := &Corpus{col: nyt}
	res, err := Count(context.Background(), c, Options{
		MinFrequency: 3, MaxLength: 5, Combiner: true,
		Reducers: 4, InputSplits: 8, TempDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// allTopK is the pre-redesign TopK: decode everything, sort, truncate.
// It serves as the allocation baseline for BenchmarkTopKDecodes.
func allTopK(r *Result, k int) ([]NGram, error) {
	all, err := r.All()
	if err != nil {
		return nil, err
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Frequency != all[j].Frequency {
			return all[i].Frequency > all[j].Frequency
		}
		if len(all[i].IDs) != len(all[j].IDs) {
			return len(all[i].IDs) > len(all[j].IDs)
		}
		return all[i].Text < all[j].Text
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k], nil
}

// BenchmarkTopKDecodes verifies the consumption redesign's acceptance
// criterion on the fig7 SUFFIX-σ workload: the bounded-heap TopK(10)
// decodes O(k) NGrams (allocs/op stays flat in the result size), while
// the All-based baseline decodes every reported n-gram. Compare
// allocs/op between the two sub-benchmarks.
func BenchmarkTopKDecodes(b *testing.B) {
	res := fig7Result(b)
	defer res.Release()
	b.Logf("result size: %d n-grams", res.Len())

	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			top, err := res.TopK(10)
			if err != nil || len(top) != 10 {
				b.Fatalf("TopK: %v (%d)", err, len(top))
			}
		}
	})
	b.Run("all-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			top, err := allTopK(res, 10)
			if err != nil || len(top) != 10 {
				b.Fatalf("allTopK: %v (%d)", err, len(top))
			}
		}
	})
}

// BenchmarkLookupEarlyExit measures Lookup's first-match termination
// against the pre-redesign behaviour of scanning every remaining
// n-gram after the match.
func BenchmarkLookupEarlyExit(b *testing.B) {
	res := fig7Result(b)
	defer res.Release()
	top, err := res.TopK(1)
	if err != nil || len(top) != 1 {
		b.Fatalf("TopK: %v", err)
	}
	phrase := top[0].Text

	b.Run("early-exit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := res.Lookup(phrase); err != nil || !ok {
				b.Fatalf("Lookup: %v %v", ok, err)
			}
		}
	})
	b.Run("scan-all-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := scanAllLookup(res, phrase); err != nil || !ok {
				b.Fatalf("scanAllLookup: %v %v", ok, err)
			}
		}
	})
}

// scanAllLookup is the pre-redesign Lookup: it keeps scanning (and
// decoding) every n-gram after the match is found.
func scanAllLookup(r *Result, phrase string) (NGram, bool, error) {
	words := strings.Fields(phrase)
	ids := make(sequence.Seq, len(words))
	for i, w := range words {
		id, ok := r.corpus.TermID(strings.ToLower(w))
		if !ok {
			return NGram{}, false, nil
		}
		ids[i] = id
	}
	var found NGram
	ok := false
	err := r.Each(func(ng NGram) error {
		if !ok && sequence.Equal(sequence.Seq(ng.IDs), ids) {
			found = ng
			ok = true
		}
		return nil
	})
	return found, ok, err
}

// BenchmarkPublicAPI measures the end-to-end facade path (corpus from
// text, count, top-k) a downstream user exercises.
func BenchmarkPublicAPI(b *testing.B) {
	docs := make([]string, 50)
	for i := range docs {
		docs[i] = "the quick brown fox jumps over the lazy dog. the quick brown fox sleeps."
	}
	c, err := FromText("api", docs, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Count(context.Background(), c, Options{
			MinFrequency: 5, MaxLength: 4, TempDir: b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.TopK(10); err != nil {
			b.Fatal(err)
		}
		if err := res.Release(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusBuild measures the ingestion hot path — sentence
// splitting, tokenization, and integer encoding fused into the
// zero-allocation scanner — end to end through the public
// CorpusBuilder. Bytes/op is raw input text consumed.
func BenchmarkCorpusBuild(b *testing.B) {
	// Deterministic Zipf-flavored text: word ranks cycle through a
	// quadratic residue so frequent and rare words interleave, with
	// sentence breaks and abbreviation-adjacent forms mixed in to
	// exercise the scanner's boundary rules.
	docs := make([]string, 200)
	var total int64
	for d := range docs {
		var sb strings.Builder
		for s := 0; s < 6; s++ {
			n := 5 + (d+s)%17
			for w := 0; w < n; w++ {
				if w > 0 {
					sb.WriteByte(' ')
				}
				r := (d*131 + s*17 + w*w) % 4000
				sb.WriteString(synth.Word(r))
			}
			sb.WriteString(". ")
		}
		sb.WriteString("Dr. Smith paid $3.50 e.g. the fox didn't mind.\n")
		docs[d] = sb.String()
		total += int64(len(docs[d]))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder := NewCorpusBuilder("bench", BuilderOptions{})
		for _, text := range docs {
			if err := builder.Add(Document{Text: text}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := builder.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// fig7Index persists the fig7 SUFFIX-σ result as an on-disk index (4
// shards, 128 precomputed top records) and opens it for querying.
func fig7Index(b *testing.B) *Index {
	b.Helper()
	res := fig7Result(b)
	defer res.Release()
	dir := filepath.Join(b.TempDir(), "idx")
	if err := res.SaveWith(dir, SaveOptions{Shards: 4, TopDepth: 128}); err != nil {
		b.Fatal(err)
	}
	ix, err := OpenIndex(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ix.Close() })
	return ix
}

// BenchmarkIndexLookup measures the serving-path point lookup over a
// saved index: shard binary search, block binary search, and the
// decoded-block cache — the hot path of one ngramsd /v1/lookup request.
// The phrase mix is 64 frequent phrases plus one guaranteed miss.
func BenchmarkIndexLookup(b *testing.B) {
	ix := fig7Index(b)
	top, err := ix.TopK(64)
	if err != nil || len(top) == 0 {
		b.Fatalf("TopK: %v (%d)", err, len(top))
	}
	phrases := make([]string, 0, len(top)+1)
	for _, ng := range top {
		phrases = append(phrases, ng.Text)
	}
	phrases = append(phrases, "xylophone zzyzx")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := phrases[i%len(phrases)]
		_, ok, err := ix.Lookup(p)
		if err != nil {
			b.Fatal(err)
		}
		if !ok && p != "xylophone zzyzx" {
			b.Fatalf("Lookup(%q) missed", p)
		}
	}
	b.StopTimer()
	if hits, misses := ix.CacheStats(); hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "cachehit/op")
	}
}

// BenchmarkIndexTopK measures both TopK serving paths of a saved
// index: "stored" answers from the precomputed top records without
// touching the shards; "scan" exceeds the stored depth and falls back
// to the full streaming selection.
func BenchmarkIndexTopK(b *testing.B) {
	ix := fig7Index(b)
	b.Run("stored", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			top, err := ix.TopK(100)
			if err != nil || len(top) != 100 {
				b.Fatalf("TopK(100): %v (%d)", err, len(top))
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			top, err := ix.TopK(500)
			if err != nil || len(top) != 500 {
				b.Fatalf("TopK(500): %v (%d)", err, len(top))
			}
		}
	})
}

// lsmBenchBatches generates five deterministic document batches over a
// shared skewed vocabulary, so delta generations genuinely overlap the
// base's key space (the case merge-on-read has to fold).
func lsmBenchBatches() [][]Document { return lsmBatches(80) }

// lsmBatches is lsmBenchBatches at a chosen batch size.
func lsmBatches(docsPerBatch int) [][]Document {
	rng := rand.New(rand.NewSource(43))
	vocab := make([]string, 300)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%03d", i)
	}
	batches := make([][]Document, 5)
	for bi := range batches {
		docs := make([]Document, docsPerBatch)
		for d := range docs {
			var sb strings.Builder
			for s := 0; s < 5; s++ {
				for w := 0; w < 8; w++ {
					// Squaring skews toward low identifiers: frequent terms
					// shared across every batch.
					f := rng.Float64()
					sb.WriteString(vocab[int(f*f*float64(len(vocab)))])
					sb.WriteByte(' ')
				}
				sb.WriteString(". ")
			}
			docs[d] = Document{Text: sb.String(), Year: 2000 + bi}
		}
		batches[bi] = docs
	}
	return batches
}

// saveDocuments counts docs under the chain invariants (τ = 1, σ = 4,
// no selection) and saves the result at dir with Save's defaults.
func saveDocuments(tb testing.TB, docs []Document, dir string) {
	tb.Helper()
	c, err := FromDocuments(context.Background(), "lsm-bench",
		func(yield func(Document, error) bool) {
			for _, d := range docs {
				if !yield(d, nil) {
					return
				}
			}
		}, BuilderOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := Count(context.Background(), c, Options{
		MinFrequency: 1, MaxLength: 4, Combiner: true, TempDir: tb.TempDir(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer res.Release()
	if err := res.SaveWith(dir, SaveOptions{TempDir: tb.TempDir()}); err != nil {
		tb.Fatal(err)
	}
}

// lsmBenchChain builds the benchmark chain — one base plus 4 delta
// generations, τ = 1 (the appendable invariant) — and returns its
// directory.
func lsmBenchChain(tb testing.TB) string { return lsmChain(tb, lsmBenchBatches()) }

// lsmChain saves batches[0] as a base and appends the rest as deltas.
func lsmChain(tb testing.TB, batches [][]Document) string {
	tb.Helper()
	dir := filepath.Join(tb.TempDir(), "chain")
	saveDocuments(tb, batches[0], dir)
	for _, batch := range batches[1:] {
		if _, err := AppendDelta(context.Background(), dir, batch, AppendOptions{
			Count: Options{Combiner: true, TempDir: tb.TempDir()},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return dir
}

// BenchmarkViewLookup measures the merge-on-read point lookup across a
// chain of 1 base + 4 deltas: one block probe per generation plus the
// cross-generation aggregate fold — the read cost compaction buys
// back (compare BenchmarkIndexLookup). The phrase mix is 64 frequent
// phrases plus one guaranteed miss, as in BenchmarkIndexLookup.
func BenchmarkViewLookup(b *testing.B) {
	dir := lsmBenchChain(b)
	ix, err := OpenIndex(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ix.Close() })
	top, err := ix.TopK(64)
	if err != nil || len(top) == 0 {
		b.Fatalf("TopK: %v (%d)", err, len(top))
	}
	phrases := make([]string, 0, len(top)+1)
	for _, ng := range top {
		phrases = append(phrases, ng.Text)
	}
	phrases = append(phrases, "xylophone zzyzx")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := phrases[i%len(phrases)]
		_, ok, err := ix.Lookup(p)
		if err != nil {
			b.Fatal(err)
		}
		if !ok && p != "xylophone zzyzx" {
			b.Fatalf("Lookup(%q) missed", p)
		}
	}
}

// BenchmarkViewTopK measures the TopK answers of the same chain:
// "merged" (k = 100) is what a served chain pays per call once its view
// has proven the list, a prefix of the memo; "uncached" (k = 100, the
// memo dropped before every call) is the threshold merge over the
// generations' stored top records plus point gets that the first call
// on each reopened view pays; "scan" (k one past the stored depth,
// which those lists cannot prove) pays the merge's wasted walk and then
// the full fold of every generation — what every chain TopK cost before
// deltas stored their top records.
func BenchmarkViewTopK(b *testing.B) {
	ix, err := OpenIndex(lsmBenchChain(b))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ix.Close() })
	for _, bc := range []struct {
		name     string
		k        int
		dropMemo bool
	}{{"merged", 100, false}, {"uncached", 100, true}, {"scan", defaultTopDepth + 1, false}} {
		b.Run(bc.name, func(b *testing.B) {
			m0, s0 := ix.TopKStats()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bc.dropMemo {
					ix.v.DropTopMemo()
				}
				top, err := ix.TopK(bc.k)
				if err != nil || len(top) != bc.k {
					b.Fatalf("TopK(%d): %v (%d)", bc.k, err, len(top))
				}
			}
			b.StopTimer()
			m1, s1 := ix.TopKStats()
			if merged := bc.name != "scan"; (m1 > m0) != merged || (s1 > s0) == merged {
				b.Fatalf("TopK(%d) took the wrong path: %d merged, %d scans", bc.k, m1-m0, s1-s0)
			}
		})
	}
}

// lsmPrefixChain is lsmBenchChain at five times the documents, so that
// its most frequent word heads a range of more than 5 000 merged
// records (lsmBenchChain's largest range holds ~1 500).
func lsmPrefixChain(tb testing.TB) string { return lsmChain(tb, lsmBatches(400)) }

// lsmPrefixCases are the Prefix queries measured and tested on
// lsmPrefixChain: a range of tens of records and one of thousands.
var lsmPrefixCases = []struct {
	name, phrase string
	minRange     int
}{{"short", "w001 w002", 20}, {"long", "w000", 5000}}

// benchPrefix measures Prefix(phrase, 20) on ix for lsmPrefixCases.
func benchPrefix(b *testing.B, ix *Index) {
	for _, bc := range lsmPrefixCases {
		b.Run(bc.name, func(b *testing.B) {
			if all, err := ix.Prefix(bc.phrase, 0); err != nil || len(all) < bc.minRange {
				b.Fatalf("Prefix(%q, 0): %v (%d records, want ≥ %d)", bc.phrase, err, len(all), bc.minRange)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := ix.Prefix(bc.phrase, 20)
				if err != nil || len(out) != 20 {
					b.Fatalf("Prefix(%q, 20): %v (%d)", bc.phrase, err, len(out))
				}
			}
		})
	}
}

// BenchmarkViewPrefix measures a limit-20 prefix query on a chain of 1
// base + 4 deltas: one cursor per generation over cached blocks,
// merged in the chain's key order and stopped at the 20th record.
// "short" is a range of tens of records, "long" one of thousands; the
// walk costs the same for both.
func BenchmarkViewPrefix(b *testing.B) {
	ix, err := OpenIndex(lsmPrefixChain(b))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ix.Close() })
	benchPrefix(b, ix)
}

// BenchmarkIndexPrefix is BenchmarkViewPrefix on the plain index that
// compaction leaves as the chain's base: one cursor, which stops at the
// 20th record whatever the range.
func BenchmarkIndexPrefix(b *testing.B) {
	dir := lsmPrefixChain(b)
	if _, err := CompactIndex(dir, CompactOptions{TempDir: b.TempDir()}); err != nil {
		b.Fatal(err)
	}
	man, err := lsm.ReadManifest(dir)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := OpenIndex(filepath.Join(dir, man.Base.Dir))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ix.Close() })
	benchPrefix(b, ix)
}

// BenchmarkCompact measures the compaction merge itself: one
// streaming pass over all 5 generations' sorted runs into a fresh
// base. Each iteration compacts a pristine copy of the chain.
func BenchmarkCompact(b *testing.B) {
	pristine := lsmBenchChain(b)
	scratch := b.TempDir()
	var records int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(scratch, fmt.Sprintf("run-%d", i))
		if err := os.CopyFS(dir, os.DirFS(pristine)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		stats, err := CompactIndex(dir, CompactOptions{TempDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		if !stats.Compacted {
			b.Fatal("nothing compacted")
		}
		records = stats.Records
		b.StopTimer()
		os.RemoveAll(dir)
		b.StartTimer()
	}
	b.ReportMetric(float64(records), "records/op")
}

// lsmVocabBatches generates the documents of the append benchmarks: a
// 600-document base and five 10-document batches of Zipf text over a
// vocabulary of more than 20 000 distinct terms — the serve-chain
// write phase's shape. lsmBatches draws on 300 terms, which makes the
// per-append dictionary work these benchmarks measure vanish.
func lsmVocabBatches() [][]Document {
	cfg := synth.CWLike(650, 7)
	cfg.Patterns, cfg.ZipfS = nil, 0.7
	col := synth.Generate(cfg)
	docs := make([]Document, len(col.Docs))
	for i, d := range col.Docs {
		var sb strings.Builder
		for _, s := range d.Sentences {
			sb.WriteString(col.Dict.Format(s))
			sb.WriteString(". ")
		}
		docs[i] = Document{Text: sb.String(), Year: d.Year}
	}
	batches := [][]Document{docs[:600]}
	for lo := 600; lo < len(docs); lo += 10 {
		batches = append(batches, docs[lo:lo+10])
	}
	return batches
}

// lsmVocabChain builds lsmVocabBatches' base plus four deltas and
// returns the chain's directory with the batch the next append takes.
func lsmVocabChain(tb testing.TB) (dir string, next []Document) {
	tb.Helper()
	batches := lsmVocabBatches()
	dir = lsmChain(tb, batches[:5])
	ix, err := OpenIndex(dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer ix.Close()
	if v := ix.v.Dictionary().Len(); v < 20000 {
		tb.Fatalf("the chain's vocabulary is %d terms, want ≥ 20000", v)
	}
	return dir, batches[5]
}

// copyChain copies a pristine chain into a fresh directory under
// scratch.
func copyChain(b *testing.B, pristine, scratch, name string) string {
	b.Helper()
	dir := filepath.Join(scratch, name)
	if err := os.CopyFS(dir, os.DirFS(pristine)); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkAppendVisible measures what makes an append visible to a
// reader that already holds the chain open: a 10-document AppendDelta
// onto a chain of 1 base + 4 deltas, a Reopen of the open handle, and
// one Lookup through the new one — the library half of the pipeline
// benchmark's append_visible_s. Each iteration works on a pristine
// copy of the chain.
func BenchmarkAppendVisible(b *testing.B) {
	pristine, next := lsmVocabChain(b)
	scratch := b.TempDir()
	probe := strings.Fields(next[0].Text)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := copyChain(b, pristine, scratch, fmt.Sprintf("run-%d", i))
		old, err := OpenIndex(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := AppendDelta(context.Background(), dir, next, AppendOptions{
			Count: Options{Combiner: true, TempDir: scratch},
		}); err != nil {
			b.Fatal(err)
		}
		cur, err := old.Reopen()
		if err != nil {
			b.Fatal(err)
		}
		if _, ok, err := cur.Lookup(probe); err != nil || !ok {
			b.Fatalf("Lookup(%q) after the append: found=%v, %v", probe, ok, err)
		}
		b.StopTimer()
		cur.Close()
		old.Close()
		os.RemoveAll(dir)
		b.StartTimer()
	}
}

// BenchmarkChainReopen measures Index.Reopen on a handle holding 1 base
// + 4 deltas over the 20 000-term vocabulary, by what the manifest did
// since: nothing (every generation shared), one append (one delta
// opened and its dictionary parsed, five generations shared), or a
// compaction (one base opened, nothing shared).
func BenchmarkChainReopen(b *testing.B) {
	pristine, next := lsmVocabChain(b)
	for _, bc := range []struct {
		name   string
		mutate func(dir string) error
	}{
		{"unchanged", func(string) error { return nil }},
		{"one-new-delta", func(dir string) error {
			_, err := AppendDelta(context.Background(), dir, next, AppendOptions{Count: Options{Combiner: true, TempDir: b.TempDir()}})
			return err
		}},
		{"after-compaction", func(dir string) error {
			_, err := CompactIndex(dir, CompactOptions{TempDir: b.TempDir()})
			return err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dir := copyChain(b, pristine, b.TempDir(), "chain")
			old, err := OpenIndex(dir)
			if err != nil {
				b.Fatal(err)
			}
			defer old.Close()
			if err := bc.mutate(dir); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur, err := old.Reopen()
				if err != nil {
					b.Fatal(err)
				}
				cur.Close()
			}
		})
	}
}
