package ngramstats

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ngramstats/internal/lsm"
	"ngramstats/internal/mapreduce"
)

// The incremental-maintenance fixture: the persist-test corpus split
// into a base batch and two append batches, so base + deltas together
// cover exactly the documents of saveTestCorpus.
var (
	lsmDocs = []string{
		"the quick brown fox jumps over the lazy dog. the quick brown fox returns.",
		"a quick brown fox is not a lazy dog. the dog sleeps.",
		"the quick brown fox jumps over the lazy dog again and again.",
		"lazy dogs sleep. quick foxes jump. the quick brown fox jumps.",
		"to be or not to be. to be or not to be. that is the question.",
	}
	lsmYears = []int{1999, 2001, 2001, 2004, 2007}
)

// lsmBatch packages lsmDocs[lo:hi] as append input (zero IDs: the
// chain assigns the ordinals a full rebuild would).
func lsmBatch(lo, hi int) []Document {
	docs := make([]Document, 0, hi-lo)
	for i := lo; i < hi; i++ {
		docs = append(docs, Document{Text: lsmDocs[i], Year: lsmYears[i]})
	}
	return docs
}

// saveFullIndex counts lsmDocs[:n] under the chain invariants (τ = 1,
// no selection) and saves the result with Save's default layout — the
// same policy CompactIndex reproduces.
func saveFullIndex(t *testing.T, agg Aggregation, n int, dir string) {
	t.Helper()
	saveFullIndexWith(t, agg, n, dir, SaveOptions{})
}

// saveFullIndexWith is saveFullIndex under explicit save options.
func saveFullIndexWith(t *testing.T, agg Aggregation, n int, dir string, opts SaveOptions) {
	t.Helper()
	c, err := FromText("persist-test", lsmDocs[:n], lsmYears[:n])
	if err != nil {
		t.Fatal(err)
	}
	res, err := Count(context.Background(), c, Options{
		MinFrequency: 1, MaxLength: 5, Aggregation: agg, TempDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	opts.TempDir = t.TempDir()
	if err := res.SaveWith(dir, opts); err != nil {
		t.Fatal(err)
	}
}

// buildChain saves a base over lsmDocs[:2] and appends lsmDocs[2:3]
// and lsmDocs[3:5] as two delta generations, asserting each append's
// MAP_INPUT_RECORDS shows only the new documents were processed. A
// handle opened on the base follows the chain by Reopen — plain index
// to chain at the first append, sharing generations at the second — and
// after each append answers exactly as a fresh OpenIndex and as a
// from-scratch rebuild over the documents so far.
func buildChain(t *testing.T, agg Aggregation, dir string) {
	t.Helper()
	saveFullIndex(t, agg, 2, dir)
	follow, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { follow.Close() }()
	for i, bounds := range [][2]int{{2, 3}, {3, 5}} {
		batch := lsmBatch(bounds[0], bounds[1])
		stats, err := AppendDelta(context.Background(), dir, batch, AppendOptions{
			Count: Options{TempDir: t.TempDir()},
		})
		if err != nil {
			t.Fatalf("AppendDelta batch %d: %v", i, err)
		}
		if stats.Docs != int64(len(batch)) {
			t.Fatalf("append %d: Docs = %d, want %d", i, stats.Docs, len(batch))
		}
		if got := stats.Counters[mapreduce.CounterMapInputRecords]; got != int64(len(batch)) {
			t.Fatalf("append %d read %d map input records, want %d (incremental cost must be O(new documents))",
				i, got, len(batch))
		}
		if stats.Deltas != i+1 {
			t.Fatalf("append %d: Deltas = %d, want %d", i, stats.Deltas, i+1)
		}
		if want := int64(bounds[1]); stats.ChainDocs != want {
			t.Fatalf("append %d: ChainDocs = %d, want %d", i, stats.ChainDocs, want)
		}
		next, err := follow.Reopen()
		if err != nil {
			t.Fatalf("Reopen after append %d: %v", i, err)
		}
		follow.Close()
		follow = next
		rebuildDir := filepath.Join(t.TempDir(), "rebuild")
		saveFullIndex(t, agg, bounds[1], rebuildDir)
		for _, d := range []string{dir, rebuildDir} {
			want, err := OpenIndex(d)
			if err != nil {
				t.Fatal(err)
			}
			assertIndexesEqual(t, follow, want)
			want.Close()
		}
	}
}

// assertIndexesEqual checks that two open indexes answer every public
// query identically: NGrams, TopK (below, at, and beyond the stored
// depth), Longest, Lookup (hits and misses), and Prefix. Indexes that
// speak the same identifiers — a plain index, a compacted chain, a
// rebuild — must agree byte for byte, IDs and order included. An
// uncompacted chain spells n-grams in its own dictionary: it must hold
// the same text, frequencies and aggregates, with its IDs spelling the
// text, its NGrams in its own key order, and each Prefix limit cut from
// that order.
func assertIndexesEqual(t *testing.T, got, want *Index) {
	t.Helper()
	// A merge-on-read view's Len is an upper bound (an n-gram present
	// in several generations counts once per generation); it must never
	// undercount. The NGrams comparison below proves the distinct sets
	// are identical.
	if got.Len() < want.Len() {
		t.Fatalf("Len: got %d, below %d", got.Len(), want.Len())
	}
	exact := sameIDs(got.v.Dictionary(), want.v.Dictionary())
	if !exact && got.v.Generations() == 1 && want.v.Generations() == 1 {
		t.Fatal("two single-generation indexes over the same documents speak different identifiers")
	}
	gotList, wantList := listNGrams(t, got), listNGrams(t, want)
	if exact {
		assertSameNGrams(t, got, "NGrams", gotList, wantList, true)
	}
	wantSet := collect(t, want.NGrams())
	gotSet := collect(t, got.NGrams())
	if len(gotSet) != len(wantSet) {
		t.Fatalf("NGrams: %d vs %d", len(gotSet), len(wantSet))
	}
	for k, w := range wantSet {
		g, ok := gotSet[k]
		if !ok {
			t.Fatalf("missing n-gram %q", w.Text)
		}
		if !sameNGram(g, w, exact) {
			t.Fatalf("NGram mismatch for %q:\ngot:  %+v\nwant: %+v", w.Text, g, w)
		}
		assertSpelled(t, got, g)
	}
	for _, k := range []int{0, 1, 3, 7, 10, 25, 100, int(want.Len()), int(want.Len()) + 9} {
		gw, err := got.TopK(k)
		if err != nil {
			t.Fatal(err)
		}
		ww, err := want.TopK(k)
		if err != nil {
			t.Fatal(err)
		}
		assertSameNGrams(t, got, fmt.Sprintf("TopK(%d)", k), gw, ww, exact)
	}
	for _, k := range []int{1, 5} {
		gw, err := got.Longest(k)
		if err != nil {
			t.Fatal(err)
		}
		ww, err := want.Longest(k)
		if err != nil {
			t.Fatal(err)
		}
		assertSameNGrams(t, got, fmt.Sprintf("Longest(%d)", k), gw, ww, exact)
	}
	phrases := make([]string, 0, len(wantSet))
	for _, w := range wantSet {
		phrases = append(phrases, w.Text)
	}
	sort.Strings(phrases)
	phrases = append(phrases, "the the the", "xylophone quick", "")
	for _, p := range phrases {
		gg, gok, err := got.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		wg, wok, err := want.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		if gok != wok || !sameNGram(gg, wg, exact) {
			t.Fatalf("Lookup(%q): got (%v, %v), want (%v, %v)", p, gg, gok, wg, wok)
		}
	}
	assertPrefixes(t, got, gotList, []string{"the", "quick", "quick brown", "to be", "zebra"}, []int{1, 20, 0},
		func(p string) []NGram { return prefixOf(wantList, p) }, exact)
}

// TestAppendCompactGolden is the incremental-maintenance golden test,
// across all aggregation kinds: a chain grown by two appends answers
// every query exactly as a from-scratch rebuild over all documents,
// and compaction then produces data files byte-identical to that
// rebuild's.
func TestAppendCompactGolden(t *testing.T) {
	for _, agg := range []Aggregation{Counts, TimeSeries, DocumentIndex} {
		t.Run(fmt.Sprintf("agg=%d", agg), func(t *testing.T) {
			chainDir := filepath.Join(t.TempDir(), "chain")
			fullDir := filepath.Join(t.TempDir(), "full")
			buildChain(t, agg, chainDir)
			saveFullIndex(t, agg, len(lsmDocs), fullDir)

			full, err := OpenIndex(fullDir)
			if err != nil {
				t.Fatal(err)
			}
			defer full.Close()

			// Merge-on-read: the chain's view equals the rebuild.
			chain, err := OpenIndex(chainDir)
			if err != nil {
				t.Fatal(err)
			}
			assertIndexesEqual(t, chain, full)

			// Compaction: byte-identical to the rebuild's data files.
			stats, err := CompactIndex(chainDir, CompactOptions{TempDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Compacted || stats.Generations != 3 {
				t.Fatalf("CompactStats = %+v, want 3 generations compacted", stats)
			}
			if stats.Records != full.Len() {
				t.Fatalf("compacted %d records, rebuild has %d", stats.Records, full.Len())
			}
			man, err := lsm.ReadManifest(chainDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(man.Deltas) != 0 || man.Base.Dir == "." {
				t.Fatalf("post-compaction manifest: base %q, %d deltas", man.Base.Dir, len(man.Deltas))
			}
			assertSameDataFiles(t, filepath.Join(chainDir, man.Base.Dir), fullDir)
			// The adopted flat base and the delta directories are retired.
			if _, err := os.Stat(filepath.Join(chainDir, "dictionary.tsv")); !os.IsNotExist(err) {
				t.Fatalf("flat base files survived compaction (err=%v)", err)
			}
			if _, err := os.Stat(filepath.Join(chainDir, "delta-000000")); !os.IsNotExist(err) {
				t.Fatalf("delta generation survived compaction (err=%v)", err)
			}

			// The compacted chain still answers identically, to a handle
			// that follows it across the compaction and to a fresh one; the
			// handle opened before it keeps answering from the retired
			// generations.
			compacted, err := chain.Reopen()
			if err != nil {
				t.Fatal(err)
			}
			defer compacted.Close()
			assertIndexesEqual(t, compacted, full)
			assertIndexesEqual(t, chain, full)
			chain.Close()
			chain, err = OpenIndex(chainDir)
			if err != nil {
				t.Fatal(err)
			}
			defer chain.Close()
			assertIndexesEqual(t, chain, full)

			// A second compaction is a no-op.
			stats, err = CompactIndex(chainDir, CompactOptions{TempDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Compacted {
				t.Fatal("compacting a delta-free chain must be a no-op")
			}
		})
	}
}

// TestChainMinFrequencyMatchesRebuild is the oracle for τ as a read
// filter: a chain created by AppendDelta at τ = 3 — a base and three
// deltas, every generation stored at τ = 1 — answers Lookup, Prefix,
// TopK, Longest and NGrams as a Count at τ = 3 over all its documents:
// by text, counts and aggregates through its uncompacted view, which
// speaks the chain's own identifiers, and byte for byte after
// compaction. "amber falcon" occurs once in each of
// three generations, below τ in every one and exactly τ folded;
// "cobalt heron" folds to τ − 1.
func TestChainMinFrequencyMatchesRebuild(t *testing.T) {
	ctx := context.Background()
	batches := [][]string{
		{lsmDocs[0], lsmDocs[1], "amber falcon. cobalt heron."},
		{lsmDocs[2], "amber falcon."},
		{lsmDocs[3], "amber falcon rises."},
		{lsmDocs[4], "cobalt heron."},
	}
	for _, agg := range []Aggregation{Counts, TimeSeries, DocumentIndex} {
		t.Run(fmt.Sprintf("agg=%d", agg), func(t *testing.T) {
			opts := Options{MinFrequency: 3, MaxLength: 5, Aggregation: agg, TempDir: t.TempDir()}
			dir := filepath.Join(t.TempDir(), "chain")
			var all []Document
			for i, texts := range batches {
				var docs []Document
				for _, text := range texts {
					docs = append(docs, Document{Text: text, Year: 2000 + len(all)%3})
					all = append(all, docs[len(docs)-1])
				}
				if _, err := AppendDelta(ctx, dir, docs, AppendOptions{Count: opts}); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
			}
			c, err := FromDocuments(ctx, "oracle", sliceDocuments(all), BuilderOptions{})
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := Count(ctx, c, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Release()

			for _, compacted := range []bool{false, true} {
				if compacted {
					if _, err := CompactIndex(dir, CompactOptions{TempDir: t.TempDir()}); err != nil {
						t.Fatal(err)
					}
				}
				man, err := lsm.ReadManifest(dir)
				if err != nil {
					t.Fatal(err)
				}
				wantDeltas := 3
				if compacted {
					wantDeltas = 0
				}
				if len(man.Deltas) != wantDeltas || man.MinFrequency != 3 {
					t.Fatalf("chain of %d deltas at τ = %d, want %d deltas at τ = 3", len(man.Deltas), man.MinFrequency, wantDeltas)
				}
				ix, err := OpenIndex(dir)
				if err != nil {
					t.Fatal(err)
				}
				assertAnswersMatchResult(t, ix, oracle)
				if ng, ok, err := ix.Lookup("amber falcon"); err != nil || !ok || ng.Frequency != 3 {
					t.Fatalf("Lookup(amber falcon) = %+v, %v, %v; want frequency 3", ng, ok, err)
				}
				if ng, ok, err := ix.Lookup("cobalt heron"); err != nil || ok {
					t.Fatalf("Lookup(cobalt heron) = %+v, %v, %v; want not found below τ", ng, ok, err)
				}
				ix.Close()
			}
		})
	}
}

// assertSameDataFiles checks that the compacted base in baseDir holds
// data files byte-identical to the full rebuild's in fullDir.
func assertSameDataFiles(t *testing.T, baseDir, fullDir string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(fullDir, "shard-*.run"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append([]string{"dictionary.tsv", "top.run"}, names...) {
		name := filepath.Base(f)
		wantBytes, err := os.ReadFile(filepath.Join(fullDir, name))
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := os.ReadFile(filepath.Join(baseDir, name))
		if err != nil {
			t.Fatalf("compacted base is missing %s: %v", name, err)
		}
		if !reflect.DeepEqual(gotBytes, wantBytes) {
			t.Fatalf("%s differs between compacted base and full rebuild", name)
		}
	}
}

// TestChainTopKBeyondDistinct: a view's Len counts an n-gram once per
// generation holding it, so a k clamped to Len can still exceed the
// distinct count. With every stored list complete the merge answers
// anyway — every n-gram, in the rebuild's report order, nothing padded —
// and each delta carries the top.run that makes that possible.
func TestChainTopKBeyondDistinct(t *testing.T) {
	chainDir := filepath.Join(t.TempDir(), "chain")
	fullDir := filepath.Join(t.TempDir(), "full")
	buildChain(t, Counts, chainDir)
	saveFullIndex(t, Counts, len(lsmDocs), fullDir)
	for _, delta := range []string{"delta-000000", "delta-000001"} {
		if st, err := os.Stat(filepath.Join(chainDir, delta, "top.run")); err != nil || st.Size() == 0 {
			t.Fatalf("%s has no top.run (%v)", delta, err)
		}
	}
	full, err := OpenIndex(fullDir)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	chain, err := OpenIndex(chainDir)
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Close()
	if chain.Len() <= full.Len() {
		t.Fatalf("fixture: the view's Len %d does not exceed the %d distinct n-grams", chain.Len(), full.Len())
	}
	want, err := full.TopK(int(full.Len()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := chain.TopK(int(chain.Len()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameNGrams(t, chain, fmt.Sprintf("TopK(%d) over %d distinct n-grams", chain.Len(), full.Len()), got, want, false)
	if merged, scans := chain.TopKStats(); merged != 1 || scans != 0 {
		t.Fatalf("TopKStats = %d merged, %d scans; want the merge to have answered", merged, scans)
	}
}

// TestChainTopKPaths drives both answers of a chain's TopK on
// generations larger than the stored depth: k the stored lists can
// prove comes from the threshold merge, k beyond them from the
// scanning fallback, and both equal a from-scratch rebuild's.
func TestChainTopKPaths(t *testing.T) {
	batches := lsmBenchBatches()
	chain, err := OpenIndex(lsmBenchChain(t))
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Close()
	var all []Document
	for _, b := range batches {
		all = append(all, b...)
	}
	fullDir := filepath.Join(t.TempDir(), "full")
	saveDocuments(t, all, fullDir)
	full, err := OpenIndex(fullDir)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()

	for _, tc := range []struct {
		k      int
		merged bool
	}{{10, true}, {100, true}, {defaultTopDepth + 1, false}, {3000, false}} {
		m0, s0 := chain.TopKStats()
		got, err := chain.TopK(tc.k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.TopK(tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != tc.k {
			t.Fatalf("the rebuild's TopK(%d) holds %d n-grams", tc.k, len(want))
		}
		assertSameNGrams(t, chain, fmt.Sprintf("TopK(%d)", tc.k), got, want, false)
		if tc.merged {
			m0++
		} else {
			s0++
		}
		if m1, s1 := chain.TopKStats(); m1 != m0 || s1 != s0 {
			t.Fatalf("TopK(%d): TopKStats = %d merged, %d scans; want %d, %d", tc.k, m1, s1, m0, s0)
		}
	}
	// A plain index is a chain of one and counts its calls like any
	// chain: k = 10 and 100 came from its stored records, the two beyond
	// the stored depth from the scan.
	if merged, scans := full.TopKStats(); merged != 2 || scans != 2 {
		t.Fatalf("the plain index reports TopKStats %d, %d; want 2, 2", merged, scans)
	}
	if _, err := full.Prefix("w000", 5); err != nil {
		t.Fatal(err)
	}
	// Its one cursor stops at the limit.
	if scans, records := full.PrefixStats(); scans != 1 || records != 5 {
		t.Fatalf("the plain index reports PrefixStats %d, %d; want 1, 5", scans, records)
	}
}

// TestChainTopKPointGets pins the work of a chain's TopK in point gets:
// the first TopK(100) on the benchmark chain (1 base + 4 deltas, seed
// 43) folds each n-gram the threshold merge meets across all five
// generations, a fixed count; the same or a smaller k again is a prefix
// of the list the merge proved and issues none, though it still counts
// as merged. A closed handle answers nothing, memoized or not.
func TestChainTopKPointGets(t *testing.T) {
	const firstGets = 1055 // 211 n-grams met × 5 generations
	chain, err := OpenIndex(lsmBenchChain(t))
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Close()
	var first []NGram
	for i, k := range []int{100, 100, 10} {
		top, err := chain.TopK(k)
		if err != nil || len(top) != k {
			t.Fatalf("TopK(%d): %v (%d n-grams)", k, err, len(top))
		}
		if i == 0 {
			first = top
		} else if !reflect.DeepEqual(top, first[:k]) {
			t.Fatalf("TopK(%d) is not the first %d of the first TopK(100)", k, k)
		}
		if gets := chain.TopKPointGets(); gets != firstGets {
			t.Fatalf("after TopK(%d) number %d: %d point gets, want %d", k, i+1, gets, firstGets)
		}
		if merged, scans := chain.TopKStats(); merged != int64(i+1) || scans != 0 {
			t.Fatalf("after TopK(%d) number %d: TopKStats = %d merged, %d scans; want %d, 0", k, i+1, merged, scans, i+1)
		}
	}
	chain.Close()
	for _, k := range []int{100, 10} {
		if _, err := chain.TopK(k); !errors.Is(err, ErrIndexClosed) {
			t.Fatalf("TopK(%d) after Close: %v, want ErrIndexClosed", k, err)
		}
	}

	plainDir := filepath.Join(t.TempDir(), "plain")
	saveDocuments(t, lsmBenchBatches()[0], plainDir)
	plain, err := OpenIndex(plainDir)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.TopK(100); err != nil || plain.TopKPointGets() != 0 {
		t.Fatalf("plain TopK(100): %v, %d point gets; want none", err, plain.TopKPointGets())
	}
}

// TestChainPrefixWarmPath: once its blocks are cached, a limit-20
// Prefix on a chain reads no file — every generation's cursor is served
// by the block cache — and stops at the limit: its merge reads at most
// one record per generation for each of the 20 answers, and allocates
// for those, whatever the range holds — thousands of records or tens.
func TestChainPrefixWarmPath(t *testing.T) {
	chain, err := OpenIndex(lsmPrefixChain(t))
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Close()
	const gens, bound = 5, 250
	for _, tc := range lsmPrefixCases {
		all, err := chain.Prefix(tc.phrase, 0) // also the warm-up
		if err != nil || len(all) < tc.minRange {
			t.Fatalf("Prefix(%q, 0): %v (%d records, want ≥ %d)", tc.phrase, err, len(all), tc.minRange)
		}
		hits0, misses0 := chain.CacheStats()
		scans0, records0 := chain.PrefixStats()
		got, err := chain.Prefix(tc.phrase, 20)
		if err != nil || !reflect.DeepEqual(got, all[:20]) {
			t.Fatalf("Prefix(%q, 20) is not the first 20 of Prefix(%q, 0): %v", tc.phrase, tc.phrase, err)
		}
		hits, misses := chain.CacheStats()
		if misses != misses0 || hits-hits0 < gens {
			t.Fatalf("warm Prefix(%q, 20): %d cache misses, %d hits; want 0 and ≥ %d", tc.phrase, misses-misses0, hits-hits0, gens)
		}
		scans, records := chain.PrefixStats()
		if read := records - records0; scans != scans0+1 || read < 20 || read > 20*gens {
			t.Fatalf("warm Prefix(%q, 20): PrefixStats moved by %d scans, %d records; want 1 scan of 20 to %d records (the range holds %d)", tc.phrase, scans-scans0, read, 20*gens, len(all))
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := chain.Prefix(tc.phrase, 20); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Prefix(%q, 20) over %d records: %.0f allocs", tc.phrase, len(all), allocs)
		if allocs > bound {
			t.Fatalf("Prefix(%q, 20) over %d records: %.0f allocs, want ≤ %d whatever the range", tc.phrase, len(all), allocs, bound)
		}
	}
}

// TestAppendDocumentIDMixing rejects batches mixing explicit and
// auto-assigned document identifiers, in either order.
func TestAppendDocumentIDMixing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	saveFullIndex(t, Counts, 2, dir)
	for _, docs := range [][]Document{
		{{ID: 7, Text: "a b c."}, {Text: "d e f."}},
		{{Text: "a b c."}, {ID: 7, Text: "d e f."}},
	} {
		if _, err := AppendDelta(context.Background(), dir, docs, AppendOptions{}); err == nil {
			t.Fatalf("mixed-ID batch %v must be rejected", docs)
		}
	}
	if _, err := AppendDelta(context.Background(), dir, nil, AppendOptions{}); err == nil {
		t.Fatal("empty batch must be rejected")
	}
}

// TestChainManifestCorruption is the corruption sweep: every single
// byte flip and every truncation of the chain manifest, and every flip
// of a format-1 chain's checksum file, must surface as ErrCorrupt —
// never as wrong counts — and removing a referenced delta must fail the
// open.
func TestChainManifestCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	saveFullIndex(t, Counts, 2, dir)
	if _, err := AppendDelta(context.Background(), dir, lsmBatch(2, 3), AppendOptions{}); err != nil {
		t.Fatal(err)
	}

	manPath := filepath.Join(dir, lsm.ChainFile)
	manData, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}

	mustCorrupt := func(dir, what string) {
		t.Helper()
		ix, err := OpenIndex(dir)
		if err == nil {
			ix.Close()
			t.Fatalf("%s: OpenIndex succeeded on a damaged chain", what)
		}
		if !errors.Is(err, lsm.ErrCorrupt) {
			t.Fatalf("%s: error %v does not wrap lsm.ErrCorrupt", what, err)
		}
	}
	restore := func() {
		if err := os.WriteFile(manPath, manData, 0o666); err != nil {
			t.Fatal(err)
		}
	}

	// Sanity: the pristine chain opens.
	if ix, err := OpenIndex(dir); err != nil {
		t.Fatalf("pristine chain: %v", err)
	} else {
		ix.Close()
	}

	for i := range manData {
		bad := append([]byte(nil), manData...)
		bad[i] ^= 0xff
		if err := os.WriteFile(manPath, bad, 0o666); err != nil {
			t.Fatal(err)
		}
		mustCorrupt(dir, fmt.Sprintf("manifest byte %d flipped", i))
	}
	for n := range manData {
		if err := os.WriteFile(manPath, manData[:n], 0o666); err != nil {
			t.Fatal(err)
		}
		mustCorrupt(dir, fmt.Sprintf("manifest truncated to %d bytes", n))
	}
	restore()

	v1 := copyFixture(t, "v1", "chain")
	crcPath := filepath.Join(v1, "CHAIN.crc32c")
	crcData, err := os.ReadFile(crcPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := range crcData {
		bad := append([]byte(nil), crcData...)
		bad[i] ^= 0xff
		if err := os.WriteFile(crcPath, bad, 0o666); err != nil {
			t.Fatal(err)
		}
		mustCorrupt(v1, fmt.Sprintf("format-1 checksum byte %d flipped", i))
	}

	// A manifest that references a missing generation must fail the
	// open (with the filesystem's error, not wrong counts).
	if err := os.RemoveAll(filepath.Join(dir, "delta-000000")); err != nil {
		t.Fatal(err)
	}
	if ix, err := OpenIndex(dir); err == nil {
		ix.Close()
		t.Fatal("OpenIndex succeeded with a referenced delta missing")
	}
}

// TestCompactionCrashSafety: generation directories left behind by a
// crashed compaction or append never disturb the committed chain —
// readers ignore them, the next mutation sweeps them, and compaction
// then completes normally.
func TestCompactionCrashSafety(t *testing.T) {
	chainDir := filepath.Join(t.TempDir(), "chain")
	fullDir := filepath.Join(t.TempDir(), "full")
	buildChain(t, Counts, chainDir)
	saveFullIndex(t, Counts, len(lsmDocs), fullDir)

	// A compaction that died mid-write: a partial base directory with
	// no committed manifest, plus a partial delta from a dead append.
	for _, orphan := range []string{"base-000099", "delta-000099"} {
		d := filepath.Join(chainDir, orphan)
		if err := os.MkdirAll(d, 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "shard-00000.run.tmp"), []byte("partial"), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	full, err := OpenIndex(fullDir)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	chain, err := OpenIndex(chainDir)
	if err != nil {
		t.Fatalf("chain with orphan generations must stay queryable: %v", err)
	}
	assertIndexesEqual(t, chain, full)
	chain.Close()

	// The next mutation sweeps the orphans and succeeds.
	stats, err := CompactIndex(chainDir, CompactOptions{TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Compacted {
		t.Fatal("compaction did not run")
	}
	for _, orphan := range []string{"base-000099", "delta-000099"} {
		if _, err := os.Stat(filepath.Join(chainDir, orphan)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived the sweep (err=%v)", orphan, err)
		}
	}
	chain, err = OpenIndex(chainDir)
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Close()
	assertIndexesEqual(t, chain, full)
}

// TestReconcileIncremental covers the ingester's reconciliation
// contract: NewDocuments exposes exactly the documents since the last
// commit, Commit releases them — the ingester holds only uncommitted
// documents — and Abort keeps them for the next attempt.
func TestReconcileIncremental(t *testing.T) {
	si, err := NewStreamIngester(IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	held := func(want ...int) {
		t.Helper()
		si.mu.Lock()
		defer si.mu.Unlock()
		if len(si.docs) != len(want) {
			t.Fatalf("ingester holds %d documents, want %d", len(si.docs), len(want))
		}
		for i, d := range si.docs {
			if d.Text != lsmDocs[want[i]] {
				t.Fatalf("held document %d is %q, want lsmDocs[%d]", i, d.Text, want[i])
			}
		}
	}
	if err := si.Ingest(lsmBatch(0, 2)...); err != nil {
		t.Fatal(err)
	}
	rc, err := si.BeginReconcile()
	if err != nil {
		t.Fatal(err)
	}
	if got := rc.NewDocuments(); len(got) != 2 || got[0].Text != lsmDocs[0] {
		t.Fatalf("first NewDocuments: %d docs", len(got))
	}
	// A document ingested mid-reconcile is not frozen into it, and
	// outlives its commit.
	if err := si.Ingest(lsmBatch(2, 3)...); err != nil {
		t.Fatal(err)
	}
	rc.Commit()
	if si.Pending() != 1 || si.Covered() != 2 || si.Docs() != 3 {
		t.Fatalf("after Commit: pending=%d covered=%d docs=%d", si.Pending(), si.Covered(), si.Docs())
	}
	held(2)

	if err := si.Ingest(lsmBatch(3, 5)...); err != nil {
		t.Fatal(err)
	}
	rc, err = si.BeginReconcile()
	if err != nil {
		t.Fatal(err)
	}
	if got := rc.NewDocuments(); len(got) != 3 || got[0].Text != lsmDocs[2] {
		t.Fatalf("second NewDocuments: %+v", got)
	}
	if err := rc.Abort(); err != nil {
		t.Fatal(err)
	}
	held(2, 3, 4)

	// An aborted reconcile leaves the window intact.
	rc, err = si.BeginReconcile()
	if err != nil {
		t.Fatal(err)
	}
	if got := rc.NewDocuments(); len(got) != 3 {
		t.Fatalf("post-abort NewDocuments: %d docs, want 3", len(got))
	}
	rc.Commit()
	if si.Pending() != 0 || si.Covered() != 5 || si.Docs() != 5 {
		t.Fatalf("final state: pending=%d covered=%d docs=%d", si.Pending(), si.Covered(), si.Docs())
	}
	held()
}
