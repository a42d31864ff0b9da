package ngramstats

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ngramstats/internal/dictionary"
	"ngramstats/internal/encoding"
	"ngramstats/internal/sequence"
)

// saveTestCorpus returns a small deterministic corpus with repeated
// phrases at several frequencies and publication years.
func saveTestCorpus(t *testing.T) *Corpus {
	t.Helper()
	docs := []string{
		"the quick brown fox jumps over the lazy dog. the quick brown fox returns.",
		"a quick brown fox is not a lazy dog. the dog sleeps.",
		"the quick brown fox jumps over the lazy dog again and again.",
		"lazy dogs sleep. quick foxes jump. the quick brown fox jumps.",
		"to be or not to be. to be or not to be. that is the question.",
	}
	years := []int{1999, 2001, 2001, 2004, 2007}
	c, err := FromText("persist-test", docs, years)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// ngramKey gives a map key for set comparison: the text, which names
// an n-gram whatever dictionary spells its IDs.
func ngramKey(ng NGram) string {
	return ng.Text
}

// collect gathers an NGrams iterator into a map keyed by text.
func collect(t *testing.T, seq func(yield func(NGram, error) bool)) map[string]NGram {
	t.Helper()
	out := make(map[string]NGram)
	for ng, err := range seq {
		if err != nil {
			t.Fatalf("NGrams yielded error: %v", err)
		}
		if _, dup := out[ngramKey(ng)]; dup {
			t.Fatalf("duplicate n-gram %q", ng.Text)
		}
		out[ngramKey(ng)] = ng
	}
	return out
}

// TestSaveOpenGolden is the reopen-equality golden test: an index
// written by Save and reopened by OpenIndex must answer NGrams, TopK,
// Longest, and Lookup byte-identically to the live Result, across all
// aggregation kinds and a multi-shard layout.
func TestSaveOpenGolden(t *testing.T) {
	for _, agg := range []Aggregation{Counts, TimeSeries, DocumentIndex} {
		t.Run(fmt.Sprintf("agg=%d", agg), func(t *testing.T) {
			c := saveTestCorpus(t)
			res, err := Count(context.Background(), c, Options{
				MinFrequency: 2, MaxLength: 5, Aggregation: agg, TempDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer res.Release()
			if res.Len() == 0 {
				t.Fatal("empty result would make the test vacuous")
			}

			dir := filepath.Join(t.TempDir(), "idx")
			// Multiple shards and a small top depth exercise both the
			// precomputed and the fallback TopK paths.
			if err := res.SaveWith(dir, SaveOptions{Shards: 3, TopDepth: 5}); err != nil {
				t.Fatalf("Save: %v", err)
			}
			ix, err := OpenIndex(dir)
			if err != nil {
				t.Fatalf("OpenIndex: %v", err)
			}
			defer ix.Close()

			if ix.Len() != res.Len() {
				t.Fatalf("Len: index %d, result %d", ix.Len(), res.Len())
			}
			if ix.Corpus() != "persist-test" {
				t.Fatalf("Corpus = %q", ix.Corpus())
			}
			if ix.Shards() != 3 {
				t.Fatalf("Shards = %d, want 3", ix.Shards())
			}

			// NGrams: identical sets, identical decoded statistics.
			want := collect(t, res.NGrams())
			got := collect(t, ix.NGrams())
			if len(got) != len(want) {
				t.Fatalf("NGrams: %d from index, %d from result", len(got), len(want))
			}
			for k, w := range want {
				g, ok := got[k]
				if !ok {
					t.Fatalf("index is missing %q", w.Text)
				}
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("NGram mismatch for %q:\nindex:  %+v\nresult: %+v", w.Text, g, w)
				}
			}

			// TopK at every depth: below, at, and beyond the stored top
			// depth, and beyond the result size.
			for _, k := range []int{0, 1, 3, 5, 6, 10, int(res.Len()), int(res.Len()) + 7} {
				rw, err := res.TopK(k)
				if err != nil {
					t.Fatal(err)
				}
				gw, err := ix.TopK(k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gw, rw) {
					t.Fatalf("TopK(%d) mismatch:\nindex:  %v\nresult: %v", k, texts(gw), texts(rw))
				}
			}
			for _, k := range []int{1, 4, int(res.Len())} {
				rw, err := res.Longest(k)
				if err != nil {
					t.Fatal(err)
				}
				gw, err := ix.Longest(k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gw, rw) {
					t.Fatalf("Longest(%d) mismatch", k)
				}
			}

			// Lookup: every reported phrase answers identically, and so
			// do misses (absent phrase, unknown word).
			phrases := make([]string, 0, len(want))
			for _, w := range want {
				phrases = append(phrases, w.Text)
			}
			sort.Strings(phrases)
			phrases = append(phrases, "the the the", "xylophone quick", "")
			for _, p := range phrases {
				rg, rok, err := res.Lookup(p)
				if err != nil {
					t.Fatal(err)
				}
				gg, gok, err := ix.Lookup(p)
				if err != nil {
					t.Fatal(err)
				}
				if rok != gok || !reflect.DeepEqual(gg, rg) {
					t.Fatalf("Lookup(%q): index (%+v,%v) vs result (%+v,%v)", p, gg, gok, rg, rok)
				}
			}
		})
	}
}

func texts(ngs []NGram) []string {
	out := make([]string, len(ngs))
	for i, ng := range ngs {
		out[i] = fmt.Sprintf("%s:%d", ng.Text, ng.Frequency)
	}
	return out
}

// TestIndexPrefix pins the prefix-scan semantics: every indexed
// n-gram extending the phrase, in ascending encoded-key order, bounded
// by limit.
func TestIndexPrefix(t *testing.T) {
	c := saveTestCorpus(t)
	res, err := Count(context.Background(), c, Options{MinFrequency: 2, MaxLength: 5, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	dir := filepath.Join(t.TempDir(), "idx")
	if err := res.SaveWith(dir, SaveOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// Oracle: filter the full result by word-prefix.
	wantCount := 0
	for ng, err := range res.NGrams() {
		if err != nil {
			t.Fatal(err)
		}
		if ng.Text == "quick brown fox" || strings.HasPrefix(ng.Text, "quick brown fox ") {
			wantCount++
		}
	}
	if wantCount < 2 {
		t.Fatalf("oracle found only %d extensions; corpus too small for the test", wantCount)
	}

	got, err := ix.Prefix("quick brown fox", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != wantCount {
		t.Fatalf("Prefix returned %d n-grams, oracle says %d", len(got), wantCount)
	}
	for _, ng := range got {
		if ng.Text != "quick brown fox" && !strings.HasPrefix(ng.Text, "quick brown fox ") {
			t.Fatalf("Prefix returned non-extension %q", ng.Text)
		}
	}
	// The phrase itself is included and IDs are genuinely prefixed.
	for _, ng := range got {
		if len(ng.IDs) < 3 {
			t.Fatalf("extension %q shorter than the prefix", ng.Text)
		}
	}

	// Limit caps the answer.
	capped, err := ix.Prefix("quick brown fox", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 1 {
		t.Fatalf("Prefix with limit 1 returned %d", len(capped))
	}
	// Unknown words cannot be indexed: empty answer, no error.
	if ngs, err := ix.Prefix("xylophone", 0); err != nil || len(ngs) != 0 {
		t.Fatalf("Prefix(unknown) = %v, %v", ngs, err)
	}

	// A fresh phrase lookup after scans still points into valid cache
	// memory and repeated lookups hit the cache.
	h0, _ := ix.CacheStats()
	for i := 0; i < 20; i++ {
		if _, ok, err := ix.Lookup("lazy dog"); err != nil || !ok {
			t.Fatalf("Lookup(lazy dog): ok=%v err=%v", ok, err)
		}
	}
	h1, _ := ix.CacheStats()
	if h1 <= h0 {
		t.Fatalf("block cache saw no hits across repeated lookups (%d -> %d)", h0, h1)
	}
}

// TestSaveRefusesOverwrite pins that Save never clobbers an existing
// index.
func TestSaveRefusesOverwrite(t *testing.T) {
	c := saveTestCorpus(t)
	res, err := Count(context.Background(), c, Options{MinFrequency: 2, MaxLength: 3, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	dir := filepath.Join(t.TempDir(), "idx")
	if err := res.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := res.Save(dir); err == nil {
		t.Fatal("second Save into the same directory must fail")
	}
}

// TestSaveReplaceSwapsGenerations pins the hot-swap contract of
// SaveOptions.Replace: an Index opened before the rewrite keeps
// answering from its generation, a fresh OpenIndex sees the new one,
// and closing the old handle fails only later queries.
func TestSaveReplaceSwapsGenerations(t *testing.T) {
	c := saveTestCorpus(t)
	ctx := context.Background()
	res1, err := Count(ctx, c, Options{MinFrequency: 2, MaxLength: 3, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer res1.Release()
	res2, err := Count(ctx, c, Options{MinFrequency: 4, MaxLength: 2, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Release()
	if res1.Len() == res2.Len() {
		t.Fatalf("fixture results must differ (both %d records)", res1.Len())
	}
	// A phrase frequent enough for res1 but filtered out of res2.
	var onlyOld string
	for ng, err := range res1.NGrams() {
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := res2.Lookup(ng.Text); err != nil {
			t.Fatal(err)
		} else if !ok {
			onlyOld = ng.Text
			break
		}
	}
	if onlyOld == "" {
		t.Fatal("no n-gram distinguishes the two results")
	}

	dir := filepath.Join(t.TempDir(), "idx")
	if err := res1.Save(dir); err != nil {
		t.Fatal(err)
	}
	ix1, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix1.Close()

	if err := res2.SaveWith(dir, SaveOptions{Replace: true}); err != nil {
		t.Fatalf("SaveWith(Replace): %v", err)
	}

	// The pre-replace handle still serves the old generation.
	if _, ok, err := ix1.Lookup(onlyOld); err != nil || !ok {
		t.Fatalf("old handle after replace: Lookup(%q) = %v, %v (want found)", onlyOld, ok, err)
	}
	if ix1.Len() != res1.Len() {
		t.Fatalf("old handle reports %d records, want %d", ix1.Len(), res1.Len())
	}
	// A fresh open serves the replacement.
	ix2, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if ix2.Len() != res2.Len() {
		t.Fatalf("new handle reports %d records, want %d", ix2.Len(), res2.Len())
	}
	if _, ok, err := ix2.Lookup(onlyOld); err != nil || ok {
		t.Fatalf("new handle: Lookup(%q) = %v, %v (want miss)", onlyOld, ok, err)
	}
	if !ix2.ManifestTime().After(ix1.ManifestTime()) {
		t.Fatalf("manifest time did not advance across replace")
	}

	// Close-and-drain: the old handle refuses new queries after Close.
	if err := ix1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix1.Lookup(onlyOld); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("post-Close Lookup: err = %v, want ErrIndexClosed", err)
	}
}

// TestLanguageModelFromIndexEquivalence pins that a model trained from
// a persisted index answers identically to one trained from the live
// Result the index was saved from — the serving-path guarantee behind
// ngramsd -lm.
func TestLanguageModelFromIndexEquivalence(t *testing.T) {
	c := saveTestCorpus(t)
	res, err := Count(context.Background(), c, Options{MinFrequency: 1, MaxLength: 3, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	dir := filepath.Join(t.TempDir(), "idx")
	if err := res.Save(dir); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}

	fromRes, err := NewLanguageModel(res, 3)
	if err != nil {
		t.Fatal(err)
	}
	fromIx, err := NewLanguageModelFromIndex(ix, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The index was read only during construction; the model outlives it.
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Every indexed n-gram scores identically under both models.
	for ng, err := range res.NGrams() {
		if err != nil {
			t.Fatal(err)
		}
		words := strings.Fields(ng.Text)
		ctxWords, last := words[:len(words)-1], words[len(words)-1]
		a, b := fromRes.Score(ctxWords, last), fromIx.Score(ctxWords, last)
		if a != b {
			t.Fatalf("Score(%v | %v): result model %v, index model %v", last, ctxWords, a, b)
		}
	}
	// Predictions and Katz log-probabilities agree too.
	pa, pb := fromRes.Predict([]string{"the"}, 5), fromIx.Predict([]string{"the"}, 5)
	if !reflect.DeepEqual(pa, pb) {
		t.Fatalf("Predict diverged:\n result %+v\n  index %+v", pa, pb)
	}
	if len(pa) == 0 {
		t.Fatal("no predictions after \"the\"")
	}
	for _, phrase := range [][]string{
		{"the", "quick", "brown", "fox"},
		{"to", "be", "or", "not", "to", "be"},
		{"the", "zzz-unknown", "dog"},
	} {
		la, lb := fromRes.LogProb(phrase), fromIx.LogProb(phrase)
		if la != lb {
			t.Fatalf("LogProb(%v): result model %v, index model %v", phrase, la, lb)
		}
		if la >= 0 || math.IsNaN(la) || math.IsInf(la, 0) {
			t.Fatalf("LogProb(%v) = %v, want a finite negative value", phrase, la)
		}
	}
	// Predict ranks by stupid-backoff score, best first.
	for i := 1; i < len(pa); i++ {
		if pa[i].Score > pa[i-1].Score {
			t.Fatalf("predictions out of order: %+v", pa)
		}
	}
}

// plainFixtures are plain indexes no chain could be appended to: τ = 3,
// and a maximal selection. lookupAllocs is what a Lookup of the top
// n-gram allocated through the plain-index reader, before a plain index
// became a chain of one.
var plainFixtures = []struct {
	name         string
	opts         Options
	lookupAllocs float64
}{
	{"tau=3", Options{MinFrequency: 3, MaxLength: 5}, 8},
	{"maximal", Options{MinFrequency: 2, MaxLength: 5, Selection: SelectMaximal}, 9},
}

// savePlainFixture counts saveTestCorpus under opts and saves it into
// dir with a small top depth, so TopK takes both the stored and the
// scanning path.
func savePlainFixture(t *testing.T, opts Options, dir string, replace bool) *Result {
	t.Helper()
	opts.TempDir = t.TempDir()
	res, err := Count(context.Background(), saveTestCorpus(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { res.Release() })
	if err := res.SaveWith(dir, SaveOptions{Shards: 2, TopDepth: 3, Replace: replace}); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPlainIsChainOfOne: a plain index opens as a chain of one
// generation, whatever its τ and selection mode;
// answers every query as the Result it was saved from; and follows its
// directory through Reopen like any chain — unchanged, it shares its
// one generation; replaced, it opens the new one. Its point lookups
// allocate no more than they did through the plain-index reader, and
// its open reads the manifest once.
func TestPlainIsChainOfOne(t *testing.T) {
	t.Run("open allocs", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "idx")
		saveFullIndex(t, Counts, len(lsmDocs), dir)
		allocs := testing.AllocsPerRun(200, func() {
			ix, err := OpenIndex(dir)
			if err != nil {
				t.Fatal(err)
			}
			ix.Close()
		})
		// 235 when the open read the manifest twice, 148 reading it once.
		if allocs > 160 {
			t.Fatalf("OpenIndex allocates %.0f times, want ≤ 160", allocs)
		}
	})
	for _, fx := range plainFixtures {
		t.Run(fx.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "idx")
			res := savePlainFixture(t, fx.opts, dir, false)
			ix, err := OpenIndex(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			vocab := int64(ix.v.Dictionary().Len())
			if opened, shared, terms := ix.OpenStats(); opened != 1 || shared != 0 || terms != vocab {
				t.Fatalf("OpenStats = %d opened, %d shared, %d terms; want 1, 0, %d", opened, shared, terms, vocab)
			}
			assertIndexMatchesResult(t, ix, res)

			same, err := ix.Reopen()
			if err != nil {
				t.Fatal(err)
			}
			defer same.Close()
			if opened, shared, terms := same.OpenStats(); opened != 0 || shared != 1 || terms != 0 {
				t.Fatalf("unchanged Reopen: OpenStats = %d, %d, %d; want 0, 1, 0", opened, shared, terms)
			}
			assertIndexMatchesResult(t, same, res)

			savePlainFixture(t, fx.opts, dir, true)
			next, err := same.Reopen()
			if err != nil {
				t.Fatal(err)
			}
			defer next.Close()
			if opened, shared, terms := next.OpenStats(); opened != 1 || shared != 0 || terms != vocab {
				t.Fatalf("Reopen after a replacing Save: OpenStats = %d, %d, %d; want 1, 0, %d", opened, shared, terms, vocab)
			}
			assertIndexMatchesResult(t, next, res)

			top, err := res.TopK(1)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, ok, err := ix.Lookup(top[0].Text); !ok || err != nil {
					t.Fatalf("Lookup(%q) = %v, %v", top[0].Text, ok, err)
				}
			})
			if allocs > fx.lookupAllocs {
				t.Fatalf("Lookup(%q) allocates %.0f times, want ≤ %.0f", top[0].Text, allocs, fx.lookupAllocs)
			}
		})
	}
}

// sameIDs reports whether two dictionaries assign every identifier to
// the same term. A plain index, a compacted chain and a rebuild over
// the same documents do; an uncompacted chain, which spells n-grams in
// its own dictionary (the base's ranks, then each delta's new terms),
// in general does not.
func sameIDs(a, b *dictionary.Dictionary) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Term(sequence.Term(i)) != b.Term(sequence.Term(i)) {
			return false
		}
	}
	return true
}

// sameNGram reports whether got answers as want: byte for byte when the
// two speak the same identifiers (exact), else by text, frequency and
// aggregates.
func sameNGram(got, want NGram, exact bool) bool {
	if !exact {
		got.IDs, want.IDs = nil, nil
	}
	return reflect.DeepEqual(got, want)
}

// assertSameNGrams requires got to equal want element by element under
// sameNGram, and every n-gram of got to be spelled by its IDs in ix's
// own dictionary.
func assertSameNGrams(t *testing.T, ix *Index, what string, got, want []NGram, exact bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d n-grams %v, want %d %v", what, len(got), texts(got), len(want), texts(want))
	}
	for i := range got {
		if !sameNGram(got[i], want[i], exact) {
			t.Fatalf("%s[%d]:\ngot:  %+v\nwant: %+v", what, i, got[i], want[i])
		}
		assertSpelled(t, ix, got[i])
	}
}

// assertSpelled requires ng's IDs to decode to its Text through ix's
// dictionary.
func assertSpelled(t *testing.T, ix *Index, ng NGram) {
	t.Helper()
	words := make([]string, len(ng.IDs))
	for i, id := range ng.IDs {
		words[i] = ix.v.Dictionary().Term(id)
	}
	if text := strings.Join(words, " "); text != ng.Text {
		t.Fatalf("IDs %v spell %q in the index's dictionary, the n-gram reads %q", ng.IDs, text, ng.Text)
	}
}

// prefixOf returns the n-grams of ordered that extend phrase, in
// ordered's order: what Prefix(phrase, 0) answers on the index ordered
// was listed from.
func prefixOf(ordered []NGram, phrase string) []NGram {
	var ext []NGram
	for _, ng := range ordered {
		if ng.Text == phrase || strings.HasPrefix(ng.Text, phrase+" ") {
			ext = append(ext, ng)
		}
	}
	return ext
}

// listNGrams lists ix.NGrams(), requiring strictly ascending
// encoded-key order in ix's own identifiers.
func listNGrams(t *testing.T, ix *Index) []NGram {
	t.Helper()
	var ordered []NGram
	for ng, err := range ix.NGrams() {
		if err != nil {
			t.Fatal(err)
		}
		if n := len(ordered); n > 0 && bytes.Compare(encoding.EncodeSeq(ordered[n-1].IDs), encoding.EncodeSeq(ng.IDs)) >= 0 {
			t.Fatalf("NGrams: %q after %q, out of encoded-key order", ng.Text, ordered[n-1].Text)
		}
		ordered = append(ordered, ng)
	}
	return ordered
}

// assertPrefixes requires ix.Prefix(p, limit) to be the first limit
// n-grams extending p in ix's NGrams order (ordered), and, cut at no
// limit, to hold exactly the n-grams of want (by sameNGram).
func assertPrefixes(t *testing.T, ix *Index, ordered []NGram, phrases []string, limits []int, want func(p string) []NGram, exact bool) {
	t.Helper()
	for _, p := range phrases {
		ext := prefixOf(ordered, p)
		wantSet := map[string]NGram{}
		for _, ng := range want(p) {
			wantSet[ngramKey(ng)] = ng
		}
		if len(ext) != len(wantSet) {
			t.Fatalf("Prefix(%q): %d extensions, want %d", p, len(ext), len(wantSet))
		}
		for _, ng := range ext {
			if w, ok := wantSet[ngramKey(ng)]; !ok || !sameNGram(ng, w, exact) {
				t.Fatalf("Prefix(%q) holds %+v, want %+v", p, ng, w)
			}
		}
		for _, limit := range limits {
			got, err := ix.Prefix(p, limit)
			if err != nil {
				t.Fatal(err)
			}
			exp := ext
			if limit > 0 && limit < len(ext) {
				exp = ext[:limit]
			}
			if !reflect.DeepEqual(got, exp) {
				t.Fatalf("Prefix(%q, %d): got %v, want %v", p, limit, texts(got), texts(exp))
			}
		}
	}
}

// assertIndexMatchesResult checks that ix answers NGrams, TopK,
// Longest, Lookup and Prefix as res does: byte for byte when ix speaks
// res's identifiers, else by text, frequency and aggregates, with ix's
// own IDs spelling the text and its own order. Prefix, which Result
// lacks, must return the n-grams extending the phrase in NGrams order,
// cut at the limit.
func assertIndexMatchesResult(t *testing.T, ix *Index, res *Result) {
	t.Helper()
	if ix.Len() != res.Len() {
		t.Fatalf("index Len %d, result %d", ix.Len(), res.Len())
	}
	assertAnswersMatchResult(t, ix, res)
}

// assertAnswersMatchResult is assertIndexMatchesResult less the Len
// check, for a chain view whose Len is an upper bound.
func assertAnswersMatchResult(t *testing.T, ix *Index, res *Result) {
	t.Helper()
	exact := sameIDs(ix.v.Dictionary(), res.corpus.col.Dict)
	if !exact && ix.v.Generations() == 1 {
		t.Fatal("a single-generation index speaks identifiers of its own")
	}
	want := collect(t, res.NGrams())
	ordered := listNGrams(t, ix)
	for _, ng := range ordered {
		if w, ok := want[ngramKey(ng)]; !ok || !sameNGram(ng, w, exact) {
			t.Fatalf("index n-gram %+v, result %+v", ng, w)
		}
		assertSpelled(t, ix, ng)
	}
	if len(ordered) != len(want) {
		t.Fatalf("index holds %d n-grams, result %d", len(ordered), len(want))
	}
	for _, k := range []int{0, 1, 3, 4, len(want), len(want) + 2} {
		got, err := ix.TopK(k)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := res.TopK(k)
		if err != nil {
			t.Fatal(err)
		}
		assertSameNGrams(t, ix, fmt.Sprintf("TopK(%d)", k), got, exp, exact)
	}
	got, err := ix.Longest(3)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := res.Longest(3)
	if err != nil {
		t.Fatal(err)
	}
	assertSameNGrams(t, ix, "Longest(3)", got, exp, exact)
	phrases := []string{"the the the", "xylophone quick", ""}
	for _, ng := range ordered {
		phrases = append(phrases, ng.Text)
	}
	for _, p := range phrases {
		got, gok, err := ix.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		exp, eok, err := res.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		if gok != eok || !sameNGram(got, exp, exact) {
			t.Fatalf("Lookup(%q): index (%+v, %v), result (%+v, %v)", p, got, gok, exp, eok)
		}
	}
	wantOrdered := make([]NGram, 0, len(want))
	for _, ng := range want {
		wantOrdered = append(wantOrdered, ng)
	}
	assertPrefixes(t, ix, ordered, []string{"the", "quick", "quick brown", "to be", "amber", "cobalt heron", "zebra"},
		[]int{1, 2, 3, 0}, func(p string) []NGram { return prefixOf(wantOrdered, p) }, exact)
}

// TestReopenClosedHandle: Reopen on a closed handle fails with
// ErrIndexClosed, for a plain index as for a chain.
func TestReopenClosedHandle(t *testing.T) {
	for _, chain := range []bool{false, true} {
		t.Run(fmt.Sprintf("chain=%v", chain), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "idx")
			saveFullIndex(t, Counts, 2, dir)
			if chain {
				if _, err := AppendDelta(context.Background(), dir, lsmBatch(2, 3), AppendOptions{
					Count: Options{TempDir: t.TempDir()},
				}); err != nil {
					t.Fatal(err)
				}
			}
			ix, err := OpenIndex(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			if next, err := ix.Reopen(); !errors.Is(err, ErrIndexClosed) {
				if next != nil {
					next.Close()
				}
				t.Fatalf("Reopen on a closed handle: err = %v, want ErrIndexClosed", err)
			}
		})
	}
}
