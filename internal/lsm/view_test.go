package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ngramstats/internal/core"
	"ngramstats/internal/dictionary"
	"ngramstats/internal/encoding"
	"ngramstats/internal/index"
	"ngramstats/internal/sequence"
)

// The fixtures here write chains straight through index.Writer from
// brute-force counts, so every generation's stored top depth — all
// records, a truncated list, or no top.run at all (a delta from before
// deltas carried one) — is under the test's control, and the expected
// counts do not pass through the code under test.

// testDoc is one document: an identifier, a year, and tokenized
// sentences.
type testDoc struct {
	id    int64
	year  int
	sents [][]string
}

// testGen is one generation to write: its documents and how many top
// records to store (negative: every record; 0: no top.run).
type testGen struct {
	docs  []testDoc
	depth int
}

// cell is one n-gram's aggregate under any kind: counts keyed by year
// (time series), document (document index) or 0 (plain count).
type cell map[int64]int64

func (c cell) freq() (n int64) {
	for _, v := range c {
		n += v
	}
	return n
}

func (c cell) encode(kind core.AggregationKind) []byte {
	if kind == core.AggCount {
		return encoding.AppendUvarint(nil, uint64(c[0]))
	}
	ids := make([]int64, 0, len(c))
	for id := range c {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b := encoding.AppendUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		b = encoding.AppendUvarint(b, uint64(id))
		b = encoding.AppendUvarint(b, uint64(c[id]))
	}
	return b
}

// countNGrams brute-forces the n-grams of docs up to length sigma into
// cells keyed by the space-joined text.
func countNGrams(into map[string]cell, docs []testDoc, sigma int, kind core.AggregationKind) {
	for _, d := range docs {
		var slot int64
		switch kind {
		case core.AggTimeSeries:
			slot = int64(d.year)
		case core.AggDocIndex:
			slot = d.id
		}
		for _, s := range d.sents {
			for i := range s {
				for n := 1; n <= sigma && i+n <= len(s); n++ {
					text := strings.Join(s[i:i+n], " ")
					if into[text] == nil {
						into[text] = cell{}
					}
					into[text][slot]++
				}
			}
		}
	}
}

// chainWriter grows a chain at dir one generation at a time, keeping
// the dictionary contract and the brute-force counts as it goes.
type chainWriter struct {
	t     *testing.T
	dir   string
	kind  core.AggregationKind
	sigma int
	// single says the chain will stay a chain of one: its base's stored
	// list is then the answer and must be in report order.
	single bool
	// tau is the serving τ the chain manifest records (0 or 1: none).
	tau int64

	all   map[string]cell  // brute-force counts over every document so far
	docs  []testDoc        // every document so far
	terms []string         // chain-global identifier order
	cfs   map[string]int64 // cumulative term frequencies
	man   *Manifest
}

func newChainWriter(t *testing.T, dir string, kind core.AggregationKind, sigma int, single bool) *chainWriter {
	return &chainWriter{t: t, dir: dir, kind: kind, sigma: sigma, single: single, all: map[string]cell{}, cfs: map[string]int64{}}
}

// writeChain writes gens as a chain at dir (gens[0] the base, adopted
// flat) and returns the brute-force counts over all documents.
func writeChain(t *testing.T, dir string, kind core.AggregationKind, sigma int, gens []testGen) map[string]cell {
	t.Helper()
	w := newChainWriter(t, dir, kind, sigma, len(gens) == 1)
	for _, gen := range gens {
		w.append(gen)
	}
	return w.all
}

// append writes gen as the chain's next generation: the base, adopted
// flat, if there is none yet, else a delta.
func (w *chainWriter) append(gen testGen) {
	t := w.t
	t.Helper()
	countNGrams(w.all, gen.docs, w.sigma, w.kind)
	w.docs = append(w.docs, gen.docs...)

	// The dictionary contract: the base ranks its terms; a delta
	// inherits every identifier, appends its new terms, and carries
	// cumulative frequencies.
	var fresh []string
	for _, d := range gen.docs {
		for _, s := range d.sents {
			for _, word := range s {
				if _, ok := w.cfs[word]; !ok {
					fresh = append(fresh, word)
				}
				w.cfs[word]++
			}
		}
	}
	sort.Strings(fresh)
	if w.man == nil {
		w.writeGen(".", gen, w.rankedDict(), w.single)
		man, err := Adopt(w.dir)
		if err != nil {
			t.Fatal(err)
		}
		man.MinFrequency = w.tau
		if err := WriteManifest(w.dir, man); err != nil {
			t.Fatal(err)
		}
		w.man = man
		return
	}
	w.terms = append(w.terms, fresh...)
	table := make([]int64, len(w.terms))
	ids := make(map[string]sequence.Term, len(w.terms))
	for i, word := range w.terms {
		table[i], ids[word] = w.cfs[word], sequence.Term(i)
	}
	sub := w.man.NextGenDir()
	records := w.writeGen(sub, gen, dictionary.FromTables(slices.Clone(w.terms), table, ids), false)
	if err := AppendGen(w.dir, w.man, GenInfo{Dir: sub, Records: records, Docs: int64(len(gen.docs))}); err != nil {
		t.Fatal(err)
	}
}

// kept returns the brute-force counts of the n-grams that reach the
// chain's τ: what the view answers.
func (w *chainWriter) kept() map[string]cell {
	out := make(map[string]cell, len(w.all))
	for text, c := range w.all {
		if c.freq() >= w.tau {
			out[text] = c
		}
	}
	return out
}

// compact replaces the chain's generations by one base over every
// document so far, as a compaction would write it: ranked dictionary,
// every record stored as a top record, in report order.
func (w *chainWriter) compact() {
	w.t.Helper()
	prev := *w.man
	sub := w.man.NextBaseDir()
	records := w.writeGen(sub, testGen{docs: w.docs, depth: -1}, w.rankedDict(), true)
	man, err := SwapBase(w.dir, &prev, GenInfo{Dir: sub, Records: records, Docs: int64(len(w.docs))})
	if err != nil {
		w.t.Fatal(err)
	}
	if prev.Base.Dir == "." {
		RemoveFlatBase(w.dir)
	}
	w.man = man
}

// rankedDict ranks the cumulative frequencies into a dictionary and
// restarts the chain's identifier order from it.
func (w *chainWriter) rankedDict() *dictionary.Dictionary {
	db := dictionary.NewBuilder()
	for word, n := range w.cfs {
		db.AddN(word, n)
	}
	dict := db.Build()
	w.terms = w.terms[:0]
	for i := 0; i < dict.Len(); i++ {
		w.terms = append(w.terms, dict.Term(sequence.Term(i)))
	}
	return dict
}

// writeGen writes the index directory sub from the brute-force counts
// of gen.docs under dict, storing gen.depth top records (negative:
// all), and returns its record count. A list that is an answer by
// itself (reportOrder) is in report order, as Save writes it. Lists
// that get merged need only descend by frequency: their ties sit in
// key order, which the merge must not depend on.
func (w *chainWriter) writeGen(sub string, gen testGen, dict *dictionary.Dictionary, reportOrder bool) int64 {
	t := w.t
	t.Helper()
	counts := map[string]cell{}
	countNGrams(counts, gen.docs, w.sigma, w.kind)
	type rec struct {
		key, value []byte
		cf         int64
		text       string
	}
	recs := make([]rec, 0, len(counts))
	for text, c := range counts {
		seq, err := dict.Encode(strings.Fields(text))
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec{encoding.EncodeSeq(seq), c.encode(w.kind), c.freq(), text})
	}
	sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i].key, recs[j].key) < 0 })

	iw, err := index.NewWriter(filepath.Join(w.dir, sub), index.WriterOptions{
		Corpus: "t", Kind: int(w.kind), Records: int64(len(recs)), Shards: 1,
		Docs: int64(len(gen.docs)), MaxLength: w.sigma, MinFrequency: 1, DictUnranked: !dict.Ranked(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := iw.SetDictionary(dict.Save); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := iw.Append(r.key, r.value); err != nil {
			t.Fatal(err)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.cf != b.cf || !reportOrder {
			return a.cf > b.cf
		}
		if len(a.key) != len(b.key) { // one byte per term at this vocabulary size
			return len(a.key) > len(b.key)
		}
		return a.text < b.text
	})
	depth := gen.depth
	if depth < 0 || depth > len(recs) {
		depth = len(recs)
	}
	for _, r := range recs[:depth] {
		if err := iw.AppendTop(r.key, r.value); err != nil {
			t.Fatal(err)
		}
	}
	if err := iw.Commit(); err != nil {
		t.Fatal(err)
	}
	return int64(len(recs))
}

func openTestChain(t *testing.T, dir string) *View {
	t.Helper()
	v, err := OpenChain(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	return v
}

// topRec is one scanned record with what the report order needs.
type topRec struct {
	key, value []byte
	cf         int64
	words      int
	text       string
}

// scanRanked is the scanning path: every merged record of the view,
// in TopK report order (frequency, then length, then text).
func scanRanked(t *testing.T, v *View) []topRec {
	t.Helper()
	var recs []topRec
	err := v.ScanAll(func(key, value []byte) error {
		seq, err := encoding.DecodeSeq(key)
		if err != nil {
			return err
		}
		cf, err := core.DecodeFrequency(core.AggregationKind(v.Kind()), value)
		if err != nil {
			return err
		}
		recs = append(recs, topRec{
			key:   append([]byte(nil), key...),
			value: append([]byte(nil), value...),
			cf:    cf,
			words: len(seq),
			text:  v.Dictionary().Format(seq),
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.cf != b.cf {
			return a.cf > b.cf
		}
		if a.words != b.words {
			return a.words > b.words
		}
		return a.text < b.text
	})
	return recs
}

// checkMerge requires TopRecords(k), when it answers, to equal the
// first k scanned records byte for byte, and reports whether it did.
func checkMerge(t *testing.T, v *View, ranked []topRec, k int) bool {
	t.Helper()
	keys, values, ok := v.TopRecords(k)
	if ok {
		checkTop(t, k, keys, values, ranked)
	}
	return ok
}

// checkTop requires an answer to TopRecords(k) to equal the first k
// scanned records byte for byte.
func checkTop(t *testing.T, k int, keys, values [][]byte, ranked []topRec) {
	t.Helper()
	want := ranked[:min(k, len(ranked))]
	if len(keys) != len(want) || len(values) != len(want) {
		t.Fatalf("TopRecords(%d) returned %d keys, %d values; the scan has %d", k, len(keys), len(values), len(want))
	}
	for i, w := range want {
		if !bytes.Equal(keys[i], w.key) || !bytes.Equal(values[i], w.value) {
			t.Fatalf("TopRecords(%d)[%d] = %x → %x, the scan has %q (%x → %x)", k, i, keys[i], values[i], w.text, w.key, w.value)
		}
	}
}

// randomGen draws documents over a tiny, skewed vocabulary so that
// frequencies tie constantly and every tie-break is exercised.
func randomGen(rng *rand.Rand, vocab []string, nextDoc *int64) []testDoc {
	docs := make([]testDoc, 1+rng.Intn(3))
	for d := range docs {
		docs[d] = testDoc{id: *nextDoc, year: 1990 + rng.Intn(3)}
		*nextDoc++
		for s := 1 + rng.Intn(3); s > 0; s-- {
			sent := make([]string, 1+rng.Intn(7))
			for i := range sent {
				f := rng.Float64()
				sent[i] = vocab[int(f*f*float64(len(vocab)))]
			}
			docs[d].sents = append(docs[d].sents, sent)
		}
	}
	return docs
}

// randomChain is one chain of the property tests: what was drawn, the
// brute-force counts over all its documents, and the open view.
type randomChain struct {
	iter     int
	dir      string
	kind     core.AggregationKind
	tau      int64
	gens     []testGen
	complete bool            // every generation stores all its records as top records
	truth    map[string]cell // the brute-force counts that reach τ
	v        *View
}

// forRandomChains draws the 150 random small chains the property tests
// share — every aggregation kind, σ ∈ {1,2,3}, τ ∈ {1,2,3}, 0–5 deltas,
// complete, truncated and missing stored lists — and calls fn on each. A chain
// grows one append at a time under an open view that follows it by
// Reopen, so the view fn gets shares all but its newest generation with
// its predecessors; at every append it is checked against a fresh
// OpenChain and the brute-force counts so far (checkReopened).
func forRandomChains(t *testing.T, fn func(c randomChain)) {
	rng := rand.New(rand.NewSource(20240915))
	vocab := []string{"a", "b", "c", "d", "e", "f"}
	for iter := 0; iter < 150; iter++ {
		c := randomChain{iter: iter, kind: core.AggregationKind(iter % 3), complete: iter%2 == 0}
		c.tau = []int64{1, 1, 2, 3}[iter/3%4]
		sigma := 1 + rng.Intn(3)
		words := vocab[:3+rng.Intn(4)]
		var nextDoc int64
		c.gens = make([]testGen, 1+rng.Intn(6))
		for g := range c.gens {
			c.gens[g] = testGen{docs: randomGen(rng, words, &nextDoc), depth: -1}
			if !c.complete {
				// Mostly short lists; now and then a delta with none.
				c.gens[g].depth = 1 + rng.Intn(12)
				if g > 0 && rng.Intn(8) == 0 {
					c.gens[g].depth = 0
				}
			}
		}
		c.dir = filepath.Join(t.TempDir(), "chain")
		dir := c.dir
		w := newChainWriter(t, dir, c.kind, sigma, len(c.gens) == 1)
		w.tau = c.tau
		for g, gen := range c.gens {
			w.append(gen)
			if g == 0 {
				c.v = openTestChain(t, dir)
				continue
			}
			next, err := c.v.Reopen()
			if err != nil {
				t.Fatalf("iter %d: Reopen after append %d: %v", iter, g, err)
			}
			t.Cleanup(func() { next.Close() })
			if st := next.OpenStats(); st.Opened != 1 || st.Shared != g {
				t.Fatalf("iter %d: Reopen after append %d opened %d generations and shared %d, want 1 and %d", iter, g, st.Opened, st.Shared, g)
			}
			checkReopened(t, next, openTestChain(t, dir), w.kept())
			c.v = next
		}
		c.truth = w.kept()
		fn(c)
	}
}

// checkReopened requires a view obtained by Reopen to answer exactly as
// a freshly opened one — full scan, point gets, stored-list top-k and
// prefix scans, byte for byte — and both to hold the brute-force counts.
func checkReopened(t *testing.T, got, fresh *View, truth map[string]cell) {
	t.Helper()
	kind := core.AggregationKind(got.Kind())
	ranked, want := scanRanked(t, got), scanRanked(t, fresh)
	if len(ranked) != len(truth) || len(want) != len(truth) {
		t.Fatalf("scans yield %d (reopened) and %d (fresh) n-grams, brute force %d", len(ranked), len(want), len(truth))
	}
	for i, r := range ranked {
		if c := truth[r.text]; !bytes.Equal(r.key, want[i].key) || !bytes.Equal(r.value, want[i].value) || !bytes.Equal(r.value, c.encode(kind)) {
			t.Fatalf("record %d: reopened %q (%x → %x), fresh %q (%x → %x), brute force %x",
				i, r.text, r.key, r.value, want[i].text, want[i].key, want[i].value, c.encode(kind))
		}
		for _, v := range []*View{got, fresh} {
			if val, ok, err := v.Get(r.key); err != nil || !ok || !bytes.Equal(val, r.value) {
				t.Fatalf("Get(%q) = %x, %v, %v; the scan has %x", r.text, val, ok, err, r.value)
			}
		}
	}
	for _, k := range []int{1, 3, len(ranked)} {
		gk, gv, gok := got.TopRecords(k)
		fk, fv, fok := fresh.TopRecords(k)
		if gok != fok || !slices.EqualFunc(gk, fk, bytes.Equal) || !slices.EqualFunc(gv, fv, bytes.Equal) {
			t.Fatalf("TopRecords(%d): reopened answers %v with %d records, fresh %v with %d", k, gok, len(gk), fok, len(fk))
		}
		if gok != checkMerge(t, got, ranked, k) {
			t.Fatalf("TopRecords(%d) changed its mind", k)
		}
	}
	for _, r := range ranked[:min(3, len(ranked))] {
		var out [2][]kv
		for i, v := range []*View{got, fresh} {
			if err := v.ScanPrefix(r.key[:1], 5, func(k, val []byte) error {
				out[i] = append(out[i], kv{k, val})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.EqualFunc(out[0], out[1], func(a, b kv) bool { return bytes.Equal(a.key, b.key) && bytes.Equal(a.value, b.value) }) {
			t.Fatalf("ScanPrefix(%x, 5): reopened %d records, fresh %d", r.key[:1], len(out[0]), len(out[1]))
		}
	}
}

// TestTopRecordsMatchesScan is the exactness property: over random
// small chains the threshold merge either declines or returns exactly
// what the scan ranks first, order and folded bytes included, and the
// scan itself equals the brute-force count. A view asked a sequence of
// k — deeper, shallower, deeper again — answers each from its memo or
// by the merge, and answers whatever a fresh view answers.
func TestTopRecordsMatchesScan(t *testing.T) {
	var mergedTruncated, declined, cutShort int
	forRandomChains(t, func(c randomChain) {
		iter, v, kind := c.iter, c.v, c.kind
		ranked := scanRanked(t, v)
		if len(ranked) != len(c.truth) {
			t.Fatalf("iter %d: the scan yields %d n-grams, brute force %d", iter, len(ranked), len(c.truth))
		}
		for _, r := range ranked {
			if c := c.truth[r.text]; r.cf != c.freq() || !bytes.Equal(r.value, c.encode(kind)) {
				t.Fatalf("iter %d: scan has %q = %d (%x), brute force %d (%x)", iter, r.text, r.cf, r.value, c.freq(), c.encode(kind))
			}
		}

		depth := len(ranked)
		for _, ix := range v.gens {
			depth = min(depth, int(ix.TopStored()))
		}
		for _, k := range []int{0, 1, 2, 10, depth - 1, depth, depth + 1, len(ranked), len(ranked) + 7} {
			if k < 0 {
				continue
			}
			switch ok := checkMerge(t, v, ranked, k); {
			case !ok && c.complete:
				t.Fatalf("iter %d: TopRecords(%d) declined although every list is complete", iter, k)
			case !ok:
				declined++
			case !c.complete && len(c.gens) > 1 && k > 0:
				mergedTruncated++
			}
		}

		for _, ks := range [][]int{{depth, depth / 2, len(ranked) + 7}, {2, 1, depth + 1}} {
			asked := openTestChain(t, c.dir)
			for _, k := range ks {
				keys, values, ok := asked.TopRecords(k)
				fk, fv, fok := openTestChain(t, c.dir).TopRecords(k)
				// A memo cut short by τ may answer where a fresh merge
				// declines (TestTopRecordsMemoCutByTau); never the reverse.
				switch {
				case fok && !ok:
					t.Fatalf("iter %d: after %v, TopRecords(%d) declined where a fresh view answers", iter, ks, k)
				case fok && (!slices.EqualFunc(keys, fk, bytes.Equal) || !slices.EqualFunc(values, fv, bytes.Equal)):
					t.Fatalf("iter %d: after %v, TopRecords(%d) answers %d records, a fresh view %d", iter, ks, k, len(keys), len(fk))
				}
				if ok {
					checkTop(t, k, keys, values, ranked)
					if c.tau > 1 && len(keys) < k {
						cutShort++
					}
				}
			}
		}
	})
	// The property is vacuous unless truncated lists both answer and
	// decline, and τ cuts answers short.
	if mergedTruncated == 0 || declined == 0 {
		t.Fatalf("truncated chains: %d merged answers, %d declined; want both", mergedTruncated, declined)
	}
	if cutShort == 0 {
		t.Fatal("τ > 1: no answer shorter than k")
	}
}

// TestTopRecordsMemoCutByTau: a merged list that τ cuts short holds
// every n-gram that reaches τ, so the memo answers any deeper k from
// it, with no point get — even a k whose own merge the truncated lists
// could not prove.
func TestTopRecordsMemoCutByTau(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	w := newChainWriter(t, dir, core.AggCount, 1, false)
	w.tau = 5
	w.append(testGen{docs: unigrams(0, "a", 10, "b", 4, "c", 1, "d", 1), depth: 3})
	w.append(testGen{docs: unigrams(10, "a", 10, "e", 4, "f", 1, "g", 1), depth: 3})
	ranked := scanRanked(t, openTestChain(t, dir))
	if got := rankedTexts(ranked); got != "a=20" {
		t.Fatalf("scan ranks %s", got)
	}
	// k = 5 needs five n-grams proven, and the lists run out first.
	if _, _, ok := openTestChain(t, dir).TopRecords(5); ok {
		t.Fatal("fixture: a fresh view proves TopRecords(5)")
	}
	v := openTestChain(t, dir)
	if !checkMerge(t, v, ranked, 2) {
		t.Fatal("TopRecords(2) declined")
	}
	gets := v.TopKPointGets()
	if gets == 0 {
		t.Fatal("the merge issued no point get")
	}
	for _, k := range []int{5, 100, 1} {
		if !checkMerge(t, v, ranked, k) {
			t.Fatalf("TopRecords(%d) declined after the memo holds every n-gram reaching τ", k)
		}
	}
	if merged, scans := v.TopKStats(); merged != 4 || scans != 0 || v.TopKPointGets() != gets {
		t.Fatalf("TopKStats = %d merged, %d scans, %d point gets; want 4, 0, %d", merged, scans, v.TopKPointGets(), gets)
	}
}

// TestTopRecordsConcurrent: callers asking mixed k of one view at once
// — some run the merge, some read its memo while another replaces it —
// each get exactly the scan's first k records (run it under -race).
func TestTopRecordsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	dir := filepath.Join(t.TempDir(), "chain")
	w := newChainWriter(t, dir, core.AggCount, 3, false)
	w.tau = 2
	var nextDoc int64
	for g := 0; g < 5; g++ {
		docs := append(randomGen(rng, vocab, &nextDoc), randomGen(rng, vocab, &nextDoc)...)
		w.append(testGen{docs: docs, depth: -1})
	}
	v := openTestChain(t, dir)
	ranked := scanRanked(t, v)
	if len(ranked) < 20 {
		t.Fatalf("fixture: %d n-grams reach τ, want at least 20", len(ranked))
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				k := rng.Intn(len(ranked) + 4)
				keys, values, ok := v.TopRecords(k)
				want := ranked[:min(k, len(ranked))]
				if !ok || len(keys) != len(want) {
					t.Errorf("TopRecords(%d) = %d records, ok=%v; the scan has %d", k, len(keys), ok, len(want))
					return
				}
				for j, r := range want {
					if !bytes.Equal(keys[j], r.key) || !bytes.Equal(values[j], r.value) {
						t.Errorf("TopRecords(%d)[%d] = %x → %x, the scan has %x → %x", k, j, keys[j], values[j], r.key, r.value)
						return
					}
				}
			}
		}(int64(c))
	}
	wg.Wait()
	if merged, scans := v.TopKStats(); merged != 8*50 || scans != 0 {
		t.Fatalf("TopKStats = %d merged, %d scans; want %d, 0", merged, scans, 8*50)
	}
	// The deepest list won, and a slower caller's shallower one, arriving
	// last, does not replace it.
	m := v.top.Load()
	if m == nil || !m.complete || len(m.keys) != len(ranked) {
		t.Fatalf("the memo is %+v; want all %d n-grams reaching τ, complete", m, len(ranked))
	}
	v.remember(&topMemo{keys: m.keys[:1], values: m.values[:1]})
	if v.top.Load() != m {
		t.Fatal("a shallower list replaced the memo")
	}
}

// kv is one emitted record.
type kv struct{ key, value []byte }

// TestBoundedScansMatchFullScan is the bounded-read property, over the
// same random chains. The cursor merge (scanRange) on a random [lo, hi)
// emits exactly the keys and folded values the streaming ScanChain
// emits inside that range; and ScanPrefix(prefix, limit) emits exactly
// the first limit records, in key order, of the brute-force counts
// under that prefix, spelled in the view's dictionary.
func TestBoundedScansMatchFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var inOne, inSome, inAll int
	forRandomChains(t, func(c randomChain) {
		iter, v := c.iter, c.v
		var stream []kv
		err := v.ScanChain(func(k, val []byte) error {
			stream = append(stream, kv{append([]byte(nil), k...), append([]byte(nil), val...)})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}

		// A bound is absent, a stored key, just past one, or arbitrary.
		bound := func() []byte {
			k := stream[rng.Intn(len(stream))].key
			switch rng.Intn(5) {
			case 0:
				return nil
			case 1:
				return append(append([]byte(nil), k...), 0)
			case 2:
				return []byte{byte(rng.Intn(8)), byte(rng.Intn(8))}
			default:
				return k
			}
		}
		for i := 0; i < 12; i++ {
			lo, hi := bound(), bound()
			var want []kv
			for _, r := range stream {
				if (lo == nil || bytes.Compare(r.key, lo) >= 0) && (hi == nil || bytes.Compare(r.key, hi) < 0) {
					want = append(want, r)
				}
			}
			var got []kv
			err := v.scanRange(lo, hi, func(k []byte, cells [][]byte) error {
				switch {
				case len(cells) == 1:
					inOne++
				case len(cells) == len(v.gens):
					inAll++
				default:
					inSome++
				}
				val, err := v.fold(cells)
				got = append(got, kv{k, val})
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("iter %d: [%x, %x) merges to %d records, the stream holds %d", iter, lo, hi, len(got), len(want))
			}
			for j := range want {
				if !bytes.Equal(got[j].key, want[j].key) || !bytes.Equal(got[j].value, want[j].value) {
					t.Fatalf("iter %d: [%x, %x) record %d is %x → %x, the stream has %x → %x",
						iter, lo, hi, j, got[j].key, got[j].value, want[j].key, want[j].value)
				}
			}
		}

		// The answer, from the brute-force counts alone.
		var canon []kv
		for text, cl := range c.truth {
			seq, err := v.Dictionary().Encode(strings.Fields(text))
			if err != nil {
				t.Fatal(err)
			}
			canon = append(canon, kv{encoding.EncodeSeq(seq), cl.encode(c.kind)})
		}
		sort.Slice(canon, func(i, j int) bool { return bytes.Compare(canon[i].key, canon[j].key) < 0 })
		prefixes := [][]byte{{byte(v.Dictionary().Len())}} // an identifier no term has
		// τ may keep nothing to draw a prefix from.
		for i := 0; i < 4 && len(canon) > 0; i++ {
			k := canon[rng.Intn(len(canon))].key
			prefixes = append(prefixes, k[:1+rng.Intn(len(k))]) // one byte per term at this vocabulary size
		}
		for _, prefix := range prefixes {
			var within []kv
			for _, r := range canon {
				if bytes.HasPrefix(r.key, prefix) {
					within = append(within, r)
				}
			}
			for _, limit := range []int{1, 20, len(within) + 1, 0} {
				want := within
				if limit > 0 {
					want = within[:min(limit, len(within))]
				}
				var got []kv
				if err := v.ScanPrefix(prefix, limit, func(k, val []byte) error {
					got = append(got, kv{k, val})
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("iter %d: ScanPrefix(%x, %d) emits %d records, want %d", iter, prefix, limit, len(got), len(want))
				}
				for j := range want {
					if !bytes.Equal(got[j].key, want[j].key) || !bytes.Equal(got[j].value, want[j].value) {
						t.Fatalf("iter %d: ScanPrefix(%x, %d)[%d] = %x → %x, want %x → %x",
							iter, prefix, limit, j, got[j].key, got[j].value, want[j].key, want[j].value)
					}
				}
			}
		}
	})
	if inOne == 0 || inSome == 0 || inAll == 0 {
		t.Fatalf("merged keys present in one / some / all generations: %d / %d / %d; want all three", inOne, inSome, inAll)
	}
}

// TestViewSpeaksChainIDs is the identifier contract of an uncompacted
// chain, over the random chains (τ ∈ {1, 2, 3}, each view reached by
// Reopen): the view's dictionary is its newest generation's own;
// ScanAll runs in strictly ascending key order and holds exactly the
// brute-force counts, as a set of (text, aggregate) pairs; and
// ScanPrefix(p, limit) emits the first limit ScanAll records under p.
func TestViewSpeaksChainIDs(t *testing.T) {
	var unranked int
	forRandomChains(t, func(c randomChain) {
		iter, v := c.iter, c.v
		dict := v.Dictionary()
		if dict != v.gens[len(v.gens)-1].Dictionary() {
			t.Fatalf("iter %d: Dictionary is not the newest generation's", iter)
		}
		if _, order := dict.Rank(); order != nil {
			unranked++
		}
		var all []kv
		texts := map[string][]byte{}
		err := v.ScanAll(func(k, val []byte) error {
			if n := len(all); n > 0 && bytes.Compare(all[n-1].key, k) >= 0 {
				return fmt.Errorf("key %x follows %x", k, all[n-1].key)
			}
			seq, err := encoding.DecodeSeq(k)
			if err != nil {
				return err
			}
			all = append(all, kv{append([]byte(nil), k...), append([]byte(nil), val...)})
			texts[dict.Format(seq)] = all[len(all)-1].value
			return nil
		})
		if err != nil {
			t.Fatalf("iter %d: ScanAll: %v", iter, err)
		}
		if len(texts) != len(all) || len(texts) != len(c.truth) {
			t.Fatalf("iter %d: ScanAll yields %d records, %d texts; brute force %d", iter, len(all), len(texts), len(c.truth))
		}
		for text, cl := range c.truth {
			if got := texts[text]; !bytes.Equal(got, cl.encode(c.kind)) {
				t.Fatalf("iter %d: %q = %x, brute force %x", iter, text, got, cl.encode(c.kind))
			}
		}

		// Every one- and two-term prefix the scan holds (one byte per
		// term at this vocabulary size), and the empty one.
		prefixes := [][]byte{{}}
		for _, r := range all {
			prefixes = append(prefixes, r.key[:1])
			if len(r.key) > 1 {
				prefixes = append(prefixes, r.key[:2])
			}
		}
		for _, prefix := range prefixes {
			for _, limit := range []int{1, 2, 5, 0} {
				var want []kv
				for _, r := range all {
					if bytes.HasPrefix(r.key, prefix) && (limit <= 0 || len(want) < limit) {
						want = append(want, r)
					}
				}
				var got []kv
				if err := v.ScanPrefix(prefix, limit, func(k, val []byte) error {
					got = append(got, kv{k, val})
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(got, want, func(a, b kv) bool { return bytes.Equal(a.key, b.key) && bytes.Equal(a.value, b.value) }) {
					t.Fatalf("iter %d: ScanPrefix(%x, %d) emits %d records, ScanAll holds %d first under it", iter, prefix, limit, len(got), len(want))
				}
			}
		}
	})
	// The contract is vacuous unless chain order and rank order differ.
	if unranked == 0 {
		t.Fatal("no view's dictionary is out of rank order")
	}
}

// TestPrefixStats: the view counts its bounded scans and the generation
// records their merges read; an early stop by the callback still counts
// the scan.
func TestPrefixStats(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	writeChain(t, dir, core.AggCount, 2, []testGen{
		{docs: []testDoc{{id: 0, year: 2000, sents: [][]string{{"a", "b", "a", "c"}}}}, depth: -1},
		{docs: []testDoc{{id: 1, year: 2000, sents: [][]string{{"a", "b", "b", "a"}}}}, depth: -1},
	})
	v := openTestChain(t, dir)
	a, err := v.Dictionary().Encode([]string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	for _, limit := range []int{0, 1} {
		if err := v.ScanPrefix(encoding.EncodeSeq(a), limit, func(k, val []byte) error {
			seen++
			return index.StopScan()
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Under "a": a, a b, a c in the base; a, a b in the delta. Each scan
	// stops at its first merged record, a, read from both generations.
	if scans, records := v.PrefixStats(); seen != 2 || scans != 2 || records != 4 {
		t.Fatalf("saw %d records; PrefixStats = %d scans, %d records; want 2, 2, 4", seen, scans, records)
	}
}

// unigrams builds one single-sentence document per (word, count) pair,
// so at σ = 1 a generation's records are exactly the given counts.
func unigrams(firstDoc int64, counts ...any) []testDoc {
	var docs []testDoc
	for i := 0; i < len(counts); i += 2 {
		sent := make([]string, counts[i+1].(int))
		for j := range sent {
			sent[j] = counts[i].(string)
		}
		docs = append(docs, testDoc{id: firstDoc + int64(i/2), year: 2000, sents: [][]string{sent}})
	}
	return docs
}

func rankedTexts(recs []topRec) string {
	var out []string
	for _, r := range recs {
		out = append(out, fmt.Sprintf("%s=%d", r.text, r.cf))
	}
	return strings.Join(out, " ")
}

// TestTopRecordsAbsentFromBase: an n-gram the base never saw but every
// delta did is found through the deltas' lists and summed.
func TestTopRecordsAbsentFromBase(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	writeChain(t, dir, core.AggCount, 1, []testGen{
		{docs: unigrams(0, "a", 9, "b", 3, "c", 1), depth: 2},
		{docs: unigrams(10, "x", 4, "a", 1, "c", 1), depth: 2},
		{docs: unigrams(20, "x", 4, "b", 2, "c", 1), depth: 2},
		{docs: unigrams(30, "x", 4, "a", 1, "b", 1, "c", 1), depth: 2},
	})
	v := openTestChain(t, dir)
	ranked := scanRanked(t, v)
	if got := rankedTexts(ranked[:2]); got != "x=12 a=11" {
		t.Fatalf("scan ranks %s first", got)
	}
	for _, k := range []int{1, 2} {
		if !checkMerge(t, v, ranked, k) {
			t.Fatalf("TopRecords(%d) declined", k)
		}
	}
}

// TestTopRecordsBelowEveryCutoff is the case the scanning fallback was
// once thought unavoidable for: "s" sits below every generation's own
// leader yet sums into the global top. Lists too short to reach it
// must decline (the bound never drops under the best sum in hand);
// one record deeper and the merge meets it, folds it by point gets and
// proves it. It is never missed.
func TestTopRecordsBelowEveryCutoff(t *testing.T) {
	for _, tc := range []struct {
		depth int
		ok    bool
	}{{1, false}, {2, false}, {3, true}} {
		dir := filepath.Join(t.TempDir(), "chain")
		var gens []testGen
		for g := 0; g < 3; g++ {
			gens = append(gens, testGen{depth: tc.depth, docs: unigrams(int64(10*g),
				fmt.Sprintf("h%d", g), 5, "s", 4, fmt.Sprintf("q%d", g), 1, fmt.Sprintf("r%d", g), 1)})
		}
		writeChain(t, dir, core.AggCount, 1, gens)
		v := openTestChain(t, dir)
		ranked := scanRanked(t, v)
		if got := rankedTexts(ranked[:2]); got != "s=12 h0=5" {
			t.Fatalf("scan ranks %s first", got)
		}
		if ok := checkMerge(t, v, ranked, 1); ok != tc.ok {
			t.Fatalf("depth %d: TopRecords(1) answered = %v, want %v", tc.depth, ok, tc.ok)
		}
		merged, scans := v.TopKStats()
		if want := map[bool][2]int64{true: {1, 0}, false: {0, 1}}[tc.ok]; [2]int64{merged, scans} != want {
			t.Fatalf("depth %d: TopKStats = %d merged, %d scans; want %v", tc.depth, merged, scans, want)
		}
	}
}

// TestTopRecordsDeltaWithoutTop: a chain holding a delta written
// before deltas carried top.run opens and declines every k, so the
// caller's scan answers.
func TestTopRecordsDeltaWithoutTop(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	writeChain(t, dir, core.AggCount, 2, []testGen{
		{docs: unigrams(0, "a", 3, "b", 2), depth: -1},
		{docs: unigrams(10, "a", 1, "c", 2), depth: 0},
	})
	if _, err := os.Stat(filepath.Join(dir, "delta-000000", index.TopFile)); !os.IsNotExist(err) {
		t.Fatalf("fixture delta has a top.run (err=%v)", err)
	}
	v := openTestChain(t, dir)
	for _, k := range []int{1, 3, 100} {
		if _, _, ok := v.TopRecords(k); ok {
			t.Fatalf("TopRecords(%d) answered past a generation with no stored list", k)
		}
	}
	if merged, scans := v.TopKStats(); merged != 0 || scans != 3 {
		t.Fatalf("TopKStats = %d merged, %d scans; want 0, 3", merged, scans)
	}
}

// TestTopRecordsChainOfOne: a chain with no deltas answers with
// exactly its base's stored records, to exactly the stored depth.
func TestTopRecordsChainOfOne(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	writeChain(t, dir, core.AggTimeSeries, 2, []testGen{
		{docs: unigrams(0, "a", 5, "b", 4, "c", 3, "d", 2), depth: 6},
	})
	v := openTestChain(t, dir)
	base := v.gens[0]
	for k := 0; k <= 6; k++ {
		keys, values, ok := v.TopRecords(k)
		if !ok || len(keys) != k {
			t.Fatalf("TopRecords(%d) = %d records, ok=%v", k, len(keys), ok)
		}
		for i := range keys {
			// Even the keys are the stored bytes.
			if wk, wv := base.TopRecord(i); !bytes.Equal(keys[i], wk) || !bytes.Equal(values[i], wv) {
				t.Fatalf("TopRecords(%d)[%d] is not the base's stored record", k, i)
			}
		}
	}
	if _, _, ok := v.TopRecords(7); ok {
		t.Fatal("TopRecords answered beyond the base's stored depth")
	}
}
