package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ngramstats"
)

func TestWordsAreDistinctAndEndInADigit(t *testing.T) {
	seen := make(map[string]int)
	for r := 0; r < 70000; r++ {
		w := word(r)
		if prev, dup := seen[w]; dup {
			t.Fatalf("ranks %d and %d both spell %q", prev, r, w)
		}
		seen[w] = r
		if c := w[len(w)-1]; c < '0' || c > '9' {
			t.Fatalf("word(%d) = %q does not end in a digit", r, w)
		}
	}
}

func TestBruteForce(t *testing.T) {
	docs := []ngramstats.Document{{Text: "a1 b2 a1 b2. c3 a1."}, {Text: "a1 b2."}}
	got := make(map[string]int64)
	tokens := bruteForce(got, docs, 2)
	want := map[string]int64{"a1": 4, "b2": 3, "c3": 1, "a1 b2": 3, "b2 a1": 1, "c3 a1": 1}
	if tokens != 8 || !reflect.DeepEqual(got, want) {
		t.Errorf("bruteForce = %d tokens %v, want 8 tokens %v", tokens, got, want)
	}
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	w, _ := workloadByName("serve-chain")
	w = w.scaled(quickScale)
	rounds := (&bench{w: w, seconds: runSeconds}).rounds()
	gen := func(seed int64) *inputs { return (&bench{w: w, seed: seed, seconds: runSeconds}).generate() }
	a, b, c := gen(7), gen(7), gen(8)
	if docsDigest(a.main) != docsDigest(b.main) || docsDigest(a.batches[3]) != docsDigest(b.batches[3]) {
		t.Error("the same seed generated different documents")
	}
	if docsDigest(a.main) == docsDigest(c.main) {
		t.Error("different seeds generated the same documents")
	}
	if len(a.main) != w.docs || len(a.deltas) != chainDepth || len(a.liveBase) != w.liveDocs || len(a.batches) != rounds*chainDepth {
		t.Errorf("inputs have %d main, %d deltas, %d live, %d batches", len(a.main), len(a.deltas), len(a.liveBase), len(a.batches))
	}

	// Operations are a function of the seed and the truth alone.
	truth := make(map[string]int64)
	bruteForce(truth, a.main, 2)
	var dump []entry
	for text, f := range truth {
		dump = append(dump, entry{text, f})
	}
	sort.Slice(dump, func(i, j int) bool { return dump[i].text < dump[j].text })
	ks, err := newKeyset(len(dump), func(add func(string, int64) error) error {
		for _, e := range dump {
			if err := add(e.text, e.freq); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range dump[:20] {
		if ks.count(e.text) != e.freq {
			t.Errorf("keyset counts %q as %d, want %d", e.text, ks.count(e.text), e.freq)
		}
	}
	if ks.count("no such phrase") != 0 || ks.ranked(0).freq < ks.ranked(1).freq {
		t.Error("keyset finds a phrase it was not given, or ranks by something other than frequency")
	}
	ops := func(seed int64) []op {
		g := newOpGen(seed, ks)
		out := make([]op, 200)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	if !reflect.DeepEqual(ops(1), ops(1)) {
		t.Error("the same seed drew different operations")
	}
	if reflect.DeepEqual(ops(1), ops(2)) {
		t.Error("different seeds drew the same operations")
	}
	kinds := make(map[opKind]int)
	for _, o := range ops(3) {
		kinds[o.kind]++
	}
	if kinds[opLookup] < 150 || kinds[opPrefix] == 0 {
		t.Errorf("operation mix %v: want mostly lookups and some prefix scans", kinds)
	}
}

func TestProfilesDiffer(t *testing.T) {
	nyt := genDocs(profiles["nyt"], 50, rand.New(rand.NewSource(1)))
	cw := genDocs(profiles["cw"], 50, rand.New(rand.NewSource(1)))
	if docsDigest(nyt) == docsDigest(cw) {
		t.Error("the two text profiles generated the same documents")
	}
}

// docsDigest identifies a generated input.
func docsDigest(docs []ngramstats.Document) string {
	h := sha256.New()
	for _, d := range docs {
		fmt.Fprintf(h, "%d\x00%s\x00", d.Year, d.Text)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
