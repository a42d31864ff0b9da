package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ngramstats/internal/postings"
	"ngramstats/internal/sequence"
)

func TestBuildIndexRunningExample(t *testing.T) {
	col := runningExample()
	idx, err := BuildIndex(context.Background(), col, Params{
		Tau: 3, Sigma: 3, NumReducers: 3, InputSplits: 2, TempDir: t.TempDir(), K: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the six frequent n-grams are indexed.
	if idx.Len() != 6 {
		t.Fatalf("indexed n-grams = %d, want 6", idx.Len())
	}
	if idx.MaxLength() != 3 {
		t.Fatalf("MaxLength = %d", idx.MaxLength())
	}
	// Paper's example: ⟨a x b⟩ has postings ⟨d1:[0], d2:[1], d3:[2]⟩.
	locs, err := idx.Locations(sequence.Seq{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []Location{{DocID: 1, Position: 0}, {DocID: 2, Position: 1}, {DocID: 3, Position: 2}}
	if !reflect.DeepEqual(locs, want) {
		t.Fatalf("Locations(⟨a x b⟩) = %v, want %v", locs, want)
	}
	cf, ok, err := idx.CF(sequence.Seq{0, 1}) // ⟨x b⟩
	if err != nil || !ok || cf != 4 {
		t.Fatalf("CF(⟨x b⟩) = %d, %v, %v", cf, ok, err)
	}
	// Infrequent n-gram is absent.
	if _, ok, _ := idx.Postings(sequence.Seq{0, 0}); ok {
		t.Fatal("infrequent ⟨x x⟩ indexed")
	}
	if locs, _ := idx.Locations(sequence.Seq{0, 0}); locs != nil {
		t.Fatal("locations for unindexed n-gram")
	}
	if idx.Jobs() < 2 {
		t.Fatalf("jobs = %d", idx.Jobs())
	}
}

// TestIndexLocationsMatchDocuments verifies on random corpora that
// every reported location actually contains the n-gram (positions are
// document-global with sentence gaps).
func TestIndexLocationsMatchDocuments(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	col := randomCollection(rng, 8, 3, 10, 3)
	idx, err := BuildIndex(context.Background(), col, Params{
		Tau: 2, Sigma: 5, NumReducers: 3, InputSplits: 2, TempDir: t.TempDir(), K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the document-global position layout.
	flat := make(map[int64][]int64) // docID → term at global position (-1 = gap)
	for i := range col.Docs {
		d := &col.Docs[i]
		var arr []int64
		for _, s := range d.Sentences {
			for _, term := range s {
				arr = append(arr, int64(term))
			}
			arr = append(arr, -1) // sentence gap
		}
		flat[d.ID] = arr
	}
	checked := 0
	var ngrams []sequence.Seq
	if err := idx.Each(func(s sequence.Seq, _ postings.List) error {
		ngrams = append(ngrams, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(ngrams, sequence.Compare)
	for _, s := range ngrams {
		locs, err := idx.Locations(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range locs {
			arr := flat[loc.DocID]
			for i, term := range s {
				p := int(loc.Position) + i
				if p >= len(arr) || arr[p] != int64(term) {
					t.Fatalf("n-gram %v not at doc %d position %d", s, loc.DocID, loc.Position)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no locations checked")
	}
	// Index agrees with brute-force counts.
	want := BruteForce(col, 2, 5)
	if idx.Len() != len(want) {
		t.Fatalf("index size %d, want %d", idx.Len(), len(want))
	}
}

func TestIndexEach(t *testing.T) {
	col := runningExample()
	idx, err := BuildIndex(context.Background(), col, Params{
		Tau: 3, Sigma: 3, NumReducers: 2, InputSplits: 1, TempDir: t.TempDir(), K: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	err = idx.Each(func(s sequence.Seq, l postings.List) error {
		total += l.CF()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Σ cf over the six frequent n-grams: 3+5+7+3+4+3 = 25.
	if total != 25 {
		t.Fatalf("total cf = %d, want 25", total)
	}
}
