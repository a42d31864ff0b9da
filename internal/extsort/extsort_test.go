package extsort

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ngramstats/internal/encoding"
	"ngramstats/internal/sequence"
)

type kv struct{ k, v string }

func drain(t *testing.T, it *Iterator) []kv {
	t.Helper()
	var out []kv
	for it.Next() {
		out = append(out, kv{string(it.Key()), string(it.Value())})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	return out
}

func TestSortInMemory(t *testing.T) {
	s := NewSorter(Options{MemoryBudget: 1 << 20, TempDir: t.TempDir()})
	in := []kv{{"c", "3"}, {"a", "1"}, {"b", "2"}, {"a", "0"}}
	for _, r := range in {
		if err := s.Add([]byte(r.k), []byte(r.v)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Spills() != 0 {
		t.Fatalf("unexpected spills: %d", s.Spills())
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	want := []kv{{"a", "1"}, {"a", "0"}, {"b", "2"}, {"c", "3"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSortWithSpills(t *testing.T) {
	dir := t.TempDir()
	spills := 0
	s := NewSorter(Options{
		MemoryBudget: 256, // force frequent spills
		TempDir:      dir,
		OnSpill:      func(n int) { spills++ },
	})
	rng := rand.New(rand.NewSource(42))
	var want []kv
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%04d", rng.Intn(500))
		v := fmt.Sprintf("val-%d", i)
		want = append(want, kv{k, v})
		if err := s.Add([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Spills() == 0 || spills != s.Spills() {
		t.Fatalf("expected spills, got %d (callback %d)", s.Spills(), spills)
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	if len(got) != len(want) {
		t.Fatalf("record count: got %d, want %d", len(got), len(want))
	}
	// Keys must be globally sorted.
	for i := 1; i < len(got); i++ {
		if got[i-1].k > got[i].k {
			t.Fatalf("out of order at %d: %q > %q", i, got[i-1].k, got[i].k)
		}
	}
	// Multiset of records must be preserved (a permutation sort).
	sortKVs := func(s []kv) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].k != s[j].k {
				return s[i].k < s[j].k
			}
			return s[i].v < s[j].v
		})
	}
	g2 := append([]kv(nil), got...)
	w2 := append([]kv(nil), want...)
	sortKVs(g2)
	sortKVs(w2)
	if fmt.Sprint(g2) != fmt.Sprint(w2) {
		t.Fatal("sorted output is not a permutation of input")
	}
	// All spill files must be removed after Close.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill files remain: %v", ents)
	}
}

func TestSortEmpty(t *testing.T) {
	s := NewSorter(Options{TempDir: t.TempDir()})
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	if it.Next() {
		t.Fatal("empty sorter produced a record")
	}
	it.Close()
}

func TestSortCustomComparator(t *testing.T) {
	// Sort key-encoded term sequences in descending byte order, which is
	// the reverse lexicographic order of the SUFFIX-σ shuffle.
	s := NewSorter(Options{
		MemoryBudget: 128, // force spills so merge also uses the order
		TempDir:      t.TempDir(),
		Descending:   true,
	})
	seqs := []sequence.Seq{
		{1, 0, 0}, {1, 0}, {1, 2, 0}, {1}, {2}, {0, 5}, {1, 2},
		{300}, {300, 0}, {20000, 1}, {127, 20000}, {128},
	}
	for _, q := range seqs {
		if err := s.Add(encoding.AppendKey(nil, q), nil); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	var got []sequence.Seq
	for it.Next() {
		q, err := encoding.DecodeKeyInto(nil, it.Key())
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, q)
	}
	it.Close()
	want := append([]sequence.Seq(nil), seqs...)
	sort.Slice(want, func(i, j int) bool {
		return sequence.CompareReverseLex(want[i], want[j]) < 0
	})
	if len(got) != len(want) {
		t.Fatalf("count mismatch: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if !sequence.Equal(got[i], want[i]) {
			t.Fatalf("position %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestStabilityAcrossEqualKeys(t *testing.T) {
	// Values of equal keys must come out in insertion order when no
	// spills occur (stable in-memory sort), which the combiner relies on
	// only for determinism of tests, not correctness.
	s := NewSorter(Options{MemoryBudget: 1 << 20, TempDir: t.TempDir()})
	for i := 0; i < 10; i++ {
		if err := s.Add([]byte("k"), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for it.Next() {
		if it.Value()[0] != byte(i) {
			t.Fatalf("value order not stable at %d", i)
		}
		i++
	}
	it.Close()
}

func TestAddAfterSortFails(t *testing.T) {
	s := NewSorter(Options{TempDir: t.TempDir()})
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	it.Close()
	if err := s.Add([]byte("k"), nil); err == nil {
		t.Fatal("Add after Sort should fail")
	}
	if _, err := s.Sort(); err == nil {
		t.Fatal("double Sort should fail")
	}
}

func TestDiscardRemovesSpills(t *testing.T) {
	dir := t.TempDir()
	s := NewSorter(Options{MemoryBudget: 64, TempDir: dir})
	for i := 0; i < 100; i++ {
		if err := s.Add([]byte(fmt.Sprintf("key-%d", i)), bytes.Repeat([]byte("v"), 16)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Spills() == 0 {
		t.Fatal("expected spills")
	}
	s.Discard()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill files remain after Discard: %v", ents)
	}
}

func TestLargeValues(t *testing.T) {
	s := NewSorter(Options{MemoryBudget: 1 << 10, TempDir: t.TempDir()})
	big := bytes.Repeat([]byte("x"), 10<<10)
	for i := 0; i < 5; i++ {
		if err := s.Add([]byte{byte(5 - i)}, big); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		if len(it.Value()) != len(big) {
			t.Fatalf("value length %d", len(it.Value()))
		}
		n++
	}
	it.Close()
	if n != 5 {
		t.Fatalf("got %d records", n)
	}
}

func TestSpillFileNamesScoped(t *testing.T) {
	dir := t.TempDir()
	s := NewSorter(Options{MemoryBudget: 32, TempDir: dir})
	for i := 0; i < 50; i++ {
		if err := s.Add([]byte{byte(i)}, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("expected spill files on disk")
	}
	for _, e := range ents {
		if m, _ := filepath.Match("extsort-spill-*", e.Name()); !m {
			t.Fatalf("unexpected spill name %q", e.Name())
		}
	}
	s.Discard()
}
