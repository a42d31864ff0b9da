package extsort

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"
)

func drainRuns(t *testing.T, cmp Compare, runs []*Run) []kv {
	t.Helper()
	it, err := MergeRuns(cmp, runs)
	if err != nil {
		t.Fatal(err)
	}
	return drain(t, it)
}

func TestSealEmptySorter(t *testing.T) {
	s := NewSorter(Options{TempDir: t.TempDir()})
	runs, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("empty sorter sealed %d runs", len(runs))
	}
	if got := drainRuns(t, nil, runs); len(got) != 0 {
		t.Fatalf("empty merge produced %v", got)
	}
}

func TestMergeRunsZeroRuns(t *testing.T) {
	it, err := MergeRuns(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if it.Next() {
		t.Fatal("zero-run merge produced a record")
	}
	it.Close()
}

func TestSealSingleInMemoryRun(t *testing.T) {
	s := NewSorter(Options{MemoryBudget: 1 << 20, TempDir: t.TempDir()})
	in := []kv{{"c", "3"}, {"a", "1"}, {"b", "2"}}
	for _, r := range in {
		if err := s.Add([]byte(r.k), []byte(r.v)); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || !runs[0].InMemory() || runs[0].Len() != 3 {
		t.Fatalf("runs = %+v", runs)
	}
	got := drainRuns(t, nil, runs)
	want := []kv{{"a", "1"}, {"b", "2"}, {"c", "3"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSealWithSpillsMergesGlobally(t *testing.T) {
	dir := t.TempDir()
	s := NewSorter(Options{MemoryBudget: 256, TempDir: dir})
	rng := rand.New(rand.NewSource(7))
	var want []kv
	for i := 0; i < 1500; i++ {
		k := fmt.Sprintf("key-%04d", rng.Intn(400))
		v := fmt.Sprintf("val-%d", i)
		want = append(want, kv{k, v})
		if err := s.Add([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) < 2 {
		t.Fatalf("expected multiple runs, got %d", len(runs))
	}
	onDisk, total := 0, 0
	for _, r := range runs {
		if !r.InMemory() {
			onDisk++
		}
		total += r.Len()
	}
	if onDisk == 0 {
		t.Fatal("expected on-disk runs")
	}
	if total != len(want) {
		t.Fatalf("run lengths sum to %d, want %d", total, len(want))
	}
	got := drainRuns(t, nil, runs)
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].k > got[i].k {
			t.Fatalf("out of order at %d: %q > %q", i, got[i-1].k, got[i].k)
		}
	}
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
		t.Fatal("merged output is not a permutation of input")
	}
	// The merge iterator owned the spill files; Close must remove them.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill files remain: %v", ents)
	}
}

func TestMergeRunsFromManySorters(t *testing.T) {
	// The shuffle shape: each "map task" seals its own runs, the
	// "reduce task" merges all of them.
	dir := t.TempDir()
	var all []*Run
	var want []kv
	for task := 0; task < 5; task++ {
		s := NewSorter(Options{MemoryBudget: 128, TempDir: dir})
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("k%03d", (task*37+i*13)%100)
			v := fmt.Sprintf("t%d-%d", task, i)
			want = append(want, kv{k, v})
			if err := s.Add([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		runs, err := s.Seal()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, runs...)
	}
	got := drainRuns(t, nil, all)
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].k > got[i].k {
			t.Fatalf("out of order at %d", i)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill files remain: %v", ents)
	}
}

func TestMergeRunsCustomComparator(t *testing.T) {
	var all []*Run
	for task := 0; task < 3; task++ {
		s := NewSorter(Options{MemoryBudget: 1 << 20, TempDir: t.TempDir(), Descending: true})
		for i := 0; i < 10; i++ {
			if err := s.Add([]byte(fmt.Sprintf("k%d-%d", i, task)), nil); err != nil {
				t.Fatal(err)
			}
		}
		runs, err := s.Seal()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, runs...)
	}
	got := drainRuns(t, Order(true), all)
	if len(got) != 30 {
		t.Fatalf("got %d records", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].k < got[i].k {
			t.Fatalf("not descending at %d: %q < %q", i, got[i-1].k, got[i].k)
		}
	}
}

func TestRunDiscardRemovesSpillFile(t *testing.T) {
	dir := t.TempDir()
	s := NewSorter(Options{MemoryBudget: 64, TempDir: dir})
	for i := 0; i < 100; i++ {
		if err := s.Add([]byte(fmt.Sprintf("key-%d", i)), bytes.Repeat([]byte("v"), 16)); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		r.Discard()
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill files remain after Discard: %v", ents)
	}
}

func TestExplicitSpillThenSeal(t *testing.T) {
	s := NewSorter(Options{MemoryBudget: 1 << 20, TempDir: t.TempDir()})
	for i := 0; i < 10; i++ {
		if err := s.Add([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Spill(); err != nil {
		t.Fatal(err)
	}
	if s.MemoryInUse() != 0 {
		t.Fatalf("MemoryInUse = %d after Spill", s.MemoryInUse())
	}
	if err := s.Spill(); err != nil { // empty buffer: no-op
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		if err := s.Add([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("expected 1 disk + 1 memory run, got %d", len(runs))
	}
	if got := drainRuns(t, nil, runs); len(got) != 20 {
		t.Fatalf("got %d records", len(got))
	}
}

func TestSealAfterSortFails(t *testing.T) {
	s := NewSorter(Options{TempDir: t.TempDir()})
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	it.Close()
	if _, err := s.Seal(); err == nil {
		t.Fatal("Seal after Sort should fail")
	}
	if err := s.Spill(); err == nil {
		t.Fatal("Spill after Sort should fail")
	}
}

func TestAddAfterSealFails(t *testing.T) {
	s := NewSorter(Options{TempDir: t.TempDir()})
	if _, err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add([]byte("k"), nil); err == nil {
		t.Fatal("Add after Seal should fail")
	}
}
