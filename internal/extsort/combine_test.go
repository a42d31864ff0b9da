package extsort

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

// sumCombine folds each run of equal keys into one record carrying the
// sum of their decimal values.
func sumCombine(sorted *Iterator, write func(key, value []byte) error) error {
	var key []byte
	sum, have := 0, false
	flush := func() error {
		if !have {
			return nil
		}
		return write(key, []byte(strconv.Itoa(sum)))
	}
	for sorted.Next() {
		if !have || string(sorted.Key()) != string(key) {
			if err := flush(); err != nil {
				return err
			}
			key, sum, have = append(key[:0], sorted.Key()...), 0, true
		}
		n, err := strconv.Atoi(string(sorted.Value()))
		if err != nil {
			return err
		}
		sum += n
	}
	if err := sorted.Err(); err != nil {
		return err
	}
	return flush()
}

// TestCombineRunsAtSpillAndSeal fills a sorter whose budget forces
// several spills: every run — spilled or sealed in memory — must hold
// combined records only, report their count, and the runs together must
// still carry every unit added.
func TestCombineRunsAtSpillAndSeal(t *testing.T) {
	dir := t.TempDir()
	var spilled []int
	s := NewSorter(Options{
		MemoryBudget: 4 << 10, TempDir: dir, Combine: sumCombine,
		OnSpill: func(n int) { spilled = append(spilled, n) },
	})
	rng := rand.New(rand.NewSource(3))
	want := map[string]int{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%02d", rng.Intn(40))
		want[k]++
		if err := s.Add([]byte(k), []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(spilled) < 2 || len(runs) != len(spilled)+1 {
		t.Fatalf("spills %v, runs %d: want several spills and one in-memory run", spilled, len(runs))
	}
	for i, r := range runs {
		if r.Len() > 40 {
			t.Fatalf("run %d holds %d records for 40 distinct keys: not combined", i, r.Len())
		}
		if i < len(spilled) && r.Len() != spilled[i] {
			t.Fatalf("run %d holds %d records, OnSpill reported %d", i, r.Len(), spilled[i])
		}
	}
	got := map[string]int{}
	for _, r := range drainRuns(t, nil, runs) {
		n, _ := strconv.Atoi(r.v)
		got[r.k] += n
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("combined runs sum to %v, want %v", got, want)
	}
}

// TestCombineOutOfOrderFailsTheRun holds the sorter to its contract: a
// combiner that writes a key sorting before the previous one gets an
// error, not a corrupt run, and the failed Seal leaves no spill behind.
func TestCombineOutOfOrderFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	calls := 0
	s := NewSorter(Options{TempDir: dir, Combine: func(sorted *Iterator, write func(key, value []byte) error) error {
		if calls++; calls == 1 {
			return sumCombine(sorted, write) // the forced spill below
		}
		if err := write([]byte("b"), nil); err != nil {
			return err
		}
		return write([]byte("a"), nil)
	}})
	for _, k := range []string{"x", "y"} {
		if err := s.Add([]byte(k), []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Spill(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add([]byte("z"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Seal(); err == nil || !strings.Contains(err.Error(), "out of sort order") {
		t.Fatalf("Seal = %v, want an out-of-order error", err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("failed Seal left %d files behind", len(left))
	}
}

// TestCombineMayDropEverything: a combiner that writes nothing yields
// no run, from a spill and from the seal alike.
func TestCombineMayDropEverything(t *testing.T) {
	dir := t.TempDir()
	s := NewSorter(Options{TempDir: dir, Combine: func(sorted *Iterator, write func(key, value []byte) error) error {
		for sorted.Next() {
		}
		return sorted.Err()
	}})
	for round := 0; round < 2; round++ {
		if err := s.Add([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			if err := s.Spill(); err != nil {
				t.Fatal(err)
			}
		}
	}
	runs, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(dir); len(runs) != 0 || len(left) != 0 {
		t.Fatalf("got %d runs and %d files, want none", len(runs), len(left))
	}
}
