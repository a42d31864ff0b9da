package mapreduce

import (
	"fmt"
	"sync"
	"testing"
)

// TestCountersSortedDeterministic asserts Sorted and String render in
// stable name order no matter the insertion order.
func TestCountersSortedDeterministic(t *testing.T) {
	mk := func(names []string) *Counters {
		c := NewCounters()
		for i, n := range names {
			c.Add(n, int64(i+1))
		}
		return c
	}
	a := mk([]string{"B", "A", "C", "D"})
	b := mk([]string{"D", "C", "A", "B"})
	for i := 0; i < 10; i++ {
		sa := a.Sorted()
		for j := 1; j < len(sa); j++ {
			if sa[j-1].Name >= sa[j].Name {
				t.Fatalf("Sorted not ordered: %v", sa)
			}
		}
	}
	wantStr := "A=2\nB=1\nC=3\nD=4\n"
	if a.String() != wantStr {
		t.Errorf("String() = %q, want %q", a.String(), wantStr)
	}
	if b.String() != "A=3\nB=4\nC=2\nD=1\n" {
		t.Errorf("String() = %q", b.String())
	}
}

// TestCountersMergeConcurrentWithAdd exercises the process-runner
// pattern — Merge (and MergeSnapshot) folding worker counters into
// the job group while in-flight tasks still Add — under the race
// detector, and checks no increment is lost.
func TestCountersMergeConcurrentWithAdd(t *testing.T) {
	const (
		adders     = 4
		addsEach   = 2000
		mergers    = 4
		mergesEach = 200
	)
	dst := NewCounters()
	var wg sync.WaitGroup
	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("ADD_%d", g)
			for i := 0; i < addsEach; i++ {
				dst.Add(name, 1)
				dst.Add("SHARED", 1)
			}
		}(g)
	}
	for g := 0; g < mergers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := NewCounters()
			src.Add("MERGED", 1)
			src.Add("SHARED", 1)
			for i := 0; i < mergesEach; i++ {
				if g%2 == 0 {
					dst.Merge(src)
				} else {
					dst.MergeSnapshot(src.Snapshot())
				}
				// Concurrent deterministic reads must not disturb the
				// writers.
				_ = dst.Sorted()
			}
		}(g)
	}
	wg.Wait()
	if got, want := dst.Get("MERGED"), int64(mergers*mergesEach); got != want {
		t.Errorf("MERGED = %d, want %d", got, want)
	}
	if got, want := dst.Get("SHARED"), int64(adders*addsEach+mergers*mergesEach); got != want {
		t.Errorf("SHARED = %d, want %d", got, want)
	}
	for g := 0; g < adders; g++ {
		if got := dst.Get(fmt.Sprintf("ADD_%d", g)); got != addsEach {
			t.Errorf("ADD_%d = %d, want %d", g, got, addsEach)
		}
	}
}
