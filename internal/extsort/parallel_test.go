package extsort

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
)

// buildShuffleRuns seals nSorters sorters over a deterministic record
// stream with heavy key duplication across sorters, so equal-key
// tie-break order (run index) is observable in the merged value order.
func buildShuffleRuns(t *testing.T, dir string, nSorters int, seed int64) []*Run {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var all []*Run
	for s := 0; s < nSorters; s++ {
		srt := NewSorter(Options{MemoryBudget: 512, TempDir: dir})
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("key-%03d", rng.Intn(60))
			v := fmt.Sprintf("sorter-%d-rec-%d", s, i)
			if err := srt.Add([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		runs, err := srt.Seal()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, runs...)
	}
	return all
}

// TestParallelMergeMatchesSequential forces the parallel merge path
// (this container may have GOMAXPROCS=1) and asserts the record stream
// is byte-identical to the sequential merge over identical runs —
// including the order of values under duplicated keys, which is where a
// wrong tie-break would show.
func TestParallelMergeMatchesSequential(t *testing.T) {
	defer SetMergeParallelism(0)

	for _, nSorters := range []int{4, 9, 16} {
		t.Run(fmt.Sprintf("sorters=%d", nSorters), func(t *testing.T) {
			SetMergeParallelism(1)
			seqRuns := buildShuffleRuns(t, t.TempDir(), nSorters, 42)
			if nSorters >= 8 && len(seqRuns) < parallelMergeMinFanIn {
				t.Fatalf("want fan-in >= %d to exercise the parallel path, got %d",
					parallelMergeMinFanIn, len(seqRuns))
			}
			seq := drainRuns(t, nil, seqRuns)

			SetMergeParallelism(4)
			parRuns := buildShuffleRuns(t, t.TempDir(), nSorters, 42)
			par := drainRuns(t, nil, parRuns)

			if len(seq) != len(par) {
				t.Fatalf("parallel merge yielded %d records, sequential %d", len(par), len(seq))
			}
			for i := range seq {
				if seq[i] != par[i] {
					t.Fatalf("record %d differs: sequential %v, parallel %v", i, seq[i], par[i])
				}
			}
		})
	}
}

// TestParallelMergeEarlyClose abandons a parallel merge mid-stream and
// checks the producer goroutines release every spill file.
func TestParallelMergeEarlyClose(t *testing.T) {
	SetMergeParallelism(4)
	defer SetMergeParallelism(0)
	dir := t.TempDir()
	runs := buildShuffleRuns(t, dir, 12, 99)
	it, err := MergeRuns(nil, runs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && it.Next(); i++ {
	}
	it.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill files remain after Close: %v", ents)
	}
}
