package extsort

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
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

// naiveShapedRuns seals n sorters of NAIVE-shaped map output — every
// n-gram of up to five Zipf-distributed terms, uvarint-encoded, with a
// one-byte unit count — of about tokens terms each, in memory. The
// records are a few bytes long, the shape that packs the most records
// into one hand-off batch.
func naiveShapedRuns(tb testing.TB, n, tokens int) []*Run {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.07, 1, 20000)
	one := []byte{1}
	var key []byte
	var sent []uint64
	runs := make([]*Run, 0, n)
	for r := 0; r < n; r++ {
		s := NewSorter(Options{TempDir: tb.TempDir()})
		for seen := 0; seen < tokens; seen += len(sent) {
			sent = sent[:0]
			for l := 5 + rng.Intn(25); l > 0; l-- {
				sent = append(sent, zipf.Uint64())
			}
			for b := range sent {
				key = key[:0]
				for _, t := range sent[b:min(b+5, len(sent))] {
					key = binary.AppendUvarint(key, t)
					if err := s.Add(key, one); err != nil {
						tb.Fatal(err)
					}
				}
			}
		}
		sealed, err := s.Seal()
		if err != nil {
			tb.Fatal(err)
		}
		runs = append(runs, sealed...)
	}
	return runs
}

// cloneRuns returns fresh Run values over the same in-memory encodings,
// for a merge to take ownership of: in-memory run data is read-only.
func cloneRuns(runs []*Run) []*Run {
	out := make([]*Run, len(runs))
	for i, r := range runs {
		c := *r
		out[i] = &c
	}
	return out
}

// TestParallelMergeMatchesSequential asserts that the record stream of
// a merge is byte-identical at widths 1, 2 and 4 over identical runs —
// including the order of values under duplicated keys, which is where a
// wrong tie-break would show. The width is passed, so the fan-out runs
// whatever the machine's CPU count.
func TestParallelMergeMatchesSequential(t *testing.T) {
	for _, nSorters := range []int{4, 9, 16} {
		t.Run(fmt.Sprintf("sorters=%d", nSorters), func(t *testing.T) {
			var seq []kv
			for _, width := range []int{1, 2, 4} {
				runs := buildShuffleRuns(t, t.TempDir(), nSorters, 42)
				if nSorters >= 8 && len(runs) < parallelMergeMinFanIn {
					t.Fatalf("want fan-in >= %d to exercise the parallel path, got %d",
						parallelMergeMinFanIn, len(runs))
				}
				it, err := MergeRunsParallel(nil, runs, width)
				if err != nil {
					t.Fatal(err)
				}
				got := drain(t, it)
				if width == 1 {
					seq = got
					continue
				}
				if len(seq) != len(got) {
					t.Fatalf("width %d merge yielded %d records, sequential %d", width, len(got), len(seq))
				}
				for i := range seq {
					if seq[i] != got[i] {
						t.Fatalf("width %d: record %d differs: sequential %v, parallel %v", width, i, seq[i], got[i])
					}
				}
			}
		})
	}
}

// TestParallelMergeEarlyClose abandons a merge mid-stream at widths 1,
// 2 and 4 and checks every spill file is released, the producer
// goroutines' included.
func TestParallelMergeEarlyClose(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			dir := t.TempDir()
			runs := buildShuffleRuns(t, dir, 12, 99)
			it, err := MergeRunsParallel(nil, runs, width)
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
		})
	}
}

// TestMergeGroups pins how many goroutines a merge of a given fan-in
// uses at a given width.
func TestMergeGroups(t *testing.T) {
	for _, tc := range []struct{ runs, width, want int }{
		{16, 1, 1},  // no CPUs to spare: sequential
		{16, 0, 1},  // a width below 1 is sequential too
		{7, 4, 1},   // fan-in below the floor
		{8, 4, 2},   // ⌈8/4⌉ groups of four runs
		{16, 2, 2},  // capped by the width
		{16, 16, 4}, // capped by the groups the runs fill
	} {
		if got := mergeGroups(tc.runs, tc.width); got != tc.want {
			t.Errorf("mergeGroups(%d runs, width %d) = %d, want %d", tc.runs, tc.width, got, tc.want)
		}
	}
}

// mergedBytesPerRecord drains a width-wide merge of fresh clones of
// runs and reports the heap bytes it allocated per merged record.
func mergedBytesPerRecord(t *testing.T, runs []*Run, width int) float64 {
	t.Helper()
	clones := cloneRuns(runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	it, err := MergeRunsParallel(nil, clones, width)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestParallelMergeBatchAllocs gates the hand-off of a fanned-out merge:
// its batches are capped in records as well as bytes and recycled across
// merges, so once warm a width-2 merge of NAIVE-shaped records allocates
// little more per record than the sequential merge of the same runs,
// instead of regrowing a 32-byte table entry per few-byte record.
func TestParallelMergeBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	runs := naiveShapedRuns(t, 16, 4000)
	mergedBytesPerRecord(t, runs, 2) // warm the batch pool
	seq := mergedBytesPerRecord(t, runs, 1)
	par := mergedBytesPerRecord(t, runs, 2)
	t.Logf("bytes allocated per merged record: %.2f at width 1, %.2f at width 2", seq, par)
	if par > seq+2 {
		t.Fatalf("a width-2 merge allocates %.2f bytes per record, the sequential one %.2f; want at most 2 more", par, seq)
	}
}
