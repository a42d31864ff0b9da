package extsort

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// benchRecords builds n records with small keys and values.
func benchRecords(n int) [][2][]byte {
	rng := rand.New(rand.NewSource(2))
	out := make([][2][]byte, n)
	for i := range out {
		k := binary.AppendUvarint(nil, uint64(rng.Intn(n)))
		v := binary.AppendUvarint(nil, 1)
		out[i] = [2][]byte{k, v}
	}
	return out
}

// BenchmarkSortInMemory measures pure in-memory sorting throughput
// (the common case of small shuffle partitions).
func BenchmarkSortInMemory(b *testing.B) {
	recs := benchRecords(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSorter(Options{MemoryBudget: 1 << 30, TempDir: b.TempDir()})
		for _, r := range recs {
			if err := s.Add(r[0], r[1]); err != nil {
				b.Fatal(err)
			}
		}
		it, err := s.Sort()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for it.Next() {
			n++
		}
		it.Close()
		if n != len(recs) {
			b.Fatalf("lost records: %d", n)
		}
	}
}

// BenchmarkMergeRuns measures the reduce-side merge of 16 sealed runs of
// NAIVE-shaped records (a reduce task's fan-in over 16 map tasks),
// sequential and fanned out across two goroutines.
func BenchmarkMergeRuns(b *testing.B) {
	runs := naiveShapedRuns(b, 16, 4000)
	records := 0
	for _, r := range runs {
		records += r.Len()
	}
	for _, width := range []int{1, 2} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it, err := MergeRunsParallel(nil, cloneRuns(runs), width)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for it.Next() {
					n++
				}
				if err := it.Err(); err != nil || n != records {
					b.Fatalf("merged %d of %d records: %v", n, records, err)
				}
				it.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
		})
	}
}

// BenchmarkSortWithSpills measures the spill-and-merge path with a
// deliberately tiny budget.
func BenchmarkSortWithSpills(b *testing.B) {
	recs := benchRecords(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSorter(Options{MemoryBudget: 64 << 10, TempDir: b.TempDir()})
		for _, r := range recs {
			if err := s.Add(r[0], r[1]); err != nil {
				b.Fatal(err)
			}
		}
		it, err := s.Sort()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for it.Next() {
			n++
		}
		it.Close()
		if n != len(recs) {
			b.Fatalf("lost records: %d", n)
		}
	}
}
