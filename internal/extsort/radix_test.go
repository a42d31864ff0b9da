package extsort

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// radixInput returns n random keys of 0–20 bytes drawn to stress the
// abbreviated-key sort: a small alphabet that includes 0x00, keys that
// extend other keys (by zero bytes, too), and long runs of duplicates.
func radixInput(rng *rand.Rand, n int) [][]byte {
	keys := make([][]byte, 0, n)
	for len(keys) < n {
		switch rng.Intn(4) {
		case 0: // a fresh random key
			k := make([]byte, rng.Intn(21))
			for i := range k {
				k[i] = []byte{0x00, 0x01, 0x7F, 0x80, 0xFF}[rng.Intn(5)]
			}
			keys = append(keys, k)
		case 1: // an extension of an earlier key
			if len(keys) > 0 {
				k := slices.Clone(keys[rng.Intn(len(keys))])
				for m := rng.Intn(3) + 1; m > 0 && len(k) < 20; m-- {
					k = append(k, byte(rng.Intn(2)))
				}
				keys = append(keys, k)
			}
		case 2: // a prefix of an earlier key
			if len(keys) > 0 {
				k := keys[rng.Intn(len(keys))]
				keys = append(keys, slices.Clone(k[:rng.Intn(len(k)+1)]))
			}
		default: // a run of duplicates
			if len(keys) > 0 {
				k := keys[rng.Intn(len(keys))]
				for m := rng.Intn(40); m > 0; m-- {
					keys = append(keys, k)
				}
			}
		}
	}
	return keys[:n]
}

// TestRadixSortMatchesComparisonSort: in memory and spilled, ascending
// and descending, the merge of a sorter's sealed runs is the comparison
// sort of its input with ties in insertion order — record for record.
func TestRadixSortMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		keys := radixInput(rng, 1+rng.Intn(3000))
		for _, descending := range []bool{false, true} {
			for _, budget := range []int{1 << 30, 2048} {
				name := fmt.Sprintf("trial=%d/descending=%v/budget=%d", trial, descending, budget)
				t.Run(name, func(t *testing.T) {
					cmp := Order(descending)
					want := make([]int, len(keys))
					for i := range want {
						want[i] = i
					}
					slices.SortFunc(want, func(a, b int) int {
						if c := cmp(keys[a], keys[b]); c != 0 {
							return c
						}
						return a - b
					})
					s := NewSorter(Options{MemoryBudget: budget, TempDir: t.TempDir(), Descending: descending})
					for i, k := range keys {
						if err := s.Add(k, binary.AppendUvarint(nil, uint64(i))); err != nil {
							t.Fatal(err)
						}
					}
					if budget < 1<<30 && s.Spills() == 0 && len(keys) > 200 {
						t.Fatal("small budget did not spill")
					}
					runs, err := s.Seal()
					if err != nil {
						t.Fatal(err)
					}
					it, err := MergeRuns(cmp, runs)
					if err != nil {
						t.Fatal(err)
					}
					defer it.Close()
					n := 0
					for ; it.Next(); n++ {
						got, _ := binary.Uvarint(it.Value())
						if n >= len(want) || int(got) != want[n] {
							t.Fatalf("record %d: got input %d (%x), want input %d (%x)", n, got, it.Key(), want[n], keys[want[n]])
						}
					}
					if err := it.Err(); err != nil || n != len(want) {
						t.Fatalf("merged %d of %d records: %v", n, len(want), err)
					}
				})
			}
		}
	}
}

// TestSealKeyComparisons pins the full-key comparisons the seal's sort
// makes. Keys of at most 8 bytes are ordered by their abbreviation
// alone, even where one is another plus zero bytes; longer keys cost a
// comparison only for a tie in their first 8 bytes, once per adjacent
// pair of a run already in order.
func TestSealKeyComparisons(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys [][]byte
		want int
	}{
		{"distinct short keys", func() [][]byte {
			keys := [][]byte{{}, {0}, {0, 0}, {'a'}, {'a', 0}, {'a', 0, 0, 0, 0, 0, 0, 0}}
			for i := 2000; i > 0; i-- {
				keys = append(keys, binary.BigEndian.AppendUint32(nil, uint32(i*7919)))
			}
			return keys
		}(), 0},
		{"long keys with distinct prefixes", func() [][]byte {
			var keys [][]byte
			for i := 500; i > 0; i-- {
				keys = append(keys, []byte(fmt.Sprintf("%08d-suffix", i)))
			}
			return keys
		}(), 0},
		{"long keys sharing 8 bytes, in order", func() [][]byte {
			var keys [][]byte
			for i := 0; i < 256; i++ {
				keys = append(keys, []byte{'s', 'h', 'a', 'r', 'e', 'd', '-', '-', byte(i)})
			}
			return keys
		}(), 255},
		{"a long key repeated", bytes.Split(bytes.Repeat([]byte("repeated-key,"), 10), []byte(","))[:10], 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSorter(Options{TempDir: t.TempDir()})
			for _, k := range tc.keys {
				if err := s.Add(k, nil); err != nil {
					t.Fatal(err)
				}
			}
			runs, err := s.Seal()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range runs {
				defer r.Discard()
			}
			if s.keyCompares != tc.want {
				t.Fatalf("seal made %d full-key comparisons, want %d", s.keyCompares, tc.want)
			}
		})
	}
}
