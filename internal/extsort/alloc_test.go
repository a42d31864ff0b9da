package extsort

import (
	"bytes"
	"fmt"
	"testing"
)

// TestReadBlockAllocs gates the per-ReadBlock allocation count: the
// pooled decoder keeps its scratch (key buffer, decompression buffer,
// flate reader) across calls, so a steady-state decode pays only for
// the immutable DecodedBlock it returns (struct, arena, record spans).
func TestReadBlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	for _, tc := range []struct {
		codec Codec
		limit float64 // flate's Reset path allocates a few internals
	}{{CodecRaw, 8}, {CodecFlate, 12}} {
		codec, limit := tc.codec, tc.limit
		t.Run(codec.String(), func(t *testing.T) {
			data, _ := encodeTestRun(t, 20000, codec)
			rr, err := OpenRunReader(int64(len(data)), memReadAt(data))
			if err != nil {
				t.Fatal(err)
			}
			if rr.NumBlocks() < 2 {
				t.Fatalf("want multiple blocks, got %d", rr.NumBlocks())
			}
			b := 0
			avg := testing.AllocsPerRun(100, func() {
				if _, err := rr.ReadBlock(b % rr.NumBlocks()); err != nil {
					t.Fatal(err)
				}
				b++
			})
			// DecodedBlock struct + presized arena and spans + at most a
			// couple of arena growth steps.
			if avg > limit {
				t.Fatalf("ReadBlock allocates %.1f times per block, want <= %v", avg, limit)
			}
		})
	}
}

// TestRunWriterAppendAllocs gates the encode side: with the pooled
// block buffer warmed up, appending a record allocates nothing.
func TestRunWriterAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	var buf bytes.Buffer
	buf.Grow(8 << 20)
	rw := NewRunWriter(&buf, CodecRaw)
	i := 0
	add := func() {
		k := fmt.Sprintf("key-%06d", i)
		if err := rw.Append([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < 20000 {
		add()
	}
	avg := testing.AllocsPerRun(5000, add)
	// fmt.Sprintf + the []byte conversions belong to the test harness
	// (3 allocs); the writer itself must add only the amortized footer
	// index entry on a block flush.
	if avg > 4 {
		t.Fatalf("Append allocates %.1f times per record, want <= 4", avg)
	}
}

// TestSealRecyclesBuffers: Seal encodes its buffer into a run of its
// own, so the record arena and table go back to the pools — the next
// sorter starts on them instead of growing from zero.
func TestSealRecyclesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	for getArena() != nil || getRecs() != nil { // leftovers of earlier tests
	}
	s := NewSorter(Options{TempDir: t.TempDir()})
	for i := 0; i < 1000; i++ {
		if err := s.Add([]byte(fmt.Sprintf("key-%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	arenaCap, recsCap := cap(s.arena), cap(s.recs)
	runs, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	defer runs[0].Discard()
	next := NewSorter(Options{TempDir: t.TempDir()})
	defer next.Discard()
	if cap(next.arena) != arenaCap || cap(next.recs) != recsCap {
		t.Fatalf("sorter after a Seal starts with arena cap %d, table cap %d; the sealed one had %d and %d",
			cap(next.arena), cap(next.recs), arenaCap, recsCap)
	}
}

// TestReserveStopsGrowth: a sorter told its input up front — an index
// save, a compaction — sizes its record table once, so the Adds that
// follow never regrow it (on a warm arena they allocate nothing); an
// input past the memory budget reserves only what the buffer holds
// before it spills.
func TestReserveStopsGrowth(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	for getArena() != nil || getRecs() != nil { // leftovers of earlier tests
	}
	const n = 50000
	key, val := []byte("key-000000"), []byte("v")
	s := NewSorter(Options{TempDir: t.TempDir()})
	defer s.Discard()
	s.arena = make([]byte, 0, n*(len(key)+len(val))) // as if recycled warm
	s.Reserve(n)
	recsCap := cap(s.recs)
	// One warm-up call plus n-1 measured ones: n records in all.
	avg := testing.AllocsPerRun(n-1, func() {
		if err := s.Add(key, val); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 || cap(s.recs) != recsCap || s.Len() != n {
		t.Fatalf("%d reserved Adds: %.2f allocs each, table cap %d → %d", s.Len(), avg, recsCap, cap(s.recs))
	}

	const budget = 1 << 20
	big := NewSorter(Options{MemoryBudget: budget, TempDir: t.TempDir()})
	defer big.Discard()
	big.Reserve(1 << 30)
	if got := cap(big.recs) * recordOverhead; got < budget || got > budget+budget/4 {
		t.Fatalf("a billion records reserved a table of %d bytes under a budget of %d", got, budget)
	}
}
