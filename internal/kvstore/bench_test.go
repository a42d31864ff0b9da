package kvstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkGetFromSegments measures disk-backed lookups with a warm
// cache — the APRIORI-SCAN dictionary access pattern ("lookups of
// frequent (k−1)-grams typically hit the cache") — on a store whose
// Puts spilled.
func BenchmarkGetFromSegments(b *testing.B) {
	s := Open(Options{MemoryBudget: 4 << 10, TempDir: b.TempDir()})
	defer s.Close()
	const n = 5000
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Freeze(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	// Zipf-ish skew: most lookups hit few keys (cache-friendly).
	zipf := rand.NewZipf(rng, 1.3, 1, n-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := fmt.Sprintf("key-%06d", zipf.Uint64())
		if _, ok, err := s.Get([]byte(k)); err != nil || !ok {
			b.Fatalf("miss for %s: %v", k, err)
		}
	}
}

// BenchmarkPut measures write throughput across the sorter's spills.
func BenchmarkPut(b *testing.B) {
	s := Open(Options{MemoryBudget: 1 << 20, TempDir: b.TempDir()})
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%09d", i)), []byte("0123456789")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkListAppendEach measures the spillable list used by the
// APRIORI-INDEX join reducer: append records past the budget, then
// read them all back.
func BenchmarkListAppendEach(b *testing.B) {
	l := NewList(256<<10, b.TempDir())
	defer l.Close()
	rec := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Each(func([]byte) error { return nil }); err != nil {
		b.Fatal(err)
	}
}
