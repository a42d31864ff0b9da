package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestParamsGeometry(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Epsilon != 1e-4 || p.Delta != 0.01 || p.Orders != 5 || p.TopK != 128 {
		t.Fatalf("defaults = %+v", p)
	}
	if got, want := p.Width(), int(math.Ceil(math.E/1e-4)); got != want {
		t.Fatalf("Width() = %d, want %d", got, want)
	}
	if got, want := p.Depth(), int(math.Ceil(math.Log(100.0))); got != want {
		t.Fatalf("Depth() = %d, want %d", got, want)
	}
	if _, err := NewGroup(Params{Epsilon: 2}); err == nil {
		t.Fatal("NewGroup accepted epsilon 2")
	}
	if _, err := NewGroup(Params{Delta: 1.5}); err == nil {
		t.Fatal("NewGroup accepted delta 1.5")
	}
}

// zipfStream returns a deterministic skewed stream of keys plus the
// exact count of each key.
func zipfStream(t testing.TB, seed int64, keys, updates int) (stream [][]byte, exact map[string]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.3, 1.0, uint64(keys-1))
	stream = make([][]byte, updates)
	exact = make(map[string]int64)
	for i := range stream {
		k := []byte(fmt.Sprintf("key-%06d", z.Uint64()))
		stream[i] = k
		exact[string(k)]++
	}
	return stream, exact
}

func TestSketchOneSidedAndBounded(t *testing.T) {
	p := Params{Epsilon: 0.005, Delta: 0.05, Orders: 1, TopK: 8}
	s := NewSketch(p.Width(), p.Depth())
	stream, exact := zipfStream(t, 1, 20_000, 200_000)
	for _, k := range stream {
		s.Update(k, 1)
	}
	if s.N() != int64(len(stream)) {
		t.Fatalf("N = %d, want %d", s.N(), len(stream))
	}
	bound := int64(math.Ceil(p.Epsilon * float64(s.N())))
	var over int
	for k, want := range exact {
		got := s.Estimate([]byte(k))
		if got < want {
			t.Fatalf("estimate(%q) = %d below exact %d: one-sidedness broken", k, got, want)
		}
		if got > want+bound {
			over++
		}
	}
	if frac := float64(over) / float64(len(exact)); frac > p.Delta {
		t.Fatalf("%.4f of keys exceed the eps*N bound, want <= delta %v", frac, p.Delta)
	}
}

// TestSketchConcurrentOneSided drives heavy same-key contention through
// Update from many goroutines and then checks no increment was lost —
// the property the row-0-capped conservative update exists to preserve.
func TestSketchConcurrentOneSided(t *testing.T) {
	s := NewSketch(Params{Epsilon: 0.01, Delta: 0.05}.Width(), Params{Epsilon: 0.01, Delta: 0.05}.Depth())
	const workers, perWorker, hotKeys = 8, 20_000, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				s.Update([]byte(fmt.Sprintf("hot-%02d", rng.Intn(hotKeys))), 1)
			}
		}(int64(w))
	}
	wg.Wait()
	if s.N() != workers*perWorker {
		t.Fatalf("N = %d, want %d", s.N(), workers*perWorker)
	}
	var sum int64
	for k := 0; k < hotKeys; k++ {
		sum += s.Estimate([]byte(fmt.Sprintf("hot-%02d", k)))
	}
	// Estimates are one-sided per key; with only hotKeys keys total their
	// sum must cover every update folded in.
	if sum < workers*perWorker {
		t.Fatalf("sum of hot-key estimates %d < %d updates: increments lost under contention", sum, workers*perWorker)
	}
}

func TestTopK(t *testing.T) {
	tk := NewTopK(3)
	tk.Offer([]byte("a"), 1, 10)
	tk.Offer([]byte("b"), 1, 20)
	tk.Offer([]byte("c"), 2, 5)
	tk.Offer([]byte("d"), 1, 1) // below min once full? heap not full yet: evicts on next
	tk.Offer([]byte("e"), 1, 30)
	got := tk.Items(0)
	if len(got) != 3 {
		t.Fatalf("Items = %d entries, want 3", len(got))
	}
	if string(got[0].Key) != "e" || string(got[1].Key) != "b" || string(got[2].Key) != "a" {
		t.Fatalf("Items order = %q %q %q", got[0].Key, got[1].Key, got[2].Key)
	}
	// Re-offering a tracked key with a larger estimate updates in place.
	tk.Offer([]byte("a"), 1, 50)
	if got := tk.Items(1); string(got[0].Key) != "a" || got[0].Estimate != 50 {
		t.Fatalf("after upgrade, top = %q/%d", got[0].Key, got[0].Estimate)
	}
	// Offers at or below the floor of a full heap are ignored.
	tk.Offer([]byte("z"), 1, 2)
	for _, e := range tk.Items(0) {
		if string(e.Key) == "z" {
			t.Fatal("floor-rejected key entered the heap")
		}
	}
}

func TestGroupUpdateAndMerge(t *testing.T) {
	p := Params{Epsilon: 0.01, Delta: 0.1, Orders: 3, TopK: 4}
	a, err := NewGroup(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGroup(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		a.Update(1, []byte("x"), 1)
		b.Update(1, []byte("x"), 2)
		b.Update(2, []byte("xy"), 1)
	}
	a.AddDocs(3)
	b.AddDocs(4)
	if est, ok := a.Estimate(1, []byte("x")); !ok || est < 100 {
		t.Fatalf("a.Estimate(x) = %d,%v", est, ok)
	}
	if _, ok := a.Estimate(4, []byte("x")); ok {
		t.Fatal("Estimate accepted order beyond Orders")
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if est, _ := a.Estimate(1, []byte("x")); est < 300 {
		t.Fatalf("merged estimate = %d, want >= 300", est)
	}
	if est, _ := a.Estimate(2, []byte("xy")); est < 100 {
		t.Fatalf("merged order-2 estimate = %d, want >= 100", est)
	}
	if a.Docs() != 7 || a.N(1) != 300 || a.N(2) != 100 {
		t.Fatalf("merged totals: docs=%d n1=%d n2=%d", a.Docs(), a.N(1), a.N(2))
	}
	other, _ := NewGroup(Params{Epsilon: 0.02, Delta: 0.1, Orders: 3, TopK: 4})
	if err := a.Merge(other); err == nil {
		t.Fatal("Merge accepted incompatible params")
	}
}
