package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ngramstats/internal/extsort"
)

func TestPutGetInMemory(t *testing.T) {
	s := Open(Options{MemoryBudget: 1 << 20, TempDir: t.TempDir()})
	defer s.Close()
	if err := s.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if s.sorter.Spills() != 0 {
		t.Fatalf("unexpected spills: %d", s.sorter.Spills())
	}
	if _, _, err := s.Get([]byte("k1")); err == nil {
		t.Fatal("Get before Freeze should fail")
	}
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	_, ok, err = s.Get([]byte("absent"))
	if err != nil || ok {
		t.Fatalf("absent key found")
	}
	if err := s.Put([]byte("k2"), nil); err == nil {
		t.Fatal("Put after Freeze should fail")
	}
}

func TestSpillToSegmentsAndGet(t *testing.T) {
	dir := t.TempDir()
	s := Open(Options{MemoryBudget: 512, TempDir: dir})
	defer s.Close()
	const n = 500
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		v := []byte(fmt.Sprintf("value-%d", i*i))
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if s.sorter.Spills() == 0 {
		t.Fatal("expected on-disk spills")
	}
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		want := fmt.Sprintf("value-%d", i*i)
		v, ok, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != want {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, v, ok, want)
		}
	}
	// Misses before, between, and after the keys.
	for _, k := range []string{"a", "key-0250x", "zzz"} {
		if _, ok, err := s.Get([]byte(k)); err != nil || ok {
			t.Fatalf("unexpected hit for %q", k)
		}
	}
}

// TestFreezeRejectsDuplicates: a store is written once, so a key put
// twice is an error at Freeze, whether both copies are still buffered
// or one was spilled — and the failed store still cleans up.
func TestFreezeRejectsDuplicates(t *testing.T) {
	for _, spill := range []bool{false, true} {
		dir := t.TempDir()
		s := Open(Options{MemoryBudget: 1 << 10, TempDir: dir})
		if err := s.Put([]byte("k"), []byte("old")); err != nil {
			t.Fatal(err)
		}
		if spill {
			for i := 0; i < 64; i++ {
				if err := s.Put([]byte(fmt.Sprintf("pad-%d", i)), bytes.Repeat([]byte("x"), 32)); err != nil {
					t.Fatal(err)
				}
			}
			if s.sorter.Spills() == 0 {
				t.Fatal("expected a spill")
			}
		}
		if err := s.Put([]byte("k"), []byte("new")); err != nil {
			t.Fatal(err)
		}
		if err := s.Freeze(); err == nil {
			t.Fatalf("spill=%v: Freeze accepted a duplicate key", spill)
		}
		if _, _, err := s.Get([]byte("k")); err == nil {
			t.Fatalf("spill=%v: Get after a failed Freeze should fail", spill)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Fatalf("spill=%v: files remain after Close: %v", spill, ents)
		}
	}
}

func TestFreezeFlushesAndAllowsConcurrentReads(t *testing.T) {
	dir := t.TempDir()
	s := Open(Options{MemoryBudget: 1 << 20, TempDir: dir})
	defer s.Close()
	for i := 0; i < 100; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("files after Freeze = %d, want 1", len(ents))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v, ok, err := s.Get([]byte(fmt.Sprintf("k%03d", i)))
				if err != nil || !ok || string(v) != fmt.Sprint(i) {
					t.Errorf("goroutine %d: Get(k%03d) = %q, %v, %v", g, i, v, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCloseRemovesSegments(t *testing.T) {
	for _, freeze := range []bool{false, true} {
		dir := t.TempDir()
		s := Open(Options{MemoryBudget: 128, TempDir: dir})
		for i := 0; i < 100; i++ {
			if err := s.Put([]byte(fmt.Sprintf("key-%d", i)), bytes.Repeat([]byte("v"), 20)); err != nil {
				t.Fatal(err)
			}
		}
		if s.sorter.Spills() == 0 {
			t.Fatal("expected spills")
		}
		if freeze {
			if err := s.Freeze(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("freeze=%v: files remain: %v", freeze, ents)
		}
		if _, _, err := s.Get([]byte("key-1")); err == nil {
			t.Fatal("Get after Close should fail")
		}
		if err := s.Close(); err != nil {
			t.Fatalf("double Close: %v", err)
		}
	}
}

// TestRandomizedAgainstMap checks a write-once store against a map:
// distinct random keys (the empty key among them), values that are
// often empty, and misses, at budgets that make Put spill zero times,
// once, and many times.
func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	randBytes := func(max int) []byte {
		b := make([]byte, rng.Intn(max+1))
		rng.Read(b)
		return b
	}
	oracle := make(map[string][]byte)
	var keys []string
	total := 0
	for len(keys) < 3000 {
		k := string(randBytes(12))
		if _, dup := oracle[k]; dup {
			continue
		}
		v := []byte(nil)
		if rng.Intn(3) > 0 {
			v = randBytes(20)
		}
		oracle[k] = v
		keys = append(keys, k)
		total += len(k) + len(v) + 32 // the sorter's charge per record
	}
	for _, tc := range []struct {
		budget     int
		minSpills  int
		maxSpills  int
		budgetName string
	}{
		{1 << 30, 0, 0, "no spill"},
		{total * 2 / 3, 1, 1, "one spill"},
		{total / 20, 10, 1 << 30, "many spills"},
	} {
		t.Run(tc.budgetName, func(t *testing.T) {
			s := Open(Options{MemoryBudget: tc.budget, TempDir: t.TempDir()})
			defer s.Close()
			for _, k := range keys {
				if err := s.Put([]byte(k), oracle[k]); err != nil {
					t.Fatal(err)
				}
			}
			if n := s.sorter.Spills(); n < tc.minSpills || n > tc.maxSpills {
				t.Fatalf("spills = %d, want [%d, %d]", n, tc.minSpills, tc.maxSpills)
			}
			if err := s.Freeze(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5000; i++ {
				k := keys[rng.Intn(len(keys))]
				if i%2 == 1 {
					k = string(randBytes(12)) // mostly a miss
				}
				v, ok, err := s.Get([]byte(k))
				if err != nil {
					t.Fatal(err)
				}
				want, wantOK := oracle[k]
				if ok != wantOK || !bytes.Equal(v, want) {
					t.Fatalf("Get(%x) = %x,%v; want %x,%v", k, v, ok, want, wantOK)
				}
			}
		})
	}
}

// TestCorruptRunNeverAnswersWrong flips every byte of a spilled store's
// run file in turn. Every Get must then answer right or fail with
// extsort.ErrCorruptRun — never answer wrong.
func TestCorruptRunNeverAnswersWrong(t *testing.T) {
	const n = 40
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("v%d", i*i)) }
	dir := t.TempDir()
	build := func() (*Store, string) {
		s := Open(Options{MemoryBudget: 256, TempDir: dir})
		for i := 0; i < n; i++ {
			if err := s.Put(key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		if s.sorter.Spills() == 0 {
			t.Fatal("expected spills")
		}
		if err := s.Freeze(); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) != 1 {
			t.Fatalf("files after Freeze: %v, %v; want one run", ents, err)
		}
		return s, filepath.Join(dir, ents[0].Name())
	}
	s, path := build()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	detected := 0
	for off := range clean {
		s, path := build()
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{clean[off] ^ 0xff}, int64(off)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		check := func(k, want []byte, wantOK bool) {
			v, ok, err := s.Get(k)
			switch {
			case err != nil:
				if !errors.Is(err, extsort.ErrCorruptRun) {
					t.Fatalf("byte %d: Get(%s): %v, want ErrCorruptRun", off, k, err)
				}
				detected++
			case ok != wantOK || !bytes.Equal(v, want):
				t.Fatalf("byte %d: Get(%s) = %q,%v; want %q,%v", off, k, v, ok, want, wantOK)
			}
		}
		check([]byte("a"), nil, false)
		check([]byte("z"), nil, false)
		for i := 0; i < n; i++ {
			check(key(i), val(i), true)
			check(append(key(i), 'x'), nil, false)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if detected == 0 {
		t.Fatal("no flipped byte was detected")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := NewLRU(2)
	c.Put("a", "1")
	c.Put("b", "2")
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.Put("c", "3") // evicts b (LRU)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should be evicted")
	}
	if v, ok := c.Get("a"); !ok || v.(string) != "1" {
		t.Fatal("a lost")
	}
	if v, ok := c.Get("c"); !ok || v.(string) != "3" {
		t.Fatal("c lost")
	}
	// 4 Gets hit (a, a, c) and missed (b) as counted above.
	if hits, misses := c.Stats(); hits != 3 || misses != 1 {
		t.Fatalf("Stats() = %d hits, %d misses; want 3, 1", hits, misses)
	}
}

// TestStoreCacheStats: the first Get decodes the run's one block, and
// every later lookup in its key range — hit or miss — is served from
// the block cache.
func TestStoreCacheStats(t *testing.T) {
	s := Open(Options{MemoryBudget: 1, TempDir: t.TempDir()})
	defer s.Close()
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := s.Get([]byte("k")); err != nil || !ok {
			t.Fatalf("Get k: ok=%v err=%v", ok, err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, ok, err := s.Get([]byte("absent")); err != nil || ok {
			t.Fatalf("Get absent: ok=%v err=%v", ok, err)
		}
	}
	// "absent" sorts before the first key: no block is consulted.
	if _, ok, err := s.Get([]byte("zz")); err != nil || ok {
		t.Fatalf("Get zz: ok=%v err=%v", ok, err)
	}
	hits, misses := s.blocks.Stats()
	if hits != 3 || misses != 1 {
		t.Fatalf("block cache = %d hits, %d misses; want 3, 1", hits, misses)
	}
}

func TestRepeatedLookupOfEmptyValueKey(t *testing.T) {
	// A key stored with an empty value must stay visible on repeated
	// lookups. APRIORI-SCAN's membership dictionary stores exactly such
	// keys.
	s := Open(Options{MemoryBudget: 1, TempDir: t.TempDir()})
	defer s.Close()
	if err := s.Put([]byte("member"), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, ok, err := s.Get([]byte("member"))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("lookup %d: key with empty value reported missing", i)
		}
	}
}

// eachRecords collects a list's records in iteration order.
func eachRecords(t *testing.T, l *List) []string {
	t.Helper()
	var out []string
	if err := l.Each(func(rec []byte) error {
		out = append(out, string(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestListInMemory(t *testing.T) {
	l := NewList(1<<20, t.TempDir())
	defer l.Close()
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if l.file != nil {
		t.Fatal("unexpected spill")
	}
	got := eachRecords(t, l)
	if len(got) != 10 {
		t.Fatalf("Each visited %d records, want 10", len(got))
	}
	for i, rec := range got {
		if rec != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("record %d = %q", i, rec)
		}
	}
}

func TestListSpill(t *testing.T) {
	l := NewList(256, t.TempDir())
	defer l.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%03d-%s", i, "padpadpad"))); err != nil {
			t.Fatal(err)
		}
	}
	if l.file == nil {
		t.Fatal("expected spill")
	}
	// Sequential iteration sees every record in order, across the
	// spill boundary.
	got := eachRecords(t, l)
	if len(got) != n {
		t.Fatalf("Each visited %d records, want %d", len(got), n)
	}
	for i, rec := range got {
		if want := fmt.Sprintf("record-%03d-padpadpad", i); rec != want {
			t.Fatalf("record %d = %q, want %q", i, rec, want)
		}
	}
}

func TestListAppendAfterEach(t *testing.T) {
	// Appending after iterating (interleaved use) must keep working.
	l := NewList(128, t.TempDir())
	defer l.Close()
	for i := 0; i < 20; i++ {
		if err := l.Append(bytes.Repeat([]byte{byte(i)}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if got := eachRecords(t, l); len(got) != 20 {
		t.Fatalf("Each visited %d records, want 20", len(got))
	}
	if err := l.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	got := eachRecords(t, l)
	if len(got) != 21 || got[20] != "tail" {
		t.Fatalf("after Append: %d records, last %q", len(got), got[len(got)-1])
	}
}

func TestListBounds(t *testing.T) {
	l := NewList(0, t.TempDir())
	defer l.Close()
	if got := eachRecords(t, l); len(got) != 0 {
		t.Fatalf("empty list yielded %q", got)
	}
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("y")); err == nil {
		t.Fatal("Append after Close should fail")
	}
	if err := l.Each(func([]byte) error { return nil }); err == nil {
		t.Fatal("Each after Close should fail")
	}
}

func TestListSpillAfterReadKeepsOffsets(t *testing.T) {
	// A spill that happens after a read must append at the end of the
	// file, not at the read position.
	l := NewList(64, t.TempDir())
	defer l.Close()
	rec := func(i int) string { return fmt.Sprintf("payload-%04d-xxxxxxxx", i) }
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte(rec(i))); err != nil {
			t.Fatal(err)
		}
	}
	if l.file == nil {
		t.Fatal("expected initial spill")
	}
	eachRecords(t, l)
	for i := 10; i < 30; i++ { // forces more spills after the read
		if err := l.Append([]byte(rec(i))); err != nil {
			t.Fatal(err)
		}
	}
	got := eachRecords(t, l)
	if len(got) != 30 {
		t.Fatalf("Each visited %d records, want 30", len(got))
	}
	for i, r := range got {
		if r != rec(i) {
			t.Fatalf("record %d = %q, want %q", i, r, rec(i))
		}
	}
}
