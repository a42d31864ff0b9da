package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"ngramstats/internal/core"
	"ngramstats/internal/encoding"
	"ngramstats/internal/index"
)

// oneDoc is a generation of one document: "a", then the given words.
func oneDoc(id int64, words ...string) testGen {
	return testGen{docs: []testDoc{{id: id, year: 2000, sents: [][]string{append([]string{"a"}, words...)}}}, depth: -1}
}

// countOf returns the merged count of a one-word n-gram.
func countOf(v *View, word string) (int64, error) {
	seq, err := v.Dictionary().Encode([]string{word})
	if err != nil {
		return 0, err
	}
	val, ok, err := v.Get(encoding.EncodeSeq(seq))
	if err != nil || !ok {
		return 0, err
	}
	return core.DecodeFrequency(core.AggCount, val)
}

// TestReopenWorkCounts pins what following a chain costs, in counts
// that repeat exactly: a view of 1 base + 4 deltas reopens an unchanged
// manifest by sharing everything, and one append by opening the new
// delta and parsing its dictionary — where a fresh open, which is what
// every reload was before Reopen, opens all six generations (and used to
// parse all six dictionaries: 6, 0, 6·V). The unchanged view keeps the
// top list the merge proved, so its top-k issues no point get; a view
// with a new generation merges afresh.
func TestReopenWorkCounts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	w := newChainWriter(t, dir, core.AggCount, 2, false)
	for g := 0; g < 5; g++ {
		w.append(oneDoc(int64(g), "b", fmt.Sprintf("w%d", g)))
	}
	v := openTestChain(t, dir)
	vocab := int64(v.Dictionary().Len()) // a, b, w0..w4
	if st := v.OpenStats(); st != (OpenStats{Opened: 5, Terms: vocab}) {
		t.Fatalf("OpenChain of 1 + 4: %+v, want 5 opened, 0 shared, %d terms", st, vocab)
	}
	if _, _, ok := v.TopRecords(3); !ok || v.TopKPointGets() == 0 || v.TopKPointGets()%5 != 0 {
		t.Fatalf("TopRecords(3) answered %v with %d point gets; want the merge's, 5 per n-gram met", ok, v.TopKPointGets())
	}

	same, err := v.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer same.Close()
	if st := same.OpenStats(); st != (OpenStats{Shared: 5}) {
		t.Fatalf("Reopen of an unchanged manifest: %+v, want 0 opened, 5 shared, 0 terms", st)
	}
	if same.top.Load() == nil || same.top.Load() != v.top.Load() {
		t.Fatal("Reopen of an unchanged manifest dropped the memoized top list")
	}
	for _, k := range []int{3, 2} {
		if _, _, ok := same.TopRecords(k); !ok || same.TopKPointGets() != 0 {
			t.Fatalf("TopRecords(%d) on the unchanged view answered %v with %d point gets; want the memo's, 0", k, ok, same.TopKPointGets())
		}
	}

	w.append(oneDoc(5, "b", "w5"))
	next, err := v.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if st := next.OpenStats(); st != (OpenStats{Opened: 1, Shared: 5, Terms: vocab + 1}) {
		t.Fatalf("Reopen after one append: %+v, want 1 opened, 5 shared, %d terms", st, vocab+1)
	}
	fresh := openTestChain(t, dir)
	if st := fresh.OpenStats(); st != (OpenStats{Opened: 6, Terms: vocab + 1}) {
		t.Fatalf("OpenChain of 1 + 5: %+v, want 6 opened, 0 shared, %d terms", st, vocab+1)
	}
	if next.top.Load() != nil {
		t.Fatal("Reopen after an append kept the old top list")
	}
	checkReopened(t, next, fresh, w.all)
	if next.TopKPointGets() == 0 || next.TopKPointGets()%6 != 0 {
		t.Fatalf("the view after an append issued %d point gets; want the merge's, 6 per n-gram met", next.TopKPointGets())
	}

	// A compacted chain is one new generation: nothing to share.
	w.compact()
	flat, err := next.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	if st := flat.OpenStats(); st != (OpenStats{Opened: 1, Terms: vocab + 1}) {
		t.Fatalf("Reopen after a compaction: %+v, want 1 opened, 0 shared, %d terms", st, vocab+1)
	}
	if flat.top.Load() != nil {
		t.Fatal("Reopen after a compaction kept the old top list")
	}
	checkReopened(t, flat, openTestChain(t, dir), w.all)
}

// TestReopenViewsOutliveEachOther: a view and the one reopened from it
// share generations but not fates — either keeps answering after the
// other is closed — and a closed view can neither be reopened nor, once
// every holder of a generation has closed, read.
func TestReopenViewsOutliveEachOther(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	w := newChainWriter(t, dir, core.AggCount, 2, false)
	w.append(oneDoc(0, "b"))
	w.append(oneDoc(1, "c"))
	want := func(v *View, n int64, what string) {
		t.Helper()
		if got, err := countOf(v, "a"); err != nil || got != n {
			t.Fatalf("%s: a = %d (%v), want %d", what, got, err, n)
		}
		if len(scanRanked(t, v)) == 0 {
			t.Fatalf("%s: empty scan", what)
		}
	}

	old, err := OpenChain(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.append(oneDoc(2, "d"))
	next, err := old.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	next.Close()
	want(old, 2, "old view after the new one closed")

	next, err = old.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	old.Close()
	want(next, 3, "new view after the old one closed")

	if _, err := old.Reopen(); !errors.Is(err, index.ErrClosed) {
		t.Fatalf("Reopen on a closed view: %v, want index.ErrClosed", err)
	}
	shared := next.gens[0]
	next.Close()
	if _, _, err := shared.Get([]byte{0}); !errors.Is(err, index.ErrClosed) {
		t.Fatalf("a generation outlived both views that held it: Get returned %v", err)
	}
	if shared.Retain() == nil {
		t.Fatal("Retain resurrected a generation every view has closed")
	}
}

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count descriptors in: %v", err)
	}
	return len(fds)
}

// TestReopenLeaksNoDescriptors follows a chain through 20 appends and
// two compactions by Reopen, retiring each view as its successor takes
// over while readers keep querying whichever view is current. Shared
// generations must stay open exactly as long as some view holds them:
// the readers never see a wrong count or an error other than ErrClosed
// on a view retired under them, and when the last view closes the
// process is back to the descriptors it started with.
func TestReopenLeaksNoDescriptors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	w := newChainWriter(t, dir, core.AggCount, 2, false)
	w.append(oneDoc(0, "b"))
	// Appended documents are published before the view that shows them, so
	// a reader's count of "a" (one per document) lies between the count it
	// last saw and this.
	var docs atomic.Int64
	docs.Store(1)
	start := openFDs(t)

	v, err := OpenChain(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[View]
	cur.Store(v)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := cur.Load()
				n, err := countOf(v, "a")
				if errors.Is(err, index.ErrClosed) {
					continue // retired between the load and the query
				}
				if hi := docs.Load(); err != nil || n < last || n > hi {
					t.Errorf("reader: a = %d (%v), want within [%d, %d]", n, err, last, hi)
					return
				}
				last = n
				if _, _, ok := v.TopRecords(1); !ok && !v.closed.Load() {
					t.Errorf("reader: TopRecords(1) declined on complete lists")
					return
				}
			}
		}()
	}
	for i := int64(1); i <= 20; i++ {
		docs.Add(1)
		w.append(oneDoc(i, "b", fmt.Sprintf("w%d", i%7)))
		if i%8 == 0 {
			w.compact()
		}
		next, err := v.Reopen()
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		cur.Store(next)
		v.Close()
		v = next
	}
	close(stop)
	wg.Wait()
	if n, err := countOf(v, "a"); err != nil || n != 21 {
		t.Fatalf("after 20 appends: a = %d (%v), want 21", n, err)
	}
	if held := openFDs(t); held <= start {
		t.Fatalf("%d descriptors open with a view of %d generations held, %d before it: the count measures nothing", held, v.Generations(), start)
	}
	v.Close()
	if end := openFDs(t); end != start {
		t.Fatalf("%d descriptors open after the last view closed, %d at the start", end, start)
	}
}

// TestOlderDictionaryStillVerified: a chain parses only its newest
// generation's dictionary, but every generation's is still checked
// against its manifest — any flipped byte, any truncation of a
// non-newest dictionary.tsv fails the open with index.ErrCorrupt.
func TestOlderDictionaryStillVerified(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	w := newChainWriter(t, dir, core.AggCount, 2, false)
	w.append(oneDoc(0, "b", "c"))
	w.append(oneDoc(1, "c", "d"))
	w.append(oneDoc(2, "d", "e"))
	openTestChain(t, dir)
	mustFail := func(what string) {
		t.Helper()
		v, err := OpenChain(dir, Options{})
		if err == nil {
			v.Close()
			t.Fatalf("%s: OpenChain succeeded", what)
		}
		if !errors.Is(err, index.ErrCorrupt) {
			t.Fatalf("%s: %v does not wrap index.ErrCorrupt", what, err)
		}
	}
	for _, gen := range []string{".", "delta-000000"} {
		path := filepath.Join(dir, gen, index.DictionaryFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0xff
			if err := os.WriteFile(path, bad, 0o666); err != nil {
				t.Fatal(err)
			}
			mustFail(fmt.Sprintf("%s: dictionary byte %d flipped", gen, i))
			if err := os.WriteFile(path, data[:i], 0o666); err != nil {
				t.Fatal(err)
			}
			mustFail(fmt.Sprintf("%s: dictionary truncated to %d bytes", gen, i))
		}
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	openTestChain(t, dir)
}
