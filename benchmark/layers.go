package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ngramstats"
	"ngramstats/internal/extsort"
	"ngramstats/internal/kvstore"
	"ngramstats/internal/postings"
)

// The measurements in this file exist only in a traced run. Each times calls
// into one layer's exported functions with nothing else of the pipeline
// around them, so that a change to an end-to-end metric can be laid at a
// layer's door.

// directTimes are medians, in microseconds, of calls on an open index with no
// HTTP in the way.
type directTimes struct{ lookup, prefix, topk float64 }

// timeCalls calls fn n times and returns the median call in microseconds.
func timeCalls(n int, fn func(i int) error) (float64, error) {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(us), nil
}

// directCalls opens the index at dir with the default block cache, as the
// daemon does, and times lookups over keys, prefix scans over prefixes and
// top-k, after one pass that fills the cache.
func (b *bench) directCalls(dir string, keys, prefixes []string) (directTimes, error) {
	var d directTimes
	ix, err := ngramstats.OpenIndexWith(dir, ngramstats.IndexOptions{TempDir: b.dir})
	if err != nil {
		return d, fmt.Errorf("open %s: %w", dir, err)
	}
	defer ix.Close()
	lookup := func(i int) error {
		_, _, err := ix.Lookup(keys[i%len(keys)])
		return err
	}
	if _, err = timeCalls(min(len(keys), 500), lookup); err != nil {
		return d, err
	}
	if d.lookup, err = timeCalls(2000, lookup); err != nil {
		return d, err
	}
	d.prefix, err = timeCalls(min(2*len(prefixes), 400), func(i int) error {
		_, err := ix.Prefix(prefixes[i%len(prefixes)], prefixLimit)
		return err
	})
	if err != nil {
		return d, err
	}
	d.topk, err = timeCalls(3, func(int) error {
		_, err := ix.TopK(topK)
		return err
	})
	return d, err
}

// indexLayer times the main index as it is served: hot and cold lookups,
// allocations per lookup, prefix scans, and top-k from the stored records and
// one past them, which scans.
func (b *bench) indexLayer(p *pipeline) error {
	sp := b.tr.begin(nil, "index.direct", 0)
	defer sp.finish()
	dir, ks := p.dir, p.ks
	gen := newOpGen(b.seed*1000+99, ks)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = gen.lookupKey()
	}
	d, err := b.directCalls(dir, keys, ks.prefixes)
	if err != nil {
		return err
	}
	b.set("index.lookup_hot_us", d.lookup)
	b.set("index.prefix_us", d.prefix)
	b.set("index.topk_stored_us", d.topk)

	ix, err := ngramstats.OpenIndex(dir)
	if err != nil {
		return err
	}
	defer ix.Close()
	scan, err := timeCalls(3, func(int) error {
		_, err := ix.TopK(1025) // one past the default stored depth
		return err
	})
	if err != nil {
		return err
	}
	b.set("index.topk_scan_us", scan)
	before := readMem()
	for _, k := range keys[:1000] {
		if _, _, err := ix.Lookup(k); err != nil {
			return err
		}
	}
	b.set("index.lookup_allocs", float64(readMem().mallocs-before.mallocs)/1000)

	cold, err := ngramstats.OpenIndexWith(dir, ngramstats.IndexOptions{CacheBlocks: -1})
	if err != nil {
		return err
	}
	defer cold.Close()
	us, err := timeCalls(400, func(i int) error {
		// Every n-gram as likely as any other: no block stays warm.
		_, _, err := cold.Lookup(ks.at((i * 7919) % ks.len()))
		return err
	})
	b.set("index.lookup_cold_us", us)
	return err
}

// suffixKeys encodes the σ-truncated suffixes of the documents' sentences the
// way a SUFFIX-σ mapper keys them, near enough for a sorter: four big-endian
// bytes a word, words numbered in order of first appearance.
func suffixKeys(docs []ngramstats.Document, sigma, limit int) [][]byte {
	ids := make(map[string]uint32)
	var keys [][]byte
	for _, d := range docs {
		for _, sent := range strings.Split(strings.TrimSuffix(d.Text, "."), ". ") {
			ws := strings.Fields(sent)
			enc := make([]byte, 4*len(ws))
			for i, w := range ws {
				id, ok := ids[w]
				if !ok {
					id = uint32(len(ids))
					ids[w] = id
				}
				binary.BigEndian.PutUint32(enc[4*i:], id)
			}
			for i := range ws {
				if len(keys) == limit {
					return keys
				}
				keys = append(keys, enc[4*i:4*min(i+sigma, len(ws))])
			}
		}
	}
	return keys
}

// extsortLayer times the sorter on the workload's own keys: in memory, forced
// to spill, and as a 16-way merge of sealed runs.
func (b *bench) extsortLayer(p *pipeline) error {
	sp := b.tr.begin(nil, "extsort.direct", 0)
	defer sp.finish()
	keys := suffixKeys(p.in.main, b.w.sigma, 200000)
	value := []byte{1}
	var dataBytes int
	for _, k := range keys {
		dataBytes += len(k) + len(value)
	}
	drain := func(it *extsort.Iterator) error {
		defer it.Close()
		n := 0
		for it.Next() {
			n++
		}
		if it.Err() == nil && n != len(keys) {
			return fmt.Errorf("extsort: %d of %d records came back", n, len(keys))
		}
		return it.Err()
	}
	sortAll := func(budget int) (float64, int, error) {
		s := extsort.NewSorter(extsort.Options{MemoryBudget: budget, TempDir: b.dir})
		defer s.Discard()
		t0 := time.Now()
		for _, k := range keys {
			if err := s.Add(k, value); err != nil {
				return 0, 0, err
			}
		}
		it, err := s.Sort()
		if err != nil {
			return 0, 0, err
		}
		err = drain(it)
		return float64(time.Since(t0).Nanoseconds()) / float64(len(keys)), s.Spills(), err
	}
	for rep := 0; rep < 3; rep++ {
		ns, _, err := sortAll(64 * dataBytes)
		if err != nil {
			return err
		}
		b.add("extsort.sort_inmem_ns_per_rec", ns)
		ns, spills, err := sortAll(dataBytes / 10)
		if err != nil {
			return err
		}
		if spills < 8 {
			return fmt.Errorf("extsort: %d spills, want at least 8", spills)
		}
		b.add("extsort.sort_spill_ns_per_rec", ns)

		var runs []*extsort.Run
		var encoded int
		t0 := time.Now()
		for part := 0; part < 16; part++ {
			s := extsort.NewSorter(extsort.Options{MemoryBudget: 64 * dataBytes, TempDir: b.dir})
			for i := part; i < len(keys); i += 16 {
				if err := s.Add(keys[i], value); err != nil {
					return err
				}
			}
			sealed, err := s.Seal()
			if err != nil {
				return err
			}
			for _, r := range sealed {
				encoded += r.Bytes()
			}
			runs = append(runs, sealed...)
		}
		it, err := extsort.MergeRuns(bytes.Compare, runs)
		if err != nil {
			return err
		}
		if err := drain(it); err != nil {
			return err
		}
		b.add("extsort.merge16_ns_per_rec", float64(time.Since(t0).Nanoseconds())/float64(len(keys)))
		b.add("extsort.encoded_bytes_per_rec", float64(encoded)/float64(len(keys)))
	}
	return nil
}

// kvstoreLayer times the APRIORI dictionary store on the n-grams the job
// found: put them all, freeze, get them all back.
func (b *bench) kvstoreLayer(p *pipeline) error {
	sp := b.tr.begin(nil, "kvstore.direct", 0)
	defer sp.finish()
	ks := p.ks
	found := make([]entry, min(50000, ks.len()))
	for i := range found {
		found[i] = ks.ranked(i)
	}
	n := len(found)
	value := make([]byte, 8)
	for rep := 0; rep < 3; rep++ {
		st := kvstore.Open(kvstore.Options{TempDir: b.dir})
		t0 := time.Now()
		for _, e := range found {
			binary.BigEndian.PutUint64(value, uint64(e.freq))
			if err := st.Put([]byte(e.text), value); err != nil {
				st.Close()
				return err
			}
		}
		if err := st.Freeze(); err != nil {
			st.Close()
			return err
		}
		b.add("kvstore.put_ns", float64(time.Since(t0).Nanoseconds())/float64(n))
		t0 = time.Now()
		for _, e := range found {
			v, ok, err := st.Get([]byte(e.text))
			if err != nil || !ok || int64(binary.BigEndian.Uint64(v)) != e.freq {
				st.Close()
				return fmt.Errorf("kvstore: get %q: %v (found %v)", e.text, err, ok)
			}
		}
		b.add("kvstore.get_ns", float64(time.Since(t0).Nanoseconds())/float64(n))
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}

// postingsLayer times the APRIORI-INDEX join on the posting lists of the two
// most frequent words of the corpus.
func (b *bench) postingsLayer(p *pipeline) error {
	sp := b.tr.begin(nil, "postings.direct", 0)
	defer sp.finish()
	in, ks := p.in, p.ks
	var pair []string
	for i := 0; i < ks.len() && len(pair) < 2; i++ {
		if text := ks.ranked(i).text; !strings.Contains(text, " ") {
			pair = append(pair, text)
		}
	}
	if len(pair) < 2 {
		return fmt.Errorf("postings: fewer than two words indexed")
	}
	lists := make([]postings.List, 2)
	for id, d := range in.main {
		var pos [2][]uint32
		for p, w := range strings.Fields(d.Text) {
			w = strings.TrimSuffix(w, ".")
			for i := range pair {
				if w == pair[i] {
					pos[i] = append(pos[i], uint32(p))
				}
			}
		}
		for i := range pair {
			if len(pos[i]) > 0 {
				lists[i] = append(lists[i], postings.Posting{DocID: int64(id), Positions: pos[i]})
			}
		}
	}
	total := float64(len(lists[0]) + len(lists[1]))
	ns, err := timeCalls(50, func(int) error {
		postings.Join(lists[0], lists[1])
		return nil
	})
	b.set("postings.join_ns_per_posting", ns*1e3/total)
	return err
}

// memCounters is what the run reads from the Go runtime.
type memCounters struct {
	mallocs, allocBytes, pauseNs uint64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{m.Mallocs, m.TotalAlloc, m.PauseTotalNs}
}

// procLayer reports what the whole run cost the machine: a workload runs in a
// process of its own, so these are the workload's.
func (b *bench) procLayer() {
	m := readMem()
	b.set("proc.alloc_mb", float64(m.allocBytes)/1e6)
	b.set("proc.gc_pause_ms", float64(m.pauseNs)/1e6)
	var cpu float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} { // children: the worker processes
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			cpu += float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
		}
	}
	b.set("proc.cpu_s", cpu)
	b.set("proc.peak_rss_mb", peakRSSMB())
}

// peakRSSMB reads VmHWM from /proc/self/status; 0 where there is none.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1e3
		}
	}
	return 0
}
