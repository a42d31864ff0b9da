// Package extsort implements a bounded-memory external sorter for
// (key, value) byte records. It is the storage engine behind the
// MapReduce shuffle: map tasks append records to a Sorter, which keeps
// an in-memory run up to a configurable budget, radix-sorts it in
// ascending or descending byte order, spills sorted runs to
// block-framed files, and finally exposes its sorted records one of
// two ways: Sort merges the sorter's own runs (in-memory and on-disk)
// into a single iterator with a k-way loser-tree merge, while Seal hands the
// runs themselves off as immutable Run values that any number of
// sorters can contribute to one MergeRuns call.
//
// The Sort path serves single-owner consumers (an index save sorting
// its own records); the Seal/MergeRuns path is the shuffle hand-off,
// mirroring Hadoop's architecture in which every map task sorts and
// spills its own output — through its combiner, when Options.Combine
// is set — and each reduce task merges the sealed runs of all map
// tasks for its partition — the "sorting" half of MapReduce's
// sort-and-group contract that the paper's methods rely on.
package extsort

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
)

// Compare orders two keys. Negative means a sorts before b.
type Compare func(a, b []byte) int

// Order returns the key order of a sorter or merge: bytewise, or its
// reverse.
func Order(descending bool) Compare {
	if descending {
		return func(a, b []byte) int { return bytes.Compare(b, a) }
	}
	return bytes.Compare
}

// Options configures a Sorter.
type Options struct {
	// MemoryBudget is the approximate number of bytes of record data
	// buffered in memory before a spill. Zero selects a default of 32 MiB.
	MemoryBudget int
	// TempDir is the directory for spill files. Empty selects os.TempDir.
	TempDir string
	// Descending sorts keys in reverse bytewise order instead of
	// bytewise order.
	Descending bool
	// OnSpill, if non-nil, is invoked with the number of records in each
	// spilled run (for SPILLED_RECORDS-style counters).
	OnSpill func(records int)
	// Combine, if non-nil, folds every sorted buffer while it is encoded
	// into a run, at each spill and at Seal (Hadoop's combine-on-spill).
	// Sort does not apply it.
	Combine CombineFunc
	// Codec selects the optional per-block compression of sealed runs
	// and spill files. Default is CodecRaw (front-coding only).
	Codec Codec
	// Stats, if non-nil, accumulates measured run-format byte transfer:
	// encoded bytes this sorter writes (spills and sealed in-memory
	// runs) and encoded bytes later read back by merges over its runs.
	Stats *IOStats
}

// CombineFunc consumes one sorted buffer and passes the records that
// replace it to write, in the sorter's key order: a key that sorts
// before the previously written one fails the run instead of
// corrupting it. Both sides copy what they keep.
type CombineFunc func(sorted *Iterator, write func(key, value []byte) error) error

type record struct {
	keyOff, keyLen int
	valOff, valLen int
}

// recordOverhead is what one buffered record is charged against the
// memory budget beyond its key and value bytes: its record table entry.
const recordOverhead = 32

// Process-wide buffer pools. The shuffle creates one sorter per map
// task per partition, so the record arenas and tables churn
// constantly; recycling them removes the dominant allocation of the
// emit path. Buffers return to the pools when a sorter is sealed or
// discarded and when a Sort iterator's in-memory source drains, i.e.
// strictly after the last read of their contents.
var (
	arenaPool sync.Pool // *[]byte
	recsPool  sync.Pool // *[]record
	radixPool sync.Pool // *radixScratch
)

func getArena() []byte {
	if p, _ := arenaPool.Get().(*[]byte); p != nil {
		return (*p)[:0]
	}
	return nil
}

func putArena(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	arenaPool.Put(&b)
}

func getRecs() []record {
	if p, _ := recsPool.Get().(*[]record); p != nil {
		return (*p)[:0]
	}
	return nil
}

func putRecs(r []record) {
	if cap(r) == 0 {
		return
	}
	r = r[:0]
	recsPool.Put(&r)
}

// spillFile is one on-disk sorted run produced by a spill.
type spillFile struct {
	path string
	recs int
}

// Sorter accumulates records and produces them in sorted order. It is
// not safe for concurrent use; in the shuffle each map task owns one
// sorter per reduce partition.
type Sorter struct {
	opts    Options
	cmp     Compare
	arena   []byte
	recs    []record
	spills  []spillFile
	n       int
	mem     int
	closed  bool
	spillID int

	keyCompares int // full-key comparisons made by sortInMemory
}

// NewSorter returns a Sorter with the given options.
func NewSorter(opts Options) *Sorter {
	if opts.MemoryBudget <= 0 {
		opts.MemoryBudget = 32 << 20
	}
	return &Sorter{opts: opts, cmp: Order(opts.Descending), arena: getArena(), recs: getRecs()}
}

// Len returns the total number of records added so far.
func (s *Sorter) Len() int { return s.n }

// MemoryInUse returns the current in-memory buffer size in bytes.
func (s *Sorter) MemoryInUse() int { return s.mem }

// Spills returns the number of on-disk runs produced so far.
func (s *Sorter) Spills() int { return len(s.spills) }

// Add appends a record. The key and value are copied, so callers may
// reuse their buffers.
func (s *Sorter) Add(key, value []byte) error {
	if s.closed {
		return fmt.Errorf("extsort: Add after Sort or Seal")
	}
	ko := len(s.arena)
	s.arena = append(s.arena, key...)
	vo := len(s.arena)
	s.arena = append(s.arena, value...)
	s.recs = append(s.recs, record{ko, len(key), vo, len(value)})
	s.n++
	s.mem += len(key) + len(value) + recordOverhead
	if s.mem >= s.opts.MemoryBudget {
		return s.spill()
	}
	return nil
}

// Reserve sizes the record table once for a caller that knows about how
// many more records it will add — an index save, a compaction — instead
// of letting it grow by doubling as they arrive; an input past the
// memory budget reserves what the buffer holds before it spills. The
// figure is a hint: a low one costs some growth, a high one some memory.
// The arena, a quarter of the table's size for n-gram records and
// usually recycled warm, grows as before.
func (s *Sorter) Reserve(records int) {
	s.recs = slices.Grow(s.recs, max(0, min(records, s.opts.MemoryBudget/recordOverhead)))
}

// abbrKey is a record's abbreviated key: the first 8 bytes of the key,
// big-endian and zero-padded, and its length capped at 9, both
// complemented for a descending sort. Ordering by (prefix, length)
// orders any two keys that differ in their first 8 bytes or are not
// both longer than 8: a key of at most 8 bytes whose padded prefix
// equals another's is a prefix of it.
type abbrKey struct {
	prefix uint64
	rec    uint32
	length uint8
}

// digit returns radix digit d of the abbreviated key, least
// significant first: the length, then the prefix bytes.
func (k abbrKey) digit(d int) int {
	if d == 0 {
		return int(k.length)
	}
	return int(byte(k.prefix >> (8 * (d - 1))))
}

// radixScratch is the working memory of one in-memory sort.
type radixScratch struct {
	keys, tmp []abbrKey
	recs      []record
}

// prefix8 returns the first 8 bytes of the key at arena[off:off+n],
// big-endian and zero-padded.
func prefix8(arena []byte, off, n int) uint64 {
	if n >= 8 {
		return binary.BigEndian.Uint64(arena[off:])
	}
	if off+8 <= len(arena) {
		return binary.BigEndian.Uint64(arena[off:]) &^ (^uint64(0) >> (8 * n))
	}
	var p uint64
	for i, b := range arena[off : off+n] {
		p |= uint64(b) << (56 - 8*i)
	}
	return p
}

// sortInMemory sorts the record table by key with a stable LSD radix
// sort over abbreviated keys, skipping digits every key shares. Runs
// of longer keys whose abbreviations tie are settled by full-key
// comparison, and only when they are not already in order. Stability
// keeps equal keys in insertion order, so a sort is a function of the
// records added.
func (s *Sorter) sortInMemory() {
	n := len(s.recs)
	if n < 2 {
		return
	}
	sc, _ := radixPool.Get().(*radixScratch)
	if sc == nil {
		sc = new(radixScratch)
	}
	defer radixPool.Put(sc)
	sc.keys = slices.Grow(sc.keys[:0], n)[:n]
	sc.tmp = slices.Grow(sc.tmp[:0], n)[:n]
	var flip uint64
	if s.opts.Descending {
		flip = ^uint64(0)
	}
	var counts [9][256]int
	for i, r := range s.recs {
		k := abbrKey{prefix8(s.arena, r.keyOff, r.keyLen) ^ flip, uint32(i), uint8(min(r.keyLen, 9)) ^ uint8(flip)}
		sc.keys[i] = k
		for d := range counts {
			counts[d][k.digit(d)]++
		}
	}
	src, dst := sc.keys, sc.tmp
	for d := range counts {
		c := &counts[d]
		if c[src[0].digit(d)] == n {
			continue
		}
		sum := 0
		for b, cnt := range c {
			c[b], sum = sum, sum+cnt
		}
		for _, k := range src {
			b := k.digit(d)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && src[j].prefix == src[i].prefix && src[j].length == src[i].length {
			j++
		}
		if j-i > 1 && s.recs[src[i].rec].keyLen > 8 {
			s.settle(src[i:j])
		}
		i = j
	}
	sc.recs = slices.Grow(sc.recs[:0], n)[:n]
	for i, k := range src {
		sc.recs[i] = s.recs[k.rec]
	}
	copy(s.recs, sc.recs)
}

// settle orders a run of records whose abbreviated keys tie, in
// insertion order on entry, by their full keys.
func (s *Sorter) settle(run []abbrKey) {
	compare := func(a, b abbrKey) int {
		s.keyCompares++
		ra, rb := s.recs[a.rec], s.recs[b.rec]
		return s.cmp(s.arena[ra.keyOff:ra.keyOff+ra.keyLen], s.arena[rb.keyOff:rb.keyOff+rb.keyLen])
	}
	for i := 1; i < len(run); i++ {
		if compare(run[i-1], run[i]) > 0 {
			slices.SortStableFunc(run, compare)
			return
		}
	}
}

// encodeRun sorts the in-memory buffer and encodes it into w in the
// run format — through the combiner, when one is configured. It
// reports the encoded size and the number of records written; the
// buffer itself is left to the caller.
func (s *Sorter) encodeRun(w io.Writer) (size int64, n int, err error) {
	s.sortInMemory()
	rw := newRunWriter(w, s.opts.Codec, 0)
	if s.opts.Combine == nil {
		for _, r := range s.recs {
			key := s.arena[r.keyOff : r.keyOff+r.keyLen]
			val := s.arena[r.valOff : r.valOff+r.valLen]
			if err := rw.append(key, val); err != nil {
				return 0, 0, err
			}
		}
	} else {
		// The iterator borrows the buffer: its Close must not recycle
		// what the sorter goes on using after a spill.
		src := &memSource{arena: s.arena, recs: s.recs, lent: true}
		src.next() // callers encode non-empty buffers only
		sorted := &Iterator{cmp: s.cmp}
		sorted.addSource(src)
		err := s.opts.Combine(sorted, func(key, value []byte) error {
			if rw.total > 0 && s.cmp(rw.prevKey, key) > 0 {
				return fmt.Errorf("combiner wrote key %x after %x, out of sort order", key, rw.prevKey)
			}
			return rw.append(key, value)
		})
		sorted.Close()
		if err != nil {
			return 0, 0, err
		}
	}
	size, err = rw.finish()
	return size, int(rw.total), err
}

func (s *Sorter) spill() error {
	if len(s.recs) == 0 {
		return nil
	}
	f, err := os.CreateTemp(s.opts.TempDir, fmt.Sprintf("extsort-spill-%d-*.run", s.spillID))
	if err != nil {
		return fmt.Errorf("extsort: create spill: %w", err)
	}
	s.spillID++
	w := bufio.NewWriterSize(f, 256<<10)
	written, n, err := s.encodeRun(w)
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("extsort: write spill: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("extsort: flush spill: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("extsort: close spill: %w", err)
	}
	s.arena = s.arena[:0]
	s.recs = s.recs[:0]
	s.mem = 0
	if n == 0 {
		// The combiner dropped every record: no run to hand off.
		os.Remove(f.Name())
		return nil
	}
	s.opts.Stats.addWritten(written)
	if s.opts.OnSpill != nil {
		s.opts.OnSpill(n)
	}
	s.spills = append(s.spills, spillFile{path: f.Name(), recs: n})
	return nil
}

// Spill forces the current in-memory buffer out to a sorted on-disk
// run, regardless of the memory budget. It is a no-op when the buffer
// is empty. The shuffle uses it for graceful degradation when a map
// task's total buffering across partitions exceeds its task budget.
func (s *Sorter) Spill() error {
	if s.closed {
		return fmt.Errorf("extsort: Spill after Sort or Seal")
	}
	return s.spill()
}

// Sort finalizes the sorter and returns an iterator over all records in
// sorted order. After Sort, Add must not be called. The caller must
// Close the iterator to release spill files.
func (s *Sorter) Sort() (*Iterator, error) {
	if s.closed {
		return nil, fmt.Errorf("extsort: Sort after Sort or Seal")
	}
	s.closed = true
	s.sortInMemory()

	var srcs []source
	if len(s.recs) > 0 {
		// Ownership of the arena and record table passes to the source,
		// which recycles them when it drains or is closed.
		srcs = append(srcs, &memSource{arena: s.arena, recs: s.recs})
	} else {
		putArena(s.arena)
		putRecs(s.recs)
	}
	s.arena, s.recs = nil, nil
	for _, sp := range s.spills {
		fs, err := openFileRunSource(sp.path, s.opts.Stats)
		if err != nil {
			for _, src := range srcs {
				src.close()
			}
			return nil, err
		}
		srcs = append(srcs, fs)
	}
	it := &Iterator{cmp: s.cmp}
	for _, src := range srcs {
		ok, err := src.next()
		if err != nil {
			src.close()
			it.Close()
			return nil, err
		}
		if ok {
			it.addSource(src)
		} else {
			src.close()
		}
	}
	return it, nil
}

// Discard releases all resources without producing output. It is safe
// to call at any time, including after Sort (in which case the returned
// iterator owns the spill files instead and Discard is a no-op for
// them).
func (s *Sorter) Discard() {
	if !s.closed {
		for _, sp := range s.spills {
			os.Remove(sp.path)
		}
		s.spills = nil
		putArena(s.arena)
		putRecs(s.recs)
	}
	s.arena = nil
	s.recs = nil
	s.closed = true
}

// source is a stream of sorted records.
type source interface {
	// next advances to the next record, reporting whether one is
	// available.
	next() (bool, error)
	key() []byte
	value() []byte
	close()
}

type memSource struct {
	arena []byte
	recs  []record
	i     int
	cur   record
	lent  bool // the sorter keeps the buffers; close leaves them alone
}

func (m *memSource) next() (bool, error) {
	if m.i >= len(m.recs) {
		return false, nil
	}
	m.cur = m.recs[m.i]
	m.i++
	return true, nil
}

func (m *memSource) key() []byte {
	return m.arena[m.cur.keyOff : m.cur.keyOff+m.cur.keyLen]
}

func (m *memSource) value() []byte {
	return m.arena[m.cur.valOff : m.cur.valOff+m.cur.valLen]
}

func (m *memSource) close() {
	// A source that owns the sorter's arena and record table recycles
	// them now that the last record has been read.
	if !m.lent {
		putArena(m.arena)
		putRecs(m.recs)
	}
	m.arena, m.recs = nil, nil
}

// openFileRunSource opens a block source over a run file. The source
// owns the file: close() both closes and unlinks it.
func openFileRunSource(path string, stats *IOStats) (source, error) {
	remove := func() { os.Remove(path) }
	f, err := os.Open(path)
	if err != nil {
		remove() // ownership passed to this source even on error
		return nil, fmt.Errorf("extsort: open spill: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		remove()
		return nil, fmt.Errorf("extsort: stat spill: %w", err)
	}
	readAt := func(off int64, n int) ([]byte, error) {
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, off); err != nil {
			return nil, err
		}
		return buf, nil
	}
	src, err := newBlockSource(st.Size(), readAt, &fileFetcher{f: f}, stats, remove)
	if err != nil {
		return nil, fmt.Errorf("extsort: open run %s: %w", path, err)
	}
	return src, nil
}

// openMemRunSource opens a block source over an encoded in-memory run.
func openMemRunSource(data []byte, stats *IOStats) (source, error) {
	readAt := func(off int64, n int) ([]byte, error) {
		if off < 0 || off+int64(n) > int64(len(data)) {
			return nil, corruptf("region [%d,+%d) outside run of %d bytes", off, n, len(data))
		}
		return data[off : off+int64(n) : off+int64(n)], nil
	}
	src, err := newBlockSource(int64(len(data)), readAt, &memFetcher{data: data}, stats, nil)
	if err != nil {
		return nil, fmt.Errorf("extsort: open in-memory run: %w", err)
	}
	return src, nil
}

// Iterator yields records in sorted order from the k-way merge of all
// runs, selected through a tournament (loser) tree: each advance
// replays one leaf-to-root path — ⌈log₂ k⌉ comparisons, no interface
// dispatch or heap sift overhead — instead of the pop-then-push pair
// of a container/heap merge. Equal keys emit in source order, exactly
// as the heap merge before it. The key and value slices returned by
// Key and Value are only valid until the following call to Next.
type Iterator struct {
	cmp   Compare
	srcs  []source // leaves; nil once exhausted and closed
	order []int    // original source index per leaf: the equal-key tie-break
	tree  []int    // internal nodes hold the loser of their match
	win   int      // current winner leaf, -1 when drained

	started bool
	closed  bool
	err     error
}

// addSource appends a positioned source as the next leaf.
func (it *Iterator) addSource(src source) {
	it.srcs = append(it.srcs, src)
	it.order = append(it.order, len(it.order))
}

// less reports whether leaf a's current record sorts before leaf b's.
// An exhausted leaf compares as +∞ so it loses every match.
func (it *Iterator) less(a, b int) bool {
	sa, sb := it.srcs[a], it.srcs[b]
	if sa == nil {
		return false
	}
	if sb == nil {
		return true
	}
	if c := it.cmp(sa.key(), sb.key()); c != 0 {
		return c < 0
	}
	return it.order[a] < it.order[b]
}

// build plays the initial tournament over all leaves. Node n's
// children in the winners scratch are 2n and 2n+1 (leaves occupy
// positions k..2k-1), which forms a complete selection tree for any k.
func (it *Iterator) build() {
	k := len(it.srcs)
	switch k {
	case 0:
		it.win = -1
		return
	case 1:
		it.win = 0
		return
	}
	it.tree = make([]int, k)
	winners := make([]int, 2*k)
	for i := 0; i < k; i++ {
		winners[k+i] = i
	}
	for n := k - 1; n >= 1; n-- {
		a, b := winners[2*n], winners[2*n+1]
		if it.less(a, b) {
			winners[n], it.tree[n] = a, b
		} else {
			winners[n], it.tree[n] = b, a
		}
	}
	it.win = winners[1]
}

// replay re-runs the matches on the path from the given leaf to the
// root after its record changed, updating the overall winner.
func (it *Iterator) replay(leaf int) {
	k := len(it.srcs)
	if k == 1 {
		if it.srcs[0] == nil {
			it.win = -1
		}
		return
	}
	w := leaf
	for n := (k + leaf) / 2; n >= 1; n /= 2 {
		if it.less(it.tree[n], w) {
			w, it.tree[n] = it.tree[n], w
		}
	}
	it.win = w
}

// Next advances the iterator, reporting whether a record is available.
func (it *Iterator) Next() bool {
	if it.closed || it.err != nil {
		return false
	}
	if !it.started {
		it.started = true
		it.build()
	} else if it.win >= 0 && it.srcs[it.win] != nil {
		src := it.srcs[it.win]
		ok, err := src.next()
		if err != nil {
			it.err = err
			return false
		}
		if !ok {
			src.close()
			it.srcs[it.win] = nil
		}
		it.replay(it.win)
	}
	return it.win >= 0 && it.srcs[it.win] != nil
}

// Key returns the current record's key.
func (it *Iterator) Key() []byte { return it.srcs[it.win].key() }

// Value returns the current record's value.
func (it *Iterator) Value() []byte { return it.srcs[it.win].value() }

// Err returns the first error encountered during iteration, if any.
func (it *Iterator) Err() error { return it.err }

// Close releases all spill files. It is safe to call multiple times.
func (it *Iterator) Close() {
	if it.closed {
		return
	}
	it.closed = true
	for i, src := range it.srcs {
		if src != nil {
			src.close()
			it.srcs[i] = nil
		}
	}
	it.win = -1
}
