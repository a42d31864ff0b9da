// Package kvstore provides the disk-resident key-value structures that
// stand in for the Berkeley DB Java Edition store the paper's
// implementation uses (Section V) to hold data that exceeds main memory
// at cluster nodes: the dictionary of frequent (k−1)-grams in
// APRIORI-SCAN (Store) and the buffered posting lists in APRIORI-INDEX
// (List).
//
// A Store is written once and then read: Put feeds an extsort.Sorter,
// whose own spills bound memory, and Freeze writes the sorted records
// as one extsort run, the format the shuffle and the persistent index
// use, with its CRC-32C blocks and footer index. Get finds the one
// block that can hold a key and keeps decoded blocks in an LRU ("most
// main memory is then used for caching, which helps APRIORI-SCAN in
// particular, since lookups of frequent (k−1)-grams typically hit the
// cache").
package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"ngramstats/internal/extsort"
)

// cacheBlocks is the number of decoded blocks a frozen Store keeps.
const cacheBlocks = 32

// Options configures a Store.
type Options struct {
	// MemoryBudget bounds the records buffered by Put in bytes. Zero
	// selects 16 MiB.
	MemoryBudget int
	// TempDir is the directory for the store's files. Empty selects the
	// system default.
	TempDir string
}

// Store is a write-once disk-resident key-value store: Put every
// record, Freeze, then Get. It is safe for concurrent use.
type Store struct {
	tempDir string
	mu      sync.RWMutex
	sorter  *extsort.Sorter
	f       *os.File // the frozen run
	rr      *extsort.RunReader
	blocks  *LRU
	closed  bool
}

// Open creates an empty store.
func Open(opts Options) *Store {
	if opts.MemoryBudget <= 0 {
		opts.MemoryBudget = 16 << 20
	}
	return &Store{tempDir: opts.TempDir, sorter: extsort.NewSorter(extsort.Options{
		MemoryBudget: opts.MemoryBudget,
		TempDir:      opts.TempDir,
	})}
}

var errFrozen = errors.New("kvstore: store is frozen or closed")

// Put adds a record. Each key may be put once; Freeze rejects a
// duplicate.
func (s *Store) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sorter == nil {
		return errFrozen
	}
	return s.sorter.Add(key, value)
}

// Freeze sorts the records into one run file and makes the store
// read-only.
func (s *Store) Freeze() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sorter == nil {
		return errFrozen
	}
	it, err := s.sorter.Sort()
	s.sorter = nil
	if err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	defer it.Close()
	f, err := os.CreateTemp(s.tempDir, "kvstore-*.run")
	if err != nil {
		return fmt.Errorf("kvstore: create run: %w", err)
	}
	s.f = f
	bw := bufio.NewWriter(f)
	w := extsort.NewRunWriter(bw, extsort.CodecRaw)
	var prev []byte
	for it.Next() {
		if w.Records() > 0 && bytes.Equal(it.Key(), prev) {
			return fmt.Errorf("kvstore: key %q put twice", prev)
		}
		if err := w.Append(it.Key(), it.Value()); err != nil {
			return fmt.Errorf("kvstore: write run: %w", err)
		}
		prev = append(prev[:0], it.Key()...)
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	size, err := w.Finish()
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("kvstore: write run: %w", err)
	}
	if s.rr, err = extsort.OpenRunReader(size, extsort.FileReadAt(f)); err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	s.blocks = NewLRU(cacheBlocks)
	return nil
}

// Get returns the value stored under key and whether it exists. The
// returned slice must not be modified. Get fails before Freeze.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.rr == nil || s.closed {
		return nil, false, fmt.Errorf("kvstore: Get on a store that is not frozen or is closed")
	}
	b := s.rr.FindBlock(key)
	if b < 0 {
		return nil, false, nil
	}
	blk, err := s.block(b)
	if err != nil {
		return nil, false, fmt.Errorf("kvstore: %w", err)
	}
	if i, ok := blk.Search(key); ok {
		return blk.Value(i), true, nil
	}
	return nil, false, nil
}

// block returns decoded block b of the run through the cache.
func (s *Store) block(b int) (*extsort.DecodedBlock, error) {
	var kb [4]byte
	binary.LittleEndian.PutUint32(kb[:], uint32(b))
	if v, ok := s.blocks.Get(string(kb[:])); ok {
		return v.(*extsort.DecodedBlock), nil
	}
	blk, err := s.rr.ReadBlock(b)
	if err != nil {
		return nil, err
	}
	s.blocks.Put(string(kb[:]), blk)
	return blk, nil
}

// Close releases all on-disk resources.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.sorter != nil {
		s.sorter.Discard()
		s.sorter = nil
	}
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	if rerr := os.Remove(s.f.Name()); err == nil {
		err = rerr
	}
	return err
}

// LRU is a bounded least-recently-used cache with measured
// effectiveness: Get and Put are safe for concurrent use, and the
// Stats counters report how often lookups hit. Store and the persistent
// n-gram index use it as their decoded-block cache.
type LRU struct {
	mu   sync.Mutex
	cap  int
	m    map[string]*lruEntry
	head *lruEntry // most recent
	tail *lruEntry // least recent

	hits   atomic.Int64
	misses atomic.Int64
}

type lruEntry struct {
	key        string
	val        any
	prev, next *lruEntry
}

// NewLRU returns an empty cache holding at most capacity entries
// (capacity < 1 selects 1).
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{cap: capacity, m: make(map[string]*lruEntry, capacity)}
}

// Get returns the cached value for k and whether one is present,
// marking the entry most recently used. Every call counts as a hit or
// a miss in Stats.
func (c *LRU) Get(k string) (any, bool) {
	c.mu.Lock()
	e, found := c.m[k]
	if !found {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.moveToFront(e)
	v := e.val
	c.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Put stores v under k, evicting the least recently used entry when
// the cache is full.
func (c *LRU) Put(k string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		e.val = v
		c.moveToFront(e)
		return
	}
	e := &lruEntry{key: k, val: v}
	c.m[k] = e
	c.pushFront(e)
	if len(c.m) > c.cap {
		lru := c.tail
		c.unlink(lru)
		delete(c.m, lru.key)
	}
}

// Stats returns the cumulative hit and miss counts of Get.
func (c *LRU) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

func (c *LRU) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *LRU) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *LRU) moveToFront(e *lruEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
