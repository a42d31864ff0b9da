package index

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
)

// drain reads a cursor to its end and returns the keys and values seen.
func drain(c *Cursor) (keys, vals [][]byte, err error) {
	defer c.Close()
	for c.Next() {
		keys, vals = append(keys, c.Key()), append(vals, c.Value())
	}
	return keys, vals, c.Err()
}

// TestCursorRanges checks Seek against the sorted record list on ranges
// chosen around every structural boundary of a 3-shard, many-block
// index, and requires Index.Scan to yield the same records.
func TestCursorRanges(t *testing.T) {
	dir := t.TempDir()
	const n = 40000
	keys, vals := buildIndex(t, dir, n, 3)
	ix, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// pos is the position of the first record with key ≥ k.
	pos := func(k []byte) int {
		return sort.Search(n, func(i int) bool { return bytes.Compare(keys[i], k) >= 0 })
	}
	key := func(i int) []byte { return keys[i] }
	after := func(i int) []byte { return append(append([]byte(nil), keys[i]...), 'x') } // between i and i+1

	if len(ix.shards) != 3 || ix.shards[0].rr.NumBlocks() < 3 {
		t.Fatalf("fixture: %d shards, %d blocks in the first; want 3 shards of several blocks", len(ix.shards), ix.shards[0].rr.NumBlocks())
	}
	shard1 := pos(ix.shards[1].info.FirstKey)  // first record of shard 1
	block1 := pos(ix.shards[0].rr.FirstKey(1)) // first record of shard 0's block 1
	block2 := pos(ix.shards[0].rr.FirstKey(2)) // … and of its block 2
	lastBlk := ix.shards[2].rr.NumBlocks() - 1 // last block of the last shard
	tail := pos(ix.shards[2].rr.FirstKey(lastBlk))

	cases := []struct {
		name   string
		lo, hi []byte
	}{
		{"inside one block", key(10), key(25)},
		{"across a block boundary", key(block1 - 3), key(block1 + 3)},
		{"from a block's first key", key(block1), key(block1 + 1)},
		{"up to a block's first key", key(block1 - 2), key(block1)},
		{"a whole block and more", key(block1 - 1), key(block2 + 1)},
		{"across a shard boundary", key(shard1 - 3), key(shard1 + 3)},
		{"from a shard's first key", key(shard1), key(shard1 + 2)},
		{"up to a shard's last key", key(shard1 - 2), key(shard1)},
		{"between a shard's last key and the next's first", after(shard1 - 1), key(shard1 + 1)},
		{"across every shard", key(5), key(n - 5)},
		{"lo below the first key", []byte("a"), key(4)},
		{"hi past the last key", key(n - 4), []byte("zzz")},
		{"both outside", []byte("a"), []byte("zzz")},
		{"lo equals a stored key", key(777), key(780)},
		{"lo between stored keys", after(777), key(780)},
		{"hi between stored keys", key(777), after(780)},
		{"empty: lo equals hi", key(500), key(500)},
		{"empty: between adjacent keys", after(500), key(501)},
		{"empty: inverted", key(600), key(500)},
		{"empty: past the end", []byte("zzy"), []byte("zzz")},
		{"empty: before the start", []byte("a"), []byte("b")},
		{"hi nil: to the end", key(tail - 2), nil},
		{"hi nil: past the end", []byte("zzz"), nil},
		{"lo nil", nil, key(7)},
		{"lo nil across a shard", nil, key(shard1 + 1)},
	}
	for _, tc := range cases {
		from, to := 0, n
		if tc.lo != nil {
			from = pos(tc.lo)
		}
		if tc.hi != nil {
			to = pos(tc.hi)
		}
		to = max(to, from)
		gotK, gotV, err := drain(ix.Seek(tc.lo, tc.hi))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(gotK) != to-from {
			t.Fatalf("%s: cursor yields %d records, want %d", tc.name, len(gotK), to-from)
		}
		for i := range gotK {
			if !bytes.Equal(gotK[i], keys[from+i]) || !bytes.Equal(gotV[i], vals[from+i]) {
				t.Fatalf("%s: record %d is (%s, %s), want (%s, %s)", tc.name, i, gotK[i], gotV[i], keys[from+i], vals[from+i])
			}
		}
		i := 0
		err = ix.Scan(tc.lo, tc.hi, func(k, v []byte) error {
			if i >= len(gotK) || !bytes.Equal(k, gotK[i]) || !bytes.Equal(v, gotV[i]) {
				return fmt.Errorf("record %d is (%s, %s)", i, k, v)
			}
			i++
			return nil
		})
		if err != nil || i != len(gotK) {
			t.Fatalf("%s: Scan differs from the cursor after %d of %d records: %v", tc.name, i, len(gotK), err)
		}
	}

	// A range is read through the cache: a second pass over the same
	// blocks reads no file.
	_, misses0 := ix.CacheStats()
	if _, _, err := drain(ix.Seek(key(block1-3), key(block1+3))); err != nil {
		t.Fatal(err)
	}
	if _, misses := ix.CacheStats(); misses != misses0 {
		t.Fatalf("a repeated range missed the cache %d times", misses-misses0)
	}
}

// TestCursorPinsIndex: a cursor keeps the shard files open across
// Close, releases them when it ends, and a closed index hands out only
// dead cursors.
func TestCursorPinsIndex(t *testing.T) {
	dir := t.TempDir()
	const n = 40000
	keys, _ := buildIndex(t, dir, n, 3)
	ix, err := Open(dir, Options{CacheBlocks: -1}) // every block is a file read
	if err != nil {
		t.Fatal(err)
	}
	c := ix.Seek(nil, []byte("zzz"))
	if !c.Next() {
		t.Fatalf("no first record: %v", c.Err())
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	got := 1
	for c.Next() {
		got++
	}
	if err := c.Err(); err != nil || got != n {
		t.Fatalf("cursor open across Close read %d of %d records: %v", got, n, err)
	}
	if refs := ix.refs.Load(); refs != 0 {
		t.Fatalf("%d references left after the last cursor ended", refs)
	}
	c.Close() // idempotent after exhaustion
	if c.Next() {
		t.Fatal("Next after Close")
	}

	dead := ix.Seek(keys[0], keys[10])
	if dead.Next() || !errors.Is(dead.Err(), ErrClosed) {
		t.Fatalf("Seek on a closed index: Err = %v, want ErrClosed", dead.Err())
	}
	dead.Close()
	if err := ix.Scan(keys[0], keys[10], func(k, v []byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("bounded Scan on a closed index: %v, want ErrClosed", err)
	}

	// An abandoned cursor releases its pin on Close.
	ix, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c = ix.Seek(keys[5], nil)
	c.Next()
	ix.Close()
	c.Close()
	c.Close()
	if refs := ix.refs.Load(); refs != 0 {
		t.Fatalf("%d references left after closing an abandoned cursor", refs)
	}
}
