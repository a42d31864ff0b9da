package extsort

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// encodeTestRun writes n sorted records through RunWriter and returns
// the encoded run plus the records for verification.
func encodeTestRun(t *testing.T, n int, codec Codec) ([]byte, [][2][]byte) {
	t.Helper()
	var buf bytes.Buffer
	w := NewRunWriter(&buf, codec)
	var recs [][2][]byte
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		val := []byte(fmt.Sprintf("val-%d", i%7))
		recs = append(recs, [2][]byte{key, val})
		if err := w.Append(key, val); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := w.Records(); got != int64(n) {
		t.Fatalf("Records() = %d, want %d", got, n)
	}
	size, err := w.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if size != int64(buf.Len()) {
		t.Fatalf("Finish size %d != encoded length %d", size, buf.Len())
	}
	return buf.Bytes(), recs
}

func memReadAt(data []byte) ReadAtFunc {
	return func(off int64, n int) ([]byte, error) {
		if off < 0 || off+int64(n) > int64(len(data)) {
			return nil, fmt.Errorf("region [%d,+%d) outside %d bytes", off, n, len(data))
		}
		return data[off : off+int64(n) : off+int64(n)], nil
	}
}

func TestRunReaderRoundTrip(t *testing.T) {
	for _, codec := range []Codec{CodecRaw, CodecFlate} {
		t.Run(codec.String(), func(t *testing.T) {
			const n = 20000 // several blocks
			data, recs := encodeTestRun(t, n, codec)
			r, err := OpenRunReader(int64(len(data)), memReadAt(data))
			if err != nil {
				t.Fatalf("OpenRunReader: %v", err)
			}
			if r.Records() != n {
				t.Fatalf("Records() = %d, want %d", r.Records(), n)
			}
			if r.NumBlocks() < 2 {
				t.Fatalf("expected multiple blocks, got %d", r.NumBlocks())
			}
			// Every record is found in exactly the block FindBlock names.
			i := 0
			for b := 0; b < r.NumBlocks(); b++ {
				blk, err := r.ReadBlock(b)
				if err != nil {
					t.Fatalf("ReadBlock(%d): %v", b, err)
				}
				if !bytes.Equal(r.FirstKey(b), blk.Key(0)) {
					t.Fatalf("block %d footer first key %q != decoded %q", b, r.FirstKey(b), blk.Key(0))
				}
				for j := 0; j < blk.Len(); j++ {
					if !bytes.Equal(blk.Key(j), recs[i][0]) || !bytes.Equal(blk.Value(j), recs[i][1]) {
						t.Fatalf("record %d mismatch: got (%q,%q) want (%q,%q)",
							i, blk.Key(j), blk.Value(j), recs[i][0], recs[i][1])
					}
					if fb := r.FindBlock(recs[i][0]); fb != b {
						t.Fatalf("FindBlock(%q) = %d, want %d", recs[i][0], fb, b)
					}
					if pos, ok := blk.Search(recs[i][0]); !ok || pos != j {
						t.Fatalf("Search(%q) = (%d,%v), want (%d,true)", recs[i][0], pos, ok, j)
					}
					i++
				}
			}
			if i != n {
				t.Fatalf("decoded %d records, want %d", i, n)
			}
			// Absent keys: before the first block, and between records.
			if fb := r.FindBlock([]byte("a")); fb != -1 {
				t.Fatalf("FindBlock(before first) = %d, want -1", fb)
			}
			blk, err := r.ReadBlock(0)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := blk.Search([]byte("key-000000x")); ok {
				t.Fatal("Search found a key that was never written")
			}
		})
	}
}

func TestRunReaderConcurrentReadBlock(t *testing.T) {
	data, _ := encodeTestRun(t, 30000, CodecRaw)
	r, err := OpenRunReader(int64(len(data)), memReadAt(data))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for b := 0; b < r.NumBlocks(); b++ {
					blk, err := r.ReadBlock(b)
					if err != nil {
						t.Errorf("goroutine %d: ReadBlock(%d): %v", g, b, err)
						return
					}
					// Spot-check one record of the block via Search.
					j := (g + pass) % blk.Len()
					if _, ok := blk.Search(blk.Key(j)); !ok {
						t.Errorf("goroutine %d: block %d key %d not found by Search", g, b, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRunReaderCorruptFooter(t *testing.T) {
	data, _ := encodeTestRun(t, 1000, CodecRaw)
	// Truncation anywhere must error at open (the trailer records the
	// exact layout) — sample a few cut points including inside blocks.
	for _, cut := range []int{0, 1, len(data) / 3, len(data) - 1} {
		if _, err := OpenRunReader(int64(cut), memReadAt(data[:cut])); err == nil {
			t.Fatalf("OpenRunReader succeeded on %d-byte truncation", cut)
		}
	}
}
