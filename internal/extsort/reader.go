package extsort

// Exported random-access surface of the block-framed run format.
//
// The shuffle consumes runs strictly sequentially through MergeRuns,
// but a persistent index built on the same format needs the opposite
// access pattern: write a run once in sorted order, then serve
// point-lookups and range scans by jumping straight to the one block
// that can contain a key. RunWriter and RunReader expose exactly that —
// the writer streams sorted records into the format, the reader parses
// a run's footer and decodes single blocks on demand. A RunReader is
// safe for concurrent ReadBlock calls (each call uses its own decoder
// state), which is what lets a query daemon serve many clients from one
// open shard.

import (
	"bytes"
	"io"
	"sort"
	"sync"
)

// RunWriter encodes records into a complete run in the block-framed run
// format. Records must be appended in ascending key order for the
// format's front-coding and the reader's block binary search to work
// (appending out of order corrupts nothing, but range reads over the
// result are undefined). Finish writes the footer index and trailer.
type RunWriter struct {
	rw *runWriter
	n  int64
}

// NewRunWriter returns a writer encoding into w with the given codec.
func NewRunWriter(w io.Writer, codec Codec) *RunWriter {
	return &RunWriter{rw: newRunWriter(w, codec, 0)}
}

// Append adds one record. Key and value are copied as needed; callers
// may reuse their buffers.
func (w *RunWriter) Append(key, value []byte) error {
	if err := w.rw.append(key, value); err != nil {
		return err
	}
	w.n++
	return nil
}

// Records returns the number of records appended so far.
func (w *RunWriter) Records() int64 { return w.n }

// Finish flushes the pending block and writes the footer index and
// trailer, returning the total encoded size of the run in bytes. The
// writer must not be used afterwards.
func (w *RunWriter) Finish() (int64, error) { return w.rw.finish() }

// ReadAtFunc fetches the byte range [off, off+n) of an encoded run.
// Implementations must be safe for concurrent calls (os.File.ReadAt
// and in-memory slicing both are).
type ReadAtFunc func(off int64, n int) ([]byte, error)

// RunReader provides validated random access to the blocks of one
// encoded run: the footer index is parsed and checksum-verified at open,
// after which individual blocks decode on demand. It is safe for
// concurrent use.
type RunReader struct {
	footer  *runFooter
	readAt  ReadAtFunc
	records int64
}

// OpenRunReader parses and validates the footer of an encoded run of
// the given total size. Malformed, truncated, or checksum-failing
// footers error with ErrCorruptRun.
func OpenRunReader(size int64, readAt ReadAtFunc) (*RunReader, error) {
	footer, err := parseRunFooter(size, func(off int64, n int) ([]byte, error) {
		return readAt(off, n)
	})
	if err != nil {
		return nil, err
	}
	var records int64
	for _, b := range footer.blocks {
		records += int64(b.records)
	}
	return &RunReader{footer: footer, readAt: readAt, records: records}, nil
}

// NumBlocks returns the number of blocks in the run.
func (r *RunReader) NumBlocks() int { return len(r.footer.blocks) }

// Records returns the total record count recorded in the footer.
func (r *RunReader) Records() int64 { return r.records }

// FirstKey returns the first key of block i. The returned slice must
// not be modified.
func (r *RunReader) FirstKey(i int) []byte { return r.footer.blocks[i].firstKey }

// FindBlock returns the index of the only block that can contain key
// under cmp (nil selects bytewise order): the last block whose first
// key is ≤ key. It returns -1 when key sorts before the run's first
// key, i.e. cannot be present at all.
func (r *RunReader) FindBlock(key []byte, cmp Compare) int {
	if cmp == nil {
		cmp = bytes.Compare
	}
	// First block whose firstKey > key, minus one.
	i := sort.Search(len(r.footer.blocks), func(i int) bool {
		return cmp(r.footer.blocks[i].firstKey, key) > 0
	})
	return i - 1
}

// ReadBlock fetches and decodes block i, verifying its checksum. The
// returned block is immutable and safe to share across goroutines.
func (r *RunReader) ReadBlock(i int) (*DecodedBlock, error) {
	if i < 0 || i >= len(r.footer.blocks) {
		return nil, corruptf("block %d out of range [0,%d)", i, len(r.footer.blocks))
	}
	start := r.footer.blocks[i].offset
	end := r.footer.blockEnd(i)
	region, err := r.readAt(int64(start), int(end-start))
	if err != nil {
		return nil, corruptf("read block %d region [%d,%d): %v", i, start, end, err)
	}
	return decodeBlockRegion(region)
}

// ReadBlocks fetches and decodes blocks [lo, hi) with one region read:
// the contiguous byte range covering every requested block is fetched
// in a single ReadAtFunc call, then each block's CRC-32C is verified
// and its records decoded in one pass over that buffer. Sequential
// consumers (full index scans, top-record preload) use it to replace
// per-block pread calls with one syscall per batch. The returned
// blocks are immutable and safe to share across goroutines.
func (r *RunReader) ReadBlocks(lo, hi int) ([]*DecodedBlock, error) {
	if lo < 0 || hi > len(r.footer.blocks) || lo > hi {
		return nil, corruptf("block range [%d,%d) out of range [0,%d)", lo, hi, len(r.footer.blocks))
	}
	if lo == hi {
		return nil, nil
	}
	start := r.footer.blocks[lo].offset
	end := r.footer.blockEnd(hi - 1)
	region, err := r.readAt(int64(start), int(end-start))
	if err != nil {
		return nil, corruptf("read block region [%d,%d): %v", start, end, err)
	}
	out := make([]*DecodedBlock, 0, hi-lo)
	for i := lo; i < hi; i++ {
		s := r.footer.blocks[i].offset - start
		e := r.footer.blockEnd(i) - start
		if e > uint64(len(region)) {
			return nil, corruptf("block %d region [%d,%d) overruns %d-byte read", i, s, e, len(region))
		}
		blk, err := decodeBlockRegion(region[s:e:e])
		if err != nil {
			return nil, err
		}
		out = append(out, blk)
	}
	return out, nil
}

// blockDecPool recycles blockDecoder state — key scratch, flate reader,
// decompression buffer — across ReadBlock calls, which otherwise pay
// those allocations on every cache miss of the index read path.
var blockDecPool = sync.Pool{New: func() any { return new(blockDecoder) }}

// decodeBlockRegion decodes one block region (header ‖ payload) into a
// fresh immutable DecodedBlock using pooled decoder state.
func decodeBlockRegion(region []byte) (*DecodedBlock, error) {
	dec := blockDecPool.Get().(*blockDecoder)
	defer func() {
		// Drop references into the caller's region; keep the reusable
		// scratch (key buffer, rawBuf, flate reader).
		dec.raw = nil
		dec.val = nil
		blockDecPool.Put(dec)
	}()
	if err := dec.reset(region); err != nil {
		return nil, err
	}
	// The header gives the record count exactly; the arena needs at
	// least the raw payload size (front-coding only shrinks), so both
	// start presized and at most the arena grows a step or two.
	b := &DecodedBlock{
		arena: make([]byte, 0, len(dec.raw)),
		recs:  make([]recSpan, 0, dec.remain),
	}
	for {
		ok, err := dec.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		ko := len(b.arena)
		b.arena = append(b.arena, dec.key...)
		b.arena = append(b.arena, dec.val...)
		b.recs = append(b.recs, recSpan{keyOff: ko, keyLen: len(dec.key), valLen: len(dec.val)})
	}
	return b, nil
}

// recSpan locates one record inside a DecodedBlock arena. The value
// starts immediately after the key.
type recSpan struct {
	keyOff, keyLen, valLen int
}

// DecodedBlock is one fully decoded block: records materialized into a
// single arena. It is immutable after construction; the slices returned
// by Key and Value alias the arena and must not be modified.
type DecodedBlock struct {
	arena []byte
	recs  []recSpan
}

// Len returns the number of records in the block.
func (b *DecodedBlock) Len() int { return len(b.recs) }

// Append copies one record into the block. It exists for callers that
// assemble an in-memory record list in DecodedBlock form (the
// persistent index's preloaded top records); blocks decoded by
// ReadBlock must not be appended to, as they may be shared.
func (b *DecodedBlock) Append(key, value []byte) {
	ko := len(b.arena)
	b.arena = append(b.arena, key...)
	b.arena = append(b.arena, value...)
	b.recs = append(b.recs, recSpan{keyOff: ko, keyLen: len(key), valLen: len(value)})
}

// Key returns the key of record i.
func (b *DecodedBlock) Key(i int) []byte {
	r := b.recs[i]
	return b.arena[r.keyOff : r.keyOff+r.keyLen : r.keyOff+r.keyLen]
}

// Value returns the value of record i.
func (b *DecodedBlock) Value(i int) []byte {
	r := b.recs[i]
	off := r.keyOff + r.keyLen
	return b.arena[off : off+r.valLen : off+r.valLen]
}

// Search locates key among the block's records, which must be sorted
// ascending under cmp (nil selects bytewise order). It returns the
// index of the first record with key ≥ the target, and whether that
// record's key equals the target.
func (b *DecodedBlock) Search(key []byte, cmp Compare) (int, bool) {
	if cmp == nil {
		cmp = bytes.Compare
	}
	i := sort.Search(len(b.recs), func(i int) bool {
		return cmp(b.Key(i), key) >= 0
	})
	return i, i < len(b.recs) && cmp(b.Key(i), key) == 0
}
