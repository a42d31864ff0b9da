package extsort

// Block-framed run format. Sealed runs — spill files on disk and
// sealed in-memory buffers alike — share one self-describing layout:
//
//	run     := block* index trailer
//	block   := uvarint(records) uvarint(rawLen) uvarint(encLen)
//	           byte(codec) u32le(crc32c(payload)) payload
//	payload := encLen bytes; the front-coded records, optionally
//	           flate-compressed (rawLen is the pre-codec size)
//	index   := uvarint(nBlocks)
//	           { uvarint(offset) uvarint(records)
//	             uvarint(len(firstKey)) firstKey }*
//	trailer := u32le(crc32c(index)) u64le(indexOff) u32le(indexLen)
//	           byte(version) "NGR1"
//
// Records inside a block are front-coded: each key stores only the
// length of the prefix it shares with the previous key plus its
// differing suffix, which is what makes sorted SUFFIX-σ suffix keys —
// long runs of sequences sharing leading terms — dramatically smaller
// than flat framing. A record whose value is byte-identical to the
// previous record's value elides it entirely (after a combiner most
// n-gram aggregate values are the same tiny count, so this removes
// most value bytes). The first record of every block stores its full
// key and value, so blocks decode independently:
//
//	record  := recCode [uvarint(shared)] [uvarint(suffixLen)] suffix
//	           [uvarint(valueLen) value]
//	recCode := bit 7: value identical to previous record's (elided)
//	           bits 6–4: sharedPrefixLen, 7 = escape to varint
//	           bits 3–0: suffixLen, 15 = escape to varint
//
// The common shuffle record — a short suffix key sharing a small
// prefix, repeating the previous value — costs exactly one byte of
// framing.
//
// The per-run index maps each block to its first key, letting a merge
// reader positioned by MergeRunsRange skip whole blocks outside its
// key range, and letting sequential readers stream block-at-a-time
// with readahead instead of record-at-a-time buffered reads. Every
// block and the index carry CRC-32C checksums; truncation or
// corruption anywhere — payload, index, trailer — surfaces as an
// error wrapping ErrCorruptRun, never as silently missing records.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Codec selects the optional per-block compression applied on top of
// front-coding.
type Codec uint8

const (
	// CodecRaw stores block payloads uncompressed (the default).
	CodecRaw Codec = iota
	// CodecFlate compresses each block with DEFLATE at level 1. Blocks
	// that do not shrink are stored raw, so the setting is always safe;
	// it pays off for methods whose values compress well (NAÏVE,
	// APRIORI-SCAN counts) at some CPU cost.
	CodecFlate
)

func (c Codec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecFlate:
		return "flate"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// ErrCorruptRun is wrapped by every error the run-format reader reports
// for malformed, truncated, or checksum-failing run data.
var ErrCorruptRun = errors.New("extsort: corrupt run")

// IOStats aggregates the measured byte transfer of sealed runs: bytes
// of encoded run data produced by sorters (spill files and sealed
// in-memory runs) and bytes consumed by merge readers. The counters
// are atomic; one IOStats may be shared by every sorter and merge of a
// job. Runs remember the stats of the sorter that sealed them, so the
// reduce-side merge accounts its reads to the same instance.
type IOStats struct {
	written atomic.Int64
	read    atomic.Int64
}

// BytesWritten returns the total encoded run bytes produced.
func (s *IOStats) BytesWritten() int64 { return s.written.Load() }

// BytesRead returns the total encoded run bytes consumed.
func (s *IOStats) BytesRead() int64 { return s.read.Load() }

// AddWritten folds in run bytes written outside this instance's
// sorters — the process runner accounts worker-reported transfer to
// the job's stats this way.
func (s *IOStats) AddWritten(n int64) { s.addWritten(n) }

// AddRead folds in run bytes read outside this instance's merges.
func (s *IOStats) AddRead(n int64) { s.addRead(n) }

func (s *IOStats) addWritten(n int64) {
	if s != nil {
		s.written.Add(n)
	}
}

func (s *IOStats) addRead(n int64) {
	if s != nil {
		s.read.Add(n)
	}
}

const (
	runFormatVersion = 1
	runBlockTarget   = 64 << 10 // uncompressed payload bytes per block
	runReadahead     = 256 << 10

	// trailer: crc32(index) ‖ indexOff ‖ indexLen ‖ version ‖ magic
	runTrailerSize = 4 + 8 + 4 + 1 + 4
)

var runMagic = [4]byte{'N', 'G', 'R', '1'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// blockInfo is one entry of the per-run footer index.
type blockInfo struct {
	offset   uint64 // byte offset of the block header within the run
	records  uint64
	firstKey []byte
}

// runWriter encodes records into the block-framed run format. Records
// must be appended in the run's sort order for front-coding to be
// effective (any order is format-valid, merely larger).
type runWriter struct {
	w         io.Writer
	codec     Codec
	blockSize int

	buf      []byte // current block's raw payload
	nRecs    uint64
	firstKey []byte
	prevKey  []byte
	prevVal  []byte
	hasPrev  bool
	index    []blockInfo
	off      uint64 // bytes emitted so far
	total    uint64 // records emitted so far

	flateW   *flate.Writer
	flateBuf bytes.Buffer
	scratch  []byte
}

// blockBufPool recycles block payload buffers (~runBlockTarget bytes
// each) across run writers: every spill, seal, and index shard write
// creates a writer, and the payload buffer is its only large
// allocation.
var blockBufPool sync.Pool // *[]byte

func getBlockBuf() []byte {
	if p, _ := blockBufPool.Get().(*[]byte); p != nil {
		return (*p)[:0]
	}
	return nil
}

func putBlockBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	blockBufPool.Put(&b)
}

func newRunWriter(w io.Writer, codec Codec, blockSize int) *runWriter {
	if blockSize <= 0 {
		blockSize = runBlockTarget
	}
	return &runWriter{w: w, codec: codec, blockSize: blockSize, buf: getBlockBuf()}
}

func sharedPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// recCode field layout: see the package comment above.
const (
	recSameValue   = 0x80
	recSharedMask  = 0x70
	recSharedShift = 4
	recSharedEsc   = 7
	recSuffixMask  = 0x0F
	recSuffixEsc   = 15
)

// append adds one record to the current block, flushing the block once
// it reaches the target size.
func (rw *runWriter) append(key, value []byte) error {
	shared := 0
	sameVal := false
	if rw.nRecs == 0 {
		rw.firstKey = append(rw.firstKey[:0], key...)
	} else {
		shared = sharedPrefix(rw.prevKey, key)
		sameVal = rw.hasPrev && bytes.Equal(rw.prevVal, value)
	}
	suffixLen := len(key) - shared

	code := byte(0)
	if sameVal {
		code |= recSameValue
	}
	if shared < recSharedEsc {
		code |= byte(shared) << recSharedShift
	} else {
		code |= recSharedEsc << recSharedShift
	}
	if suffixLen < recSuffixEsc {
		code |= byte(suffixLen)
	} else {
		code |= recSuffixEsc
	}
	rw.buf = append(rw.buf, code)
	if shared >= recSharedEsc {
		rw.buf = binary.AppendUvarint(rw.buf, uint64(shared))
	}
	if suffixLen >= recSuffixEsc {
		rw.buf = binary.AppendUvarint(rw.buf, uint64(suffixLen))
	}
	rw.buf = append(rw.buf, key[shared:]...)
	if !sameVal {
		rw.buf = binary.AppendUvarint(rw.buf, uint64(len(value)))
		rw.buf = append(rw.buf, value...)
		rw.prevVal = append(rw.prevVal[:0], value...)
	}
	rw.prevKey = append(rw.prevKey[:0], key...)
	rw.hasPrev = true
	rw.nRecs++
	rw.total++
	if len(rw.buf) >= rw.blockSize {
		return rw.flushBlock()
	}
	return nil
}

func (rw *runWriter) flushBlock() error {
	if rw.nRecs == 0 {
		return nil
	}
	payload := rw.buf
	codec := CodecRaw
	if rw.codec == CodecFlate {
		rw.flateBuf.Reset()
		if rw.flateW == nil {
			w, err := flate.NewWriter(&rw.flateBuf, 1)
			if err != nil {
				return err
			}
			rw.flateW = w
		} else {
			rw.flateW.Reset(&rw.flateBuf)
		}
		if _, err := rw.flateW.Write(rw.buf); err != nil {
			return err
		}
		if err := rw.flateW.Close(); err != nil {
			return err
		}
		// Keep the compressed form only when it actually shrinks.
		if rw.flateBuf.Len() < len(rw.buf) {
			payload = rw.flateBuf.Bytes()
			codec = CodecFlate
		}
	}

	hdr := rw.scratch[:0]
	hdr = binary.AppendUvarint(hdr, rw.nRecs)
	hdr = binary.AppendUvarint(hdr, uint64(len(rw.buf)))
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	hdr = append(hdr, byte(codec))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(payload, crcTable))
	rw.scratch = hdr

	rw.index = append(rw.index, blockInfo{
		offset:   rw.off,
		records:  rw.nRecs,
		firstKey: append([]byte(nil), rw.firstKey...),
	})
	if _, err := rw.w.Write(hdr); err != nil {
		return err
	}
	if _, err := rw.w.Write(payload); err != nil {
		return err
	}
	rw.off += uint64(len(hdr) + len(payload))
	rw.buf = rw.buf[:0]
	rw.nRecs = 0
	// prevKey stays: it is the run's last key, which the sorter's
	// combine path checks the next key against.
	rw.prevVal = rw.prevVal[:0]
	rw.hasPrev = false
	return nil
}

// finish flushes the pending block, writes the footer index and
// trailer, and returns the total encoded size of the run in bytes.
func (rw *runWriter) finish() (int64, error) {
	if err := rw.flushBlock(); err != nil {
		return 0, err
	}
	indexOff := rw.off
	idx := binary.AppendUvarint(nil, uint64(len(rw.index)))
	for _, b := range rw.index {
		idx = binary.AppendUvarint(idx, b.offset)
		idx = binary.AppendUvarint(idx, b.records)
		idx = binary.AppendUvarint(idx, uint64(len(b.firstKey)))
		idx = append(idx, b.firstKey...)
	}
	if _, err := rw.w.Write(idx); err != nil {
		return 0, err
	}
	var tr [runTrailerSize]byte
	binary.LittleEndian.PutUint32(tr[0:4], crc32.Checksum(idx, crcTable))
	binary.LittleEndian.PutUint64(tr[4:12], indexOff)
	binary.LittleEndian.PutUint32(tr[12:16], uint32(len(idx)))
	tr[16] = runFormatVersion
	copy(tr[17:21], runMagic[:])
	if _, err := rw.w.Write(tr[:]); err != nil {
		return 0, err
	}
	putBlockBuf(rw.buf)
	rw.buf = nil
	return int64(indexOff) + int64(len(idx)) + runTrailerSize, nil
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptRun, fmt.Sprintf(format, args...))
}

// runFooter is the decoded footer of a sealed run.
type runFooter struct {
	blocks   []blockInfo
	indexOff uint64 // end of the block section
	size     int64  // total run size in bytes
}

// blockEnd returns the byte offset one past block i.
func (f *runFooter) blockEnd(i int) uint64 {
	if i+1 < len(f.blocks) {
		return f.blocks[i+1].offset
	}
	return f.indexOff
}

// parseRunFooter validates the trailer and index of an encoded run of
// the given size, using readAt to fetch byte ranges.
func parseRunFooter(size int64, readAt func(off int64, n int) ([]byte, error)) (*runFooter, error) {
	if size < runTrailerSize {
		return nil, corruptf("run of %d bytes is smaller than the trailer", size)
	}
	tr, err := readAt(size-runTrailerSize, runTrailerSize)
	if err != nil {
		return nil, corruptf("read trailer: %v", err)
	}
	if !bytes.Equal(tr[17:21], runMagic[:]) {
		return nil, corruptf("bad magic %q", tr[17:21])
	}
	if tr[16] != runFormatVersion {
		return nil, corruptf("unsupported run format version %d", tr[16])
	}
	indexCRC := binary.LittleEndian.Uint32(tr[0:4])
	indexOff := binary.LittleEndian.Uint64(tr[4:12])
	indexLen := binary.LittleEndian.Uint32(tr[12:16])
	if indexOff+uint64(indexLen)+runTrailerSize != uint64(size) {
		return nil, corruptf("index bounds [%d,+%d) disagree with run size %d",
			indexOff, indexLen, size)
	}
	idx, err := readAt(int64(indexOff), int(indexLen))
	if err != nil {
		return nil, corruptf("read index: %v", err)
	}
	if crc32.Checksum(idx, crcTable) != indexCRC {
		return nil, corruptf("index checksum mismatch")
	}

	nBlocks, n := binary.Uvarint(idx)
	if n <= 0 {
		return nil, corruptf("bad block count")
	}
	idx = idx[n:]
	if nBlocks > uint64(indexLen) { // each entry takes ≥ 3 bytes
		return nil, corruptf("block count %d exceeds index size", nBlocks)
	}
	f := &runFooter{blocks: make([]blockInfo, 0, nBlocks), indexOff: indexOff, size: size}
	var prevOff uint64
	for i := uint64(0); i < nBlocks; i++ {
		var b blockInfo
		if b.offset, n = binary.Uvarint(idx); n <= 0 {
			return nil, corruptf("bad block offset in index entry %d", i)
		}
		idx = idx[n:]
		if b.records, n = binary.Uvarint(idx); n <= 0 {
			return nil, corruptf("bad record count in index entry %d", i)
		}
		idx = idx[n:]
		keyLen, n := binary.Uvarint(idx)
		if n <= 0 || keyLen > uint64(len(idx[n:])) {
			return nil, corruptf("bad first key in index entry %d", i)
		}
		idx = idx[n:]
		b.firstKey = idx[:keyLen:keyLen]
		idx = idx[keyLen:]
		if b.offset >= indexOff || (i > 0 && b.offset <= prevOff) {
			return nil, corruptf("block offset %d out of order in index entry %d", b.offset, i)
		}
		prevOff = b.offset
		f.blocks = append(f.blocks, b)
	}
	if len(idx) != 0 {
		return nil, corruptf("%d trailing bytes after index", len(idx))
	}
	return f, nil
}

// blockDecoder decodes the front-coded records of one block.
type blockDecoder struct {
	raw     []byte // decompressed payload being decoded
	remain  uint64
	started bool   // a record of this block has been decoded
	key     []byte // current key, reused across records
	val     []byte

	rawBuf  []byte // reusable decompression buffer
	payload bytes.Reader
	flateR  io.ReadCloser
}

// reset points the decoder at one block region (header ‖ payload),
// verifying its checksum and decompressing if needed.
func (d *blockDecoder) reset(region []byte) error {
	nRecs, n := binary.Uvarint(region)
	if n <= 0 {
		return corruptf("bad block record count")
	}
	region = region[n:]
	rawLen, n := binary.Uvarint(region)
	if n <= 0 {
		return corruptf("bad block raw length")
	}
	region = region[n:]
	encLen, n := binary.Uvarint(region)
	if n <= 0 {
		return corruptf("bad block encoded length")
	}
	region = region[n:]
	if len(region) < 5 || uint64(len(region)-5) != encLen {
		return corruptf("block payload is %d bytes, header says %d", len(region)-5, encLen)
	}
	codec := Codec(region[0])
	crc := binary.LittleEndian.Uint32(region[1:5])
	payload := region[5:]
	if crc32.Checksum(payload, crcTable) != crc {
		return corruptf("block payload checksum mismatch")
	}
	switch codec {
	case CodecRaw:
		if rawLen != encLen {
			return corruptf("raw block has rawLen %d != encLen %d", rawLen, encLen)
		}
		d.raw = payload
	case CodecFlate:
		// Decompression-bomb guard: DEFLATE expands at most ~1032:1, so
		// a rawLen beyond that bound (or beyond any run we could have
		// written) cannot come from our writer. A single oversized
		// record legitimately produces an oversized block, so the bound
		// must scale with the payload, not the block target.
		if rawLen > (encLen+1)*1032 || rawLen >= 1<<31 {
			return corruptf("block raw length %d implausible for %d payload bytes", rawLen, encLen)
		}
		if cap(d.rawBuf) < int(rawLen) {
			d.rawBuf = make([]byte, rawLen)
		}
		d.rawBuf = d.rawBuf[:rawLen]
		d.payload.Reset(payload)
		if d.flateR == nil {
			d.flateR = flate.NewReader(&d.payload)
		} else if err := d.flateR.(flate.Resetter).Reset(&d.payload, nil); err != nil {
			return corruptf("reset flate reader: %v", err)
		}
		if _, err := io.ReadFull(d.flateR, d.rawBuf); err != nil {
			return corruptf("decompress block: %v", err)
		}
		// A well-formed block ends exactly at rawLen.
		var one [1]byte
		if n, _ := d.flateR.Read(one[:]); n != 0 {
			return corruptf("block decompresses beyond its raw length")
		}
		d.raw = d.rawBuf
	default:
		return corruptf("unknown block codec %d", codec)
	}
	d.remain = nRecs
	d.started = false
	d.key = d.key[:0]
	return nil
}

// next decodes the next record of the block into d.key/d.val.
func (d *blockDecoder) next() (bool, error) {
	if d.remain == 0 {
		if len(d.raw) != 0 {
			return false, corruptf("%d trailing bytes in block", len(d.raw))
		}
		return false, nil
	}
	if len(d.raw) == 0 {
		return false, corruptf("block ends mid-record")
	}
	code := d.raw[0]
	d.raw = d.raw[1:]
	first := !d.started

	shared := uint64(code&recSharedMask) >> recSharedShift
	if shared == recSharedEsc {
		var n int
		if shared, n = binary.Uvarint(d.raw); n <= 0 {
			return false, corruptf("bad shared-prefix length")
		}
		d.raw = d.raw[n:]
	}
	if first && shared != 0 {
		return false, corruptf("first record of block shares a prefix")
	}
	if shared > uint64(len(d.key)) {
		return false, corruptf("shared prefix %d exceeds previous key length %d", shared, len(d.key))
	}
	suffixLen := uint64(code & recSuffixMask)
	if suffixLen == recSuffixEsc {
		var n int
		if suffixLen, n = binary.Uvarint(d.raw); n <= 0 {
			return false, corruptf("bad key suffix length")
		}
		d.raw = d.raw[n:]
	}
	if suffixLen > uint64(len(d.raw)) {
		return false, corruptf("key suffix overruns block")
	}
	d.key = append(d.key[:shared], d.raw[:suffixLen]...)
	d.raw = d.raw[suffixLen:]

	if code&recSameValue != 0 {
		if first {
			return false, corruptf("first record of block elides its value")
		}
		// d.val already holds the previous record's value.
	} else {
		valLen, n := binary.Uvarint(d.raw)
		if n <= 0 || valLen > uint64(len(d.raw[n:])) {
			return false, corruptf("bad value length")
		}
		d.raw = d.raw[n:]
		d.val = d.raw[:valLen:valLen]
		d.raw = d.raw[valLen:]
	}
	d.started = true
	d.remain--
	return true, nil
}

// blockFetcher fetches the raw byte region [start, end) of a run.
// Implementations stream sequentially with readahead; fetching a
// region behind the previous one is not required.
type blockFetcher interface {
	fetch(start, end uint64) ([]byte, error)
	close()
}

// memFetcher serves block regions from an in-memory encoded run.
type memFetcher struct{ data []byte }

func (m *memFetcher) fetch(start, end uint64) ([]byte, error) {
	if start > end || end > uint64(len(m.data)) {
		return nil, corruptf("block region [%d,%d) outside run of %d bytes", start, end, len(m.data))
	}
	return m.data[start:end:end], nil
}

func (m *memFetcher) close() {}

// fileFetcher streams block regions from a run file through a
// readahead buffer, seeking only when a region is skipped.
type fileFetcher struct {
	f   *os.File
	br  *bufio.Reader
	pos uint64 // next byte the buffered reader will deliver
	buf []byte
}

func (ff *fileFetcher) fetch(start, end uint64) ([]byte, error) {
	if start > end {
		return nil, corruptf("inverted block region [%d,%d)", start, end)
	}
	if ff.br == nil || start != ff.pos {
		if _, err := ff.f.Seek(int64(start), io.SeekStart); err != nil {
			return nil, err
		}
		if ff.br == nil {
			ff.br = bufio.NewReaderSize(ff.f, runReadahead)
		} else {
			ff.br.Reset(ff.f)
		}
		ff.pos = start
	}
	n := int(end - start)
	if cap(ff.buf) < n {
		ff.buf = make([]byte, n)
	}
	ff.buf = ff.buf[:n]
	if _, err := io.ReadFull(ff.br, ff.buf); err != nil {
		return nil, corruptf("read block region [%d,%d): %v", start, end, err)
	}
	ff.pos = end
	return ff.buf, nil
}

func (ff *fileFetcher) close() { ff.f.Close() }

// blockSource streams the records of one sealed run, optionally
// restricted to the key range [lo, hi) under cmp using the footer
// index to skip whole blocks. It implements source.
type blockSource struct {
	footer  *runFooter
	fetcher blockFetcher
	dec     blockDecoder
	stats   *IOStats

	cmp    Compare
	lo, hi []byte // nil = unbounded; lo inclusive, hi exclusive

	next_   int // index of the next block to decode
	end     int // one past the last candidate block
	inBlock bool
	skipLo  bool // still discarding records < lo in the first block
	done    bool
	cleanup func() // removes the backing file, if any
}

// newBlockSource opens a source over an encoded run. The footer is
// parsed via readAt; records then stream through the fetcher.
func newBlockSource(size int64, readAt func(off int64, n int) ([]byte, error),
	fetcher blockFetcher, stats *IOStats, cmp Compare, lo, hi []byte, cleanup func()) (*blockSource, error) {
	footer, err := parseRunFooter(size, readAt)
	if err != nil {
		fetcher.close()
		if cleanup != nil {
			cleanup()
		}
		return nil, err
	}
	// Footer and trailer were really read: account them.
	stats.addRead(int64(size) - int64(footer.indexOff))
	if cmp == nil {
		cmp = defaultCompare
	}
	s := &blockSource{
		footer: footer, fetcher: fetcher, stats: stats,
		cmp: cmp, lo: lo, hi: hi,
		end: len(footer.blocks), cleanup: cleanup,
	}
	if lo != nil {
		// Block i is fully below lo iff the next block's first key is
		// still below lo (its last key can equal the next first key).
		for s.next_+1 < len(footer.blocks) && cmp(footer.blocks[s.next_+1].firstKey, lo) < 0 {
			s.next_++
		}
		s.skipLo = true
	}
	if hi != nil {
		// Block j is fully at-or-above hi iff its first key is ≥ hi.
		for s.end > s.next_ && cmp(footer.blocks[s.end-1].firstKey, hi) >= 0 {
			s.end--
		}
	}
	return s, nil
}

func (s *blockSource) next() (bool, error) {
	for {
		if s.done {
			return false, nil
		}
		if !s.inBlock {
			if s.next_ >= s.end {
				s.done = true
				return false, nil
			}
			start := s.footer.blocks[s.next_].offset
			end := s.footer.blockEnd(s.next_)
			region, err := s.fetcher.fetch(start, end)
			if err != nil {
				return false, err
			}
			s.stats.addRead(int64(end - start))
			if err := s.dec.reset(region); err != nil {
				return false, err
			}
			s.next_++
			s.inBlock = true
		}
		ok, err := s.dec.next()
		if err != nil {
			return false, err
		}
		if !ok {
			s.inBlock = false
			continue
		}
		if s.skipLo {
			if s.cmp(s.dec.key, s.lo) < 0 {
				continue
			}
			s.skipLo = false
		}
		if s.hi != nil && s.cmp(s.dec.key, s.hi) >= 0 {
			// Keys are sorted: nothing at or past hi is wanted.
			s.done = true
			return false, nil
		}
		return true, nil
	}
}

func (s *blockSource) key() []byte   { return s.dec.key }
func (s *blockSource) value() []byte { return s.dec.val }

func (s *blockSource) close() {
	s.fetcher.close()
	if s.cleanup != nil {
		s.cleanup()
		s.cleanup = nil
	}
	if s.dec.flateR != nil {
		s.dec.flateR.Close()
		s.dec.flateR = nil
	}
}
