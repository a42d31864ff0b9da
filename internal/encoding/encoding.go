// Package encoding provides the byte-level codecs shared by all methods:
// variable-byte (varint) integer encoding [Witten et al., "Managing
// Gigabytes"], length-framed records for spill files, and two sequence
// key codecs. Results and saved indexes store sequences as LEB128
// varints (AppendSeq). Shuffle keys that must sort in term order use
// the key encoding (AppendKey), whose plain byte order is term order:
// the shuffle then sorts, merges and groups with bytes.Compare alone,
// which answers the paper's Section V call for raw comparators without
// decoding a single term.
package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ngramstats/internal/sequence"
)

// ErrCorrupt is returned when a codec encounters malformed input.
var ErrCorrupt = errors.New("encoding: corrupt data")

// AppendUvarint appends the varint encoding of v to dst.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// Uvarint decodes a varint from b, returning the value and the number of
// bytes read. It returns n <= 0 on malformed input, mirroring
// binary.Uvarint.
func Uvarint(b []byte) (uint64, int) {
	return binary.Uvarint(b)
}

// UvarintLen returns the number of bytes AppendUvarint uses for v.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendSeq appends the terms of s as consecutive varints. The encoding
// carries no explicit length: a sequence key occupies an entire key
// slice and is decoded until exhaustion. Term identifiers are assigned
// in descending collection-frequency order, so frequent terms encode in
// one byte.
func AppendSeq(dst []byte, s sequence.Seq) []byte {
	for _, t := range s {
		dst = binary.AppendUvarint(dst, uint64(t))
	}
	return dst
}

// EncodeSeq returns the varint encoding of s as a fresh slice.
func EncodeSeq(s sequence.Seq) []byte {
	return AppendSeq(make([]byte, 0, len(s)+4), s)
}

// DecodeSeq decodes an entire slice of consecutive varints into a term
// sequence.
func DecodeSeq(b []byte) (sequence.Seq, error) {
	s := make(sequence.Seq, 0, len(b))
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 || v > 0xFFFFFFFF {
			return nil, fmt.Errorf("%w: bad term varint", ErrCorrupt)
		}
		s = append(s, sequence.Term(v))
		b = b[n:]
	}
	return s, nil
}

// DecodeSeqInto decodes b into dst (reusing its capacity) and returns
// the decoded sequence. It is the allocation-free variant of DecodeSeq
// for hot loops.
func DecodeSeqInto(dst sequence.Seq, b []byte) (sequence.Seq, error) {
	dst = dst[:0]
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 || v > 0xFFFFFFFF {
			return dst, fmt.Errorf("%w: bad term varint", ErrCorrupt)
		}
		dst = append(dst, sequence.Term(v))
		b = b[n:]
	}
	return dst, nil
}

// SeqLen returns the number of terms encoded in b without allocating.
// Malformed input yields -1.
func SeqLen(b []byte) int {
	n := 0
	for len(b) > 0 {
		_, w := binary.Uvarint(b)
		if w <= 0 {
			return -1
		}
		b = b[w:]
		n++
	}
	return n
}

// The key encoding is a prefix varint whose lead byte gives its length,
// each length class starting where the previous one ends:
//
//	0xxxxxxx                          ids [0, 128)
//	10xxxxxx + 1 byte                 the next 2^14 ids
//	110xxxxx + 2 bytes                the next 2^21 ids
//	1110xxxx + 3 bytes                the next 2^28 ids
//	0xF0     + 4 bytes                the rest of uint32
//
// Bytewise order of encoded terms is their numeric order, and no
// encoding is a prefix of another, so bytewise order of encoded
// sequences is sequence.Compare and descending bytewise order is
// sequence.CompareReverseLex (Section IV): a sequence's bytes are a
// prefix of its extensions' bytes, so the extensions sort before it.
// No encoding is longer than LEB128's for the same id.
const (
	keyBase2 = 1 << 7
	keyBase3 = keyBase2 + 1<<14
	keyBase4 = keyBase3 + 1<<21
	keyBase5 = keyBase4 + 1<<28
)

// AppendKeyTerm appends the key encoding of t to dst.
func AppendKeyTerm(dst []byte, t sequence.Term) []byte {
	switch v := uint32(t); {
	case v < keyBase2:
		return append(dst, byte(v))
	case v < keyBase3:
		v -= keyBase2
		return append(dst, 0x80|byte(v>>8), byte(v))
	case v < keyBase4:
		v -= keyBase3
		return append(dst, 0xC0|byte(v>>16), byte(v>>8), byte(v))
	case v < keyBase5:
		v -= keyBase4
		return append(dst, 0xE0|byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	default:
		return binary.BigEndian.AppendUint32(append(dst, 0xF0), v-keyBase5)
	}
}

// AppendKey appends the key encoding of every term of s to dst.
func AppendKey(dst []byte, s sequence.Seq) []byte {
	for _, t := range s {
		dst = AppendKeyTerm(dst, t)
	}
	return dst
}

// keyTerm decodes the key-encoded term at the start of b and its
// width; width 0 means b is truncated or its lead byte is invalid.
func keyTerm(b []byte) (uint32, int) {
	switch {
	case len(b) == 0:
		return 0, 0
	case b[0] < 0x80:
		return uint32(b[0]), 1
	case b[0] < 0xC0 && len(b) >= 2:
		return keyBase2 + (uint32(b[0]&0x3F)<<8 | uint32(b[1])), 2
	case b[0] < 0xE0 && b[0] >= 0xC0 && len(b) >= 3:
		return keyBase3 + (uint32(b[0]&0x1F)<<16 | uint32(b[1])<<8 | uint32(b[2])), 3
	case b[0] < 0xF0 && b[0] >= 0xE0 && len(b) >= 4:
		return keyBase4 + binary.BigEndian.Uint32(b)&0x0FFFFFFF, 4
	case b[0] == 0xF0 && len(b) >= 5:
		if v := binary.BigEndian.Uint32(b[1:]); v <= 0xFFFFFFFF-keyBase5 {
			return keyBase5 + v, 5
		}
	}
	return 0, 0
}

// DecodeKeyInto decodes a key-encoded sequence into dst, reusing its
// capacity.
func DecodeKeyInto(dst sequence.Seq, b []byte) (sequence.Seq, error) {
	dst = dst[:0]
	for len(b) > 0 {
		v, n := keyTerm(b)
		if n == 0 {
			return dst, fmt.Errorf("%w: bad key term", ErrCorrupt)
		}
		dst = append(dst, sequence.Term(v))
		b = b[n:]
	}
	return dst, nil
}

// FirstTerm decodes the first term of a key-encoded sequence. The
// SUFFIX-σ partitioner assigns reducers based on it alone (Algorithm 4).
func FirstTerm(b []byte) (sequence.Term, error) {
	v, n := keyTerm(b)
	if n == 0 {
		return 0, fmt.Errorf("%w: bad first key term", ErrCorrupt)
	}
	return sequence.Term(v), nil
}

// WriteRecord writes a length-framed (key, value) record:
// uvarint(len(key)) ‖ key ‖ uvarint(len(value)) ‖ value.
func WriteRecord(w io.Writer, key, value []byte) error {
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(key)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.Write(key); err != nil {
		return err
	}
	n = binary.PutUvarint(hdr[:], uint64(len(value)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(value)
	return err
}

// RecordReader reads length-framed records produced by WriteRecord.
type RecordReader struct {
	r   io.ByteReader
	src io.Reader
	key []byte
	val []byte
}

// NewRecordReader returns a RecordReader reading from r. For efficiency
// r should be buffered; if it does not implement io.ByteReader a
// one-byte fallback is used.
func NewRecordReader(r io.Reader) *RecordReader {
	br, ok := r.(interface {
		io.Reader
		io.ByteReader
	})
	if ok {
		return &RecordReader{r: br, src: br}
	}
	return &RecordReader{r: &byteReaderAdapter{r: r}, src: r}
}

type byteReaderAdapter struct {
	r   io.Reader
	buf [1]byte
}

func (a *byteReaderAdapter) ReadByte() (byte, error) {
	_, err := io.ReadFull(a.r, a.buf[:])
	return a.buf[0], err
}

// Next reads the next record. It returns io.EOF at a clean end of
// stream and ErrCorrupt on a truncated record. The returned slices are
// reused across calls.
func (rr *RecordReader) Next() (key, value []byte, err error) {
	klen, err := binary.ReadUvarint(rr.r)
	if err != nil {
		if err == io.EOF {
			return nil, nil, io.EOF
		}
		return nil, nil, fmt.Errorf("%w: record key length: %v", ErrCorrupt, err)
	}
	rr.key = grow(rr.key, int(klen))
	if err := rr.readFull(rr.key); err != nil {
		return nil, nil, fmt.Errorf("%w: record key: %v", ErrCorrupt, err)
	}
	vlen, err := binary.ReadUvarint(rr.r)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: record value length: %v", ErrCorrupt, err)
	}
	rr.val = grow(rr.val, int(vlen))
	if err := rr.readFull(rr.val); err != nil {
		return nil, nil, fmt.Errorf("%w: record value: %v", ErrCorrupt, err)
	}
	return rr.key, rr.val, nil
}

func (rr *RecordReader) readFull(dst []byte) error {
	if len(dst) == 0 {
		return nil
	}
	if r, ok := rr.src.(io.Reader); ok {
		_, err := io.ReadFull(r, dst)
		return err
	}
	for i := range dst {
		b, err := rr.r.ReadByte()
		if err != nil {
			return err
		}
		dst[i] = b
	}
	return nil
}

func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// RecordLen returns the on-disk size of a record with the given key and
// value lengths. Used by spill accounting.
func RecordLen(keyLen, valLen int) int {
	return UvarintLen(uint64(keyLen)) + keyLen + UvarintLen(uint64(valLen)) + valLen
}
