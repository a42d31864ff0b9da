package encoding

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"ngramstats/internal/sequence"
)

// FuzzDecodeSeq: arbitrary bytes either decode to a sequence that
// re-encodes to the same bytes, or are rejected — never a panic.
func FuzzDecodeSeq(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x7F})
	f.Add([]byte{0x80, 0x01})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSeq(data)
		if err != nil {
			return
		}
		re := EncodeSeq(s)
		// Varints have a unique minimal form, but decoding accepts
		// non-minimal encodings; re-encoding those shrinks. Decoding the
		// re-encoded form must reproduce the same sequence.
		s2, err := DecodeSeq(re)
		if err != nil {
			t.Fatalf("re-encoded sequence failed to decode: %v", err)
		}
		if len(s) != len(s2) {
			t.Fatalf("round trip changed length: %d vs %d", len(s), len(s2))
		}
		for i := range s {
			if s[i] != s2[i] {
				t.Fatalf("round trip changed term %d", i)
			}
		}
		if SeqLen(data) != len(s) {
			t.Fatalf("SeqLen disagrees with DecodeSeq")
		}
	})
}

// FuzzRecordReader: truncated or corrupted record streams must error
// out or terminate cleanly, never panic or over-read.
func FuzzRecordReader(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteRecord(&seed, []byte("key"), []byte("value"))
	_ = WriteRecord(&seed, nil, nil)
	f.Add(seed.Bytes())
	f.Add([]byte{0x05})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		rr := NewRecordReader(bytes.NewReader(data))
		for i := 0; i < 1000; i++ {
			k, v, err := rr.Next()
			if err != nil {
				return
			}
			if len(k)+len(v) > len(data) {
				t.Fatalf("record larger than input: %d+%d > %d", len(k), len(v), len(data))
			}
		}
	})
}

// FuzzComparatorsAgree: on arbitrary valid encodings, the raw
// comparator is antisymmetric and agrees with bytes on equality.
func FuzzComparatorsAgree(f *testing.F) {
	f.Add([]byte{0x01, 0x02}, []byte{0x01, 0x03})
	f.Add([]byte{}, []byte{0x00})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if _, err := DecodeSeq(a); err != nil {
			return
		}
		if _, err := DecodeSeq(b); err != nil {
			return
		}
		fwd := CompareSeqBytes(a, b)
		rev := CompareSeqBytes(b, a)
		if (fwd < 0) != (rev > 0) || (fwd == 0) != (rev == 0) {
			t.Fatalf("CompareSeqBytes not antisymmetric: %d vs %d", fwd, rev)
		}
		if (fwd == 0) != bytes.Equal(a, b) {
			t.Fatalf("CompareSeqBytes and bytes disagree on equality")
		}
	})
}

// FuzzKeyEncoding: any byte string either fails to decode as a key with
// ErrCorrupt or is the one canonical encoding of what it decodes to;
// and for two sequences built from the input, byte order of their key
// encodings is sequence.Compare, descending byte order is
// sequence.CompareReverseLex, and neither is longer than LEB128.
func FuzzKeyEncoding(f *testing.F) {
	f.Add([]byte{0x7F, 0x80, 0x00}, []byte{0x80, 0x00, 0x00, 0x00})
	f.Add([]byte{0xF0, 0xFF, 0xFF, 0xFF, 0xFF}, []byte{})
	f.Add([]byte{0xBF, 0xFF, 0xC0}, []byte{0xDF, 0xFF, 0xFF, 0xE0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		for _, raw := range [][]byte{a, b} {
			s, err := DecodeKeyInto(nil, raw)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("DecodeKeyInto(%x): %v", raw, err)
				}
				continue
			}
			if re := AppendKey(nil, s); !bytes.Equal(re, raw) {
				t.Fatalf("%x decodes to %v, which encodes to %x", raw, s, re)
			}
		}
		// Read each input as little-endian uint32 words, shifted by
		// their low bits so every length class is reached.
		seq := func(raw []byte) sequence.Seq {
			var s sequence.Seq
			for ; len(raw) >= 4; raw = raw[4:] {
				w := binary.LittleEndian.Uint32(raw)
				s = append(s, sequence.Term(w>>(w&31)))
			}
			return s
		}
		sa, sb := seq(a), seq(b)
		ka, kb := AppendKey(nil, sa), AppendKey(nil, sb)
		if len(ka) > len(AppendSeq(nil, sa)) {
			t.Fatalf("%v: key encoding %d bytes, LEB128 %d", sa, len(ka), len(AppendSeq(nil, sa)))
		}
		if got, err := DecodeKeyInto(nil, ka); err != nil || !sequence.Equal(got, sa) {
			t.Fatalf("%v round-trips to %v, %v", sa, got, err)
		}
		if sign(bytes.Compare(ka, kb)) != sign(sequence.Compare(sa, sb)) {
			t.Fatalf("bytes of %v and %v disagree with sequence.Compare", sa, sb)
		}
		if sign(bytes.Compare(kb, ka)) != sign(sequence.CompareReverseLex(sa, sb)) {
			t.Fatalf("descending bytes of %v and %v disagree with sequence.CompareReverseLex", sa, sb)
		}
	})
}
