package encoding

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ngramstats/internal/sequence"
)

func TestUvarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		b := AppendUvarint(nil, v)
		got, n := Uvarint(b)
		return n == len(b) && got == v && UvarintLen(v) == len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUvarintLenBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 1}, {0x7F, 1}, {0x80, 2}, {0x3FFF, 2}, {0x4000, 3},
	}
	for _, c := range cases {
		if got := UvarintLen(c.v); got != c.want {
			t.Errorf("UvarintLen(%#x) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestSeqRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(20)
		s := make(sequence.Seq, n)
		for i := range s {
			s[i] = sequence.Term(rng.Uint32() >> uint(rng.Intn(24)))
		}
		b := EncodeSeq(s)
		got, err := DecodeSeq(b)
		if err != nil {
			t.Fatal(err)
		}
		if !sequence.Equal(got, s) {
			t.Fatalf("round trip: got %v, want %v", got, s)
		}
		if SeqLen(b) != len(s) {
			t.Fatalf("SeqLen = %d, want %d", SeqLen(b), len(s))
		}
		got2, err := DecodeSeqInto(got[:0], b)
		if err != nil {
			t.Fatal(err)
		}
		if !sequence.Equal(got2, s) {
			t.Fatalf("DecodeSeqInto: got %v, want %v", got2, s)
		}
	}
}

func TestDecodeSeqCorrupt(t *testing.T) {
	// A lone continuation byte is malformed.
	if _, err := DecodeSeq([]byte{0x80}); err == nil {
		t.Fatal("DecodeSeq accepted truncated varint")
	}
	if SeqLen([]byte{0x80}) != -1 {
		t.Fatal("SeqLen accepted truncated varint")
	}
	if _, err := FirstTerm([]byte{0x80}); err == nil {
		t.Fatal("FirstTerm accepted truncated varint")
	}
}

func TestFirstTerm(t *testing.T) {
	s := sequence.Seq{300, 2, 1}
	ft, err := FirstTerm(AppendKey(nil, s))
	if err != nil {
		t.Fatal(err)
	}
	if ft != 300 {
		t.Fatalf("FirstTerm = %d, want 300", ft)
	}
}

// TestCompareSeqBytesMatchesDecoded verifies that the raw comparators
// agree with their decoded counterparts on random sequences — the
// correctness condition for using raw comparators in the shuffle.
func TestCompareSeqBytesMatchesDecoded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gen := func() sequence.Seq {
		n := rng.Intn(6)
		s := make(sequence.Seq, n)
		for i := range s {
			// Mix of 1-byte and multi-byte varints.
			s[i] = sequence.Term(rng.Intn(1000))
		}
		return s
	}
	for trial := 0; trial < 20000; trial++ {
		a, b := gen(), gen()
		ea, eb := EncodeSeq(a), EncodeSeq(b)
		if sign(CompareSeqBytes(ea, eb)) != sign(sequence.Compare(a, b)) {
			t.Fatalf("CompareSeqBytes(%v, %v) disagrees with sequence.Compare", a, b)
		}
	}
}

// keyBoundaries are the first and last ids of every key length class.
var keyBoundaries = []uint32{
	0, 127, 128, 16511, 16512, 2113663, 2113664, 270549119, 270549120, math.MaxUint32,
}

// TestKeyEncoding pins the key encoding at every class boundary: it
// round-trips, it is never longer than LEB128, its width steps exactly
// at the boundaries, and byte order is numeric order.
func TestKeyEncoding(t *testing.T) {
	wantLen := []int{1, 1, 2, 2, 3, 3, 4, 4, 5, 5}
	var prev []byte
	for i, v := range keyBoundaries {
		enc := AppendKeyTerm(nil, sequence.Term(v))
		if len(enc) != wantLen[i] {
			t.Errorf("id %d encodes in %d bytes, want %d", v, len(enc), wantLen[i])
		}
		if len(enc) > UvarintLen(uint64(v)) {
			t.Errorf("id %d: key encoding %d bytes, LEB128 %d", v, len(enc), UvarintLen(uint64(v)))
		}
		got, err := DecodeKeyInto(nil, enc)
		if err != nil || len(got) != 1 || uint32(got[0]) != v {
			t.Errorf("id %d: decoded %v, %v", v, got, err)
		}
		if prev != nil && bytes.Compare(prev, enc) >= 0 {
			t.Errorf("id %d encodes to %x, not after %x", v, enc, prev)
		}
		prev = enc
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		v := rng.Uint32() >> rng.Intn(32)
		if n, want := len(AppendKeyTerm(nil, sequence.Term(v))), UvarintLen(uint64(v)); n > want {
			t.Fatalf("id %d: key encoding %d bytes, LEB128 %d", v, n, want)
		}
	}
	for _, bad := range [][]byte{
		{0x80}, {0xC0, 0}, {0xE0, 0, 0}, {0xF0, 0, 0, 0}, // truncated
		{0xF1, 0, 0, 0, 0}, {0xFF}, // invalid lead byte
		{0xF0, 0xFF, 0xFF, 0xFF, 0xFF}, // past uint32
		{1, 0x80},                      // truncated after a good term
	} {
		if _, err := DecodeKeyInto(nil, bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeKeyInto(%x) = %v, want ErrCorrupt", bad, err)
		}
	}
	if _, err := FirstTerm(nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("FirstTerm(empty) = %v, want ErrCorrupt", err)
	}
}

// TestKeyOrderMatchesSequenceOrder: ascending bytes are
// sequence.Compare and descending bytes are the Section IV reverse
// lexicographic order, over terms drawn from every length class.
func TestKeyOrderMatchesSequenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	gen := func() sequence.Seq {
		s := make(sequence.Seq, rng.Intn(5))
		for i := range s {
			s[i] = sequence.Term(keyBoundaries[rng.Intn(len(keyBoundaries))] - uint32(rng.Intn(2)))
		}
		return s
	}
	for trial := 0; trial < 20000; trial++ {
		a, b := gen(), gen()
		ea, eb := AppendKey(nil, a), AppendKey(nil, b)
		if sign(bytes.Compare(ea, eb)) != sign(sequence.Compare(a, b)) {
			t.Fatalf("bytes of %v and %v disagree with sequence.Compare", a, b)
		}
		if sign(bytes.Compare(eb, ea)) != sign(sequence.CompareReverseLex(a, b)) {
			t.Fatalf("descending bytes of %v and %v disagree with sequence.CompareReverseLex", a, b)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	type rec struct{ k, v []byte }
	rng := rand.New(rand.NewSource(3))
	var want []rec
	for i := 0; i < 200; i++ {
		k := make([]byte, rng.Intn(40))
		v := make([]byte, rng.Intn(100))
		rng.Read(k)
		rng.Read(v)
		want = append(want, rec{k, v})
		if err := WriteRecord(&buf, k, v); err != nil {
			t.Fatal(err)
		}
	}
	rr := NewRecordReader(bytes.NewReader(buf.Bytes()))
	for i, w := range want {
		k, v, err := rr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(k, w.k) || !bytes.Equal(v, w.v) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, _, err := rr.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestRecordEmptyKeyValue(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecord(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	rr := NewRecordReader(&buf)
	k, v, err := rr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(k) != 0 || len(v) != 0 {
		t.Fatalf("expected empty record, got %v %v", k, v)
	}
}

func TestRecordTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecord(&buf, []byte("key"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	rr := NewRecordReader(bytes.NewReader(b[:len(b)-2]))
	if _, _, err := rr.Next(); err == nil {
		t.Fatal("expected error on truncated record")
	}
}

func TestRecordLen(t *testing.T) {
	var buf bytes.Buffer
	k := make([]byte, 130)
	v := make([]byte, 7)
	if err := WriteRecord(&buf, k, v); err != nil {
		t.Fatal(err)
	}
	if got := RecordLen(len(k), len(v)); got != buf.Len() {
		t.Fatalf("RecordLen = %d, want %d", got, buf.Len())
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}
