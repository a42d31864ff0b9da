package postings

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ngramstats/internal/encoding"
	"ngramstats/internal/sequence"
)

func TestCFAndDF(t *testing.T) {
	l := List{
		{DocID: 1, Positions: []uint32{0, 3}},
		{DocID: 4, Positions: []uint32{2}},
	}
	if l.CF() != 3 {
		t.Fatalf("CF = %d, want 3", l.CF())
	}
	if l.DF() != 2 {
		t.Fatalf("DF = %d, want 2", l.DF())
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadLists(t *testing.T) {
	bad := []List{
		{{DocID: 2, Positions: []uint32{1}}, {DocID: 1, Positions: []uint32{0}}}, // docs out of order
		{{DocID: 1, Positions: nil}},            // empty posting
		{{DocID: 1, Positions: []uint32{3, 3}}}, // equal positions
		{{DocID: 1, Positions: []uint32{5, 2}}}, // decreasing positions
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid list", i)
		}
	}
}

// TestJoinPaperExample reproduces the running example of Section III-B:
// joining ⟨a x⟩ and ⟨x b⟩ yields ⟨a x b⟩ with postings
// ⟨d1:[0], d2:[1], d3:[2]⟩.
func TestJoinPaperExample(t *testing.T) {
	ax := List{
		{DocID: 1, Positions: []uint32{0}},
		{DocID: 2, Positions: []uint32{1}},
		{DocID: 3, Positions: []uint32{2}},
	}
	xb := List{
		{DocID: 1, Positions: []uint32{1}},
		{DocID: 2, Positions: []uint32{2}},
		{DocID: 3, Positions: []uint32{0, 3}},
	}
	got := Join(ax, xb)
	want := List{
		{DocID: 1, Positions: []uint32{0}},
		{DocID: 2, Positions: []uint32{1}},
		{DocID: 3, Positions: []uint32{2}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Join = %v, want %v", got, want)
	}
	if got.CF() != 3 {
		t.Fatalf("CF = %d, want 3", got.CF())
	}
}

func TestJoinDisjointDocs(t *testing.T) {
	a := List{{DocID: 1, Positions: []uint32{0}}}
	b := List{{DocID: 2, Positions: []uint32{1}}}
	if got := Join(a, b); len(got) != 0 {
		t.Fatalf("Join of disjoint docs = %v", got)
	}
}

func TestJoinNoAdjacency(t *testing.T) {
	a := List{{DocID: 1, Positions: []uint32{0, 5}}}
	b := List{{DocID: 1, Positions: []uint32{2, 4}}}
	if got := Join(a, b); len(got) != 0 {
		t.Fatalf("Join without adjacency = %v", got)
	}
}

// buildIndex computes the exact posting list of each k-gram of the
// given documents by brute force.
func buildIndex(docs []sequence.Seq, k int) map[string]List {
	idx := make(map[string]List)
	for docID, d := range docs {
		perGram := make(map[string][]uint32)
		for b := 0; b+k <= len(d); b++ {
			key := fmt.Sprint(d[b : b+k])
			perGram[key] = append(perGram[key], uint32(b))
		}
		for key, pos := range perGram {
			idx[key] = append(idx[key], Posting{DocID: int64(docID), Positions: pos})
		}
	}
	return idx
}

// TestJoinMatchesBruteForce verifies on random documents that joining
// the posting lists of the two constituent (k−1)-grams of a k-gram
// yields exactly the k-gram's true posting list.
func TestJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		var docs []sequence.Seq
		for d := 0; d < 4; d++ {
			n := 5 + rng.Intn(15)
			s := make(sequence.Seq, n)
			for i := range s {
				s[i] = sequence.Term(rng.Intn(3))
			}
			docs = append(docs, s)
		}
		k := 2 + rng.Intn(3)
		idxK := buildIndex(docs, k)
		idxK1 := buildIndex(docs, k-1)
		// For every k-gram observed, reconstruct via join.
		for d := range docs {
			doc := docs[d]
			for b := 0; b+k <= len(doc); b++ {
				g := doc[b : b+k]
				m := idxK1[fmt.Sprint(g[:k-1])]
				n := idxK1[fmt.Sprint(g[1:])]
				got := Join(m, n)
				want := idxK[fmt.Sprint(g)]
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: join of %v = %v, want %v", trial, g, got, want)
				}
			}
		}
	}
}

func TestMerge(t *testing.T) {
	a := List{{DocID: 3, Positions: []uint32{1}}, {DocID: 7, Positions: []uint32{0}}}
	b := List{{DocID: 1, Positions: []uint32{4}}, {DocID: 3, Positions: []uint32{5}}}
	got := Merge(a, b)
	want := List{
		{DocID: 1, Positions: []uint32{4}},
		{DocID: 3, Positions: []uint32{1, 5}},
		{DocID: 7, Positions: []uint32{0}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Merge = %v, want %v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeDeduplicatesPositions(t *testing.T) {
	a := List{{DocID: 1, Positions: []uint32{2, 4}}}
	b := List{{DocID: 1, Positions: []uint32{2, 6}}}
	got := Merge(a, b)
	want := List{{DocID: 1, Positions: []uint32{2, 4, 6}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Merge = %v, want %v", got, want)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		var l List
		doc := int64(0)
		nDocs := rng.Intn(6)
		for d := 0; d < nDocs; d++ {
			doc += 1 + int64(rng.Intn(1000))
			nPos := 1 + rng.Intn(5)
			pos := make([]uint32, 0, nPos)
			p := uint32(0)
			for i := 0; i < nPos; i++ {
				p += 1 + uint32(rng.Intn(50))
				pos = append(pos, p)
			}
			l = append(l, Posting{DocID: doc, Positions: pos})
		}
		b := Encode(l)
		got, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(l) == 0 {
			if len(got) != 0 {
				t.Fatalf("empty round trip = %v", got)
			}
		} else if !reflect.DeepEqual(got, l) {
			t.Fatalf("round trip: got %v, want %v", got, l)
		}
		cf, err := EncodedCF(b)
		if err != nil {
			t.Fatal(err)
		}
		if cf != l.CF() {
			t.Fatalf("EncodedCF = %d, want %d", cf, l.CF())
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	l := List{{DocID: 5, Positions: []uint32{1, 2, 3}}}
	b := Encode(l)
	if _, err := Decode(b[:len(b)-1]); err == nil {
		t.Fatal("Decode accepted truncated input")
	}
	if _, err := Decode(append(b, 0)); err == nil {
		t.Fatal("Decode accepted trailing bytes")
	}
	if _, err := EncodedCF(b[:len(b)-1]); err == nil {
		t.Fatal("EncodedCF accepted truncated input")
	}
	if _, err := Decode([]byte{0x80}); err == nil {
		t.Fatal("Decode accepted bad varint")
	}
}

func TestEncodedSizeIsCompact(t *testing.T) {
	// Delta encoding should keep adjacent small gaps in single bytes:
	// 100 docs with one position each, doc gaps of 1 → ~3 bytes per
	// posting.
	var l List
	for d := int64(1); d <= 100; d++ {
		l = append(l, Posting{DocID: d, Positions: []uint32{7}})
	}
	b := Encode(l)
	if len(b) > 100*3+2 {
		t.Fatalf("encoding too large: %d bytes for 100 postings", len(b))
	}
}

// TestDecodeRejectsImpossibleCounts holds Decode to the bounds the
// encoding implies: a posting takes at least three bytes and a position
// at least one, so larger counts are corrupt and allocate nothing.
func TestDecodeRejectsImpossibleCounts(t *testing.T) {
	for _, b := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // 2⁶³−1 postings
		{0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f},             // 2³²−1 positions
		{0x02, 0x01, 0x01, 0x05},                               // two postings in three bytes
		{0x01, 0x01, 0x00, 0x00},                               // an empty posting
	} {
		if _, err := Decode(b); !errors.Is(err, encoding.ErrCorrupt) {
			t.Errorf("Decode(%x) = %v, want ErrCorrupt", b, err)
		}
		if _, err := MergeEncoded(nil, [][]byte{b}); !errors.Is(err, encoding.ErrCorrupt) {
			t.Errorf("MergeEncoded(%x) = %v, want ErrCorrupt", b, err)
		}
	}
}

// mergeDecodePath is what MergeEncoded must reproduce: decode every part,
// Merge, Encode.
func mergeDecodePath(parts [][]byte) ([]byte, error) {
	lists := make([]List, len(parts))
	for i, p := range parts {
		l, err := Decode(p)
		if err != nil {
			return nil, err
		}
		lists[i] = l
	}
	return Encode(Merge(lists...)), nil
}

// concatenates reports whether MergeEncoded takes its copying path on
// parts.
func concatenates(parts [][]byte) bool {
	var last int64
	written := false
	for _, p := range parts {
		s, err := scan(p, last, written)
		if err != nil || !s.copyable {
			return false
		}
		if s.body < len(p) {
			last, written = s.last, true
		}
	}
	return true
}

// checkMergeEncoded holds MergeEncoded to the decode path byte for byte,
// appending after a prefix that must survive.
func checkMergeEncoded(t *testing.T, name string, parts [][]byte) {
	t.Helper()
	want, err := mergeDecodePath(parts)
	if err != nil {
		t.Fatalf("%s: decode path: %v", name, err)
	}
	prefix := []byte("prefix")
	got, err := MergeEncoded(append([]byte(nil), prefix...), parts)
	if err != nil {
		t.Fatalf("%s: MergeEncoded: %v", name, err)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s: MergeEncoded = %x, decode path %x", name, got, want)
	}
}

// randomList draws a list of up to maxDocs postings, documents ascending
// from first.
func randomList(rng *rand.Rand, first int64, maxDocs int) List {
	var l List
	doc := first
	for d := rng.Intn(maxDocs + 1); d > 0; d-- {
		var pos []uint32
		p := uint32(rng.Intn(3))
		for n := 1 + rng.Intn(4); n > 0; n-- {
			pos = append(pos, p)
			p += 1 + uint32(rng.Intn(300))
		}
		l = append(l, Posting{DocID: doc, Positions: pos})
		doc += 1 + int64(rng.Intn(200))
	}
	return l
}

func TestMergeEncodedMatchesDecodePath(t *testing.T) {
	enc := func(ls ...List) [][]byte {
		var parts [][]byte
		for _, l := range ls {
			parts = append(parts, Encode(l))
		}
		return parts
	}
	p := func(doc int64, pos ...uint32) Posting { return Posting{DocID: doc, Positions: pos} }
	for _, c := range []struct {
		name   string
		parts  [][]byte
		concat bool
	}{
		{"no parts", nil, true},
		{"one part", enc(List{p(3, 1, 4), p(9, 0)}), true},
		{"in order", enc(List{p(1, 2)}, List{p(4, 0, 7)}, List{p(200, 5)}), true},
		{"doc 0 first", enc(List{p(0, 0)}, List{p(1, 3)}), true},
		{"empty parts", enc(nil, List{p(2, 1)}, nil, List{p(5, 5)}, nil), true},
		{"only empty parts", enc(nil, nil), true},
		{"out of order", enc(List{p(7, 1)}, List{p(2, 3)}), false},
		{"overlapping", enc(List{p(1, 1), p(8, 2)}, List{p(4, 3), p(9, 9)}), false},
		{"same doc twice", enc(List{p(1, 1), p(5, 2, 6)}, List{p(5, 2, 4), p(6, 0)}), false},
		{"overlong count", [][]byte{{0x81, 0x00, 0x05, 0x01, 0x03}, Encode(List{p(6, 0)})}, true},
		{"overlong doc delta", [][]byte{Encode(List{p(1, 0)}), {0x01, 0x85, 0x00, 0x01, 0x03}}, false},
		{"overlong position count", [][]byte{{0x01, 0x05, 0x81, 0x00, 0x03}}, false},
		{"overlong position", [][]byte{{0x01, 0x05, 0x02, 0x03, 0x81, 0x00}}, false},
		{"position past 32 bits", [][]byte{{0x01, 0x05, 0x01, 0x81, 0x80, 0x80, 0x80, 0x10}}, false},
	} {
		checkMergeEncoded(t, c.name, c.parts)
		if got := concatenates(c.parts); got != c.concat {
			t.Errorf("%s: copying path %v, want %v", c.name, got, c.concat)
		}
	}

	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 2000; trial++ {
		// An in-order split of one list into 1–8 contiguous parts, empty
		// ones included, must take the copying path.
		l := randomList(rng, int64(rng.Intn(2)), 12)
		var parts [][]byte
		rest := l
		for n := 1 + rng.Intn(8); n > 0; n-- {
			cut := len(rest)
			if n > 1 {
				cut = rng.Intn(len(rest) + 1)
			}
			parts = append(parts, Encode(rest[:cut]))
			rest = rest[cut:]
		}
		name := fmt.Sprintf("trial %d split", trial)
		checkMergeEncoded(t, name, parts)
		if !concatenates(parts) {
			t.Fatalf("%s: in-order split did not take the copying path", name)
		}
		// Independent lists over a small doc range overlap, share
		// documents and arrive out of order.
		parts = parts[:0]
		for n := 1 + rng.Intn(4); n > 0; n-- {
			parts = append(parts, Encode(randomList(rng, int64(rng.Intn(4)), 3)))
		}
		checkMergeEncoded(t, fmt.Sprintf("trial %d independent", trial), parts)
	}
}
