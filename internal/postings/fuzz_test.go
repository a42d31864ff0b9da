package postings

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"ngramstats/internal/encoding"
)

// FuzzDecode: arbitrary bytes either decode to a list whose re-encoding
// round-trips, or are rejected — never a panic or a hang.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(List{{DocID: 3, Positions: []uint32{1, 4}}}))
	f.Add([]byte{0x00})
	f.Add([]byte{0x02, 0x01, 0x01, 0x05})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // posting count near 2⁶³
	f.Add([]byte{0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f})             // position count near 2³²
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Decode(data)
		if err != nil {
			return
		}
		cf, err := EncodedCF(data)
		if err != nil {
			t.Fatalf("EncodedCF failed on decodable input: %v", err)
		}
		if cf != l.CF() {
			t.Fatalf("EncodedCF = %d, CF = %d", cf, l.CF())
		}
		re := Encode(l)
		l2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if l2.CF() != l.CF() || l2.DF() != l.DF() {
			t.Fatalf("round trip changed stats")
		}
	})
}

// FuzzMergeEncoded: arbitrary bytes, cut into parts at the offsets the
// second argument names, either merge exactly as the decode path merges
// them or fail with ErrCorrupt where it fails — never a panic.
func FuzzMergeEncoded(f *testing.F) {
	a := Encode(List{{DocID: 0, Positions: []uint32{2}}, {DocID: 3, Positions: []uint32{1, 4}}})
	b := Encode(List{{DocID: 3, Positions: []uint32{4, 9}}, {DocID: 8, Positions: []uint32{0}}})
	c := Encode(List{{DocID: 9, Positions: []uint32{5}}})
	f.Add(slices.Concat(a, c), []byte{byte(len(a))})
	f.Add(slices.Concat(a, b, c), []byte{byte(len(a)), byte(len(a) + len(b))})
	f.Add(slices.Concat(c, a), []byte{byte(len(c))})
	f.Add([]byte{0x00, 0x01, 0x85, 0x00, 0x01, 0x03}, []byte{1})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var parts [][]byte
		offs := []int{0}
		for _, c := range cuts {
			offs = append(offs, int(c)%(len(data)+1))
		}
		slices.Sort(offs)
		offs = append(offs, len(data))
		for i := 1; i < len(offs); i++ {
			parts = append(parts, data[offs[i-1]:offs[i]])
		}
		got, err := MergeEncoded(nil, parts)
		want, wantErr := mergeDecodePath(parts)
		switch {
		case wantErr != nil:
			if !errors.Is(err, encoding.ErrCorrupt) {
				t.Fatalf("decode path fails (%v), MergeEncoded returned %v", wantErr, err)
			}
		case err != nil:
			t.Fatalf("MergeEncoded: %v, decode path succeeds", err)
		case !bytes.Equal(got, want):
			t.Fatalf("MergeEncoded = %x, decode path %x", got, want)
		}
	})
}
