// Package postings implements positional posting lists — the payload of
// the inverted index that APRIORI-INDEX builds (Algorithm 3). A posting
// records the positions at which one n-gram occurs in one document; a
// posting list collects the postings of an n-gram over the collection.
//
// Lists are kept in a compact varint encoding: document identifiers are
// delta-encoded across postings and positions are delta-encoded within a
// posting, following the compression advice of Section V.
//
// MergeEncoded merges encoded lists with output byte-identical to
// Encode(Merge(Decode(part)…)), failing with encoding.ErrCorrupt exactly
// where Decode does.
package postings

import (
	"fmt"
	"math"
	"sort"

	"ngramstats/internal/encoding"
)

// Posting is the set of positions at which an n-gram occurs in one
// document. Positions are strictly increasing.
type Posting struct {
	DocID     int64
	Positions []uint32
}

// List is an n-gram's posting list, ordered by document identifier.
type List []Posting

// CF returns the collection frequency represented by the list: the
// total number of occurrences across all documents.
func (l List) CF() int64 {
	var n int64
	for _, p := range l {
		n += int64(len(p.Positions))
	}
	return n
}

// DF returns the document frequency: the number of documents with at
// least one occurrence.
func (l List) DF() int64 { return int64(len(l)) }

// Validate checks the structural invariants: documents strictly
// increasing, positions strictly increasing and non-empty.
func (l List) Validate() error {
	for i, p := range l {
		if i > 0 && l[i-1].DocID >= p.DocID {
			return fmt.Errorf("postings: docIDs not strictly increasing at %d", i)
		}
		if len(p.Positions) == 0 {
			return fmt.Errorf("postings: empty posting for doc %d", p.DocID)
		}
		for j := 1; j < len(p.Positions); j++ {
			if p.Positions[j-1] >= p.Positions[j] {
				return fmt.Errorf("postings: positions not strictly increasing in doc %d", p.DocID)
			}
		}
	}
	return nil
}

// Join computes the posting list of the (k)-gram m‖⟨last term of n⟩
// from the lists of two overlapping (k−1)-grams: an occurrence of the
// joined n-gram at position p requires m at p and n at p+1
// (Algorithm 3, Reducer #2). Both lists must be sorted by document.
func Join(m, n List) List {
	var out List
	i, j := 0, 0
	for i < len(m) && j < len(n) {
		switch {
		case m[i].DocID < n[j].DocID:
			i++
		case m[i].DocID > n[j].DocID:
			j++
		default:
			pos := joinPositions(m[i].Positions, n[j].Positions)
			if len(pos) > 0 {
				out = append(out, Posting{DocID: m[i].DocID, Positions: pos})
			}
			i++
			j++
		}
	}
	return out
}

// joinPositions returns every p in a with p+1 in b.
func joinPositions(a, b []uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i]+1 < b[j]:
			i++
		case a[i]+1 > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Merge combines posting lists of the same n-gram from different
// reducers/documents into one list ordered by document. Positions of
// postings sharing a document are unioned (they are expected to be
// disjoint but equal positions are kept once).
func Merge(lists ...List) List {
	var all List
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].DocID < all[j].DocID })
	var out List
	for _, p := range all {
		if len(out) > 0 && out[len(out)-1].DocID == p.DocID {
			last := &out[len(out)-1]
			last.Positions = unionPositions(last.Positions, p.Positions)
			continue
		}
		out = append(out, Posting{DocID: p.DocID, Positions: append([]uint32(nil), p.Positions...)})
	}
	return out
}

func unionPositions(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Encode serializes the list:
// uvarint(#postings) then per posting uvarint(docID delta),
// uvarint(#positions), uvarint(position deltas…). The first document
// delta is taken from 0 and the first position delta is the position
// itself; subsequent deltas are plain differences.
func Encode(l List) []byte {
	buf := encoding.AppendUvarint(nil, uint64(len(l)))
	var prevDoc int64
	for _, p := range l {
		buf = encoding.AppendUvarint(buf, uint64(p.DocID-prevDoc))
		prevDoc = p.DocID
		buf = encoding.AppendUvarint(buf, uint64(len(p.Positions)))
		var prevPos uint32
		for i, pos := range p.Positions {
			if i == 0 {
				buf = encoding.AppendUvarint(buf, uint64(pos))
			} else {
				buf = encoding.AppendUvarint(buf, uint64(pos-prevPos))
			}
			prevPos = pos
		}
	}
	return buf
}

// Decode deserializes a list produced by Encode. A posting takes at least
// three bytes and a position one, so larger counts (and empty postings)
// are rejected before anything is allocated.
func Decode(b []byte) (List, error) {
	nPostings, n := encoding.Uvarint(b)
	if n <= 0 || nPostings > uint64(len(b)-n)/3 {
		return nil, fmt.Errorf("postings: %w: posting count", encoding.ErrCorrupt)
	}
	b = b[n:]
	out := make(List, 0, nPostings)
	var prevDoc int64
	for k := uint64(0); k < nPostings; k++ {
		delta, n := encoding.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("postings: %w: doc delta", encoding.ErrCorrupt)
		}
		b = b[n:]
		doc := prevDoc + int64(delta)
		prevDoc = doc
		nPos, n := encoding.Uvarint(b)
		if n <= 0 || nPos == 0 || nPos > uint64(len(b)-n) {
			return nil, fmt.Errorf("postings: %w: position count", encoding.ErrCorrupt)
		}
		b = b[n:]
		pos := make([]uint32, nPos)
		var prev uint32
		for i := range pos {
			d, n := encoding.Uvarint(b)
			if n <= 0 {
				return nil, fmt.Errorf("postings: %w: position delta", encoding.ErrCorrupt)
			}
			b = b[n:]
			if i == 0 {
				prev = uint32(d)
			} else {
				prev += uint32(d)
			}
			pos[i] = prev
		}
		out = append(out, Posting{DocID: doc, Positions: pos})
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("postings: %w: %d trailing bytes", encoding.ErrCorrupt, len(b))
	}
	return out, nil
}

// MergeEncoded appends to dst the encoding of the merge of the encoded
// lists parts. If documents strictly ascend across the parts in order,
// it copies the postings back to back, re-basing only each part's first
// document delta on the previous part's last document; otherwise, or if
// a varint is longer than Encode writes it, it decodes, merges, encodes.
func MergeEncoded(dst []byte, parts [][]byte) ([]byte, error) {
	base := len(dst)
	var total uint64
	for _, p := range parts {
		c, _ := encoding.Uvarint(p) // checked by scan
		total += c
	}
	dst = encoding.AppendUvarint(dst, total)
	var last int64 // the last document written, once written is set
	written := false
	for _, p := range parts {
		s, err := scan(p, last, written)
		if err != nil {
			return dst[:base], err
		}
		if !s.copyable {
			lists := make([]List, len(parts))
			for i, p := range parts {
				if lists[i], err = Decode(p); err != nil {
					return dst[:base], err
				}
			}
			return append(dst[:base], Encode(Merge(lists...))...), nil
		}
		if s.body < len(p) {
			dst = encoding.AppendUvarint(dst, uint64(s.first-last))
			dst = append(dst, p[s.body:]...)
			last, written = s.last, true
		}
	}
	return dst, nil
}

// EncodedCF returns the collection frequency of an encoded list without
// materializing it, checking it as Decode does.
func EncodedCF(b []byte) (int64, error) {
	s, err := scan(b, 0, false)
	return s.cf, err
}

// span is what scan finds out about an encoded list.
type span struct {
	cf          int64
	first, last int64 // documents
	body        int   // offset just past the first document delta
	copyable    bool  // see scan
}

// scan walks an encoded list with Decode's checks. The list is copyable
// after document last (if written) when its varints are in shortest form
// and its positions fit 32 bits, so that Encode would write them as they
// stand, and its documents strictly ascend after last.
func scan(b []byte, last int64, written bool) (s span, err error) {
	c, off := encoding.Uvarint(b)
	if off <= 0 || c > uint64(len(b)-off)/3 {
		return s, fmt.Errorf("postings: %w: posting count", encoding.ErrCorrupt)
	}
	s.body, s.copyable = len(b), true
	for k := uint64(0); k < c; k++ {
		d, n := encoding.Uvarint(b[off:])
		if n <= 0 {
			return s, fmt.Errorf("postings: %w: doc delta", encoding.ErrCorrupt)
		}
		s.copyable = s.copyable && shortest(b[off:], n)
		off += n
		s.last += int64(d)
		if k == 0 {
			s.first, s.body = s.last, off
		}
		s.copyable = s.copyable && (s.last > last || k == 0 && !written)
		last, written = s.last, true
		nPos, n := encoding.Uvarint(b[off:])
		if n <= 0 || nPos == 0 || nPos > uint64(len(b)-off-n) {
			return s, fmt.Errorf("postings: %w: position count", encoding.ErrCorrupt)
		}
		s.copyable = s.copyable && shortest(b[off:], n)
		off += n
		s.cf += int64(nPos)
		for ; nPos > 0; nPos-- {
			d, n := encoding.Uvarint(b[off:])
			if n <= 0 {
				return s, fmt.Errorf("postings: %w: position delta", encoding.ErrCorrupt)
			}
			s.copyable = s.copyable && d <= math.MaxUint32 && shortest(b[off:], n)
			off += n
		}
	}
	if off != len(b) {
		return s, fmt.Errorf("postings: %w: %d trailing bytes", encoding.ErrCorrupt, len(b)-off)
	}
	return s, nil
}

// shortest reports whether the n-byte varint at b's start is as short as
// Encode would write it: one byte, or a last byte that is not zero.
func shortest(b []byte, n int) bool { return n == 1 || b[n-1] != 0 }
