// Package dictionary implements the term dictionary of Section V
// ("Sequence Encoding"): a mapping between terms and integer term
// identifiers, with identifiers assigned in descending order of
// collection frequency so that frequent terms receive small identifiers
// and varint-encode compactly. The dictionary is built once per
// document collection as a pre-processing step and persisted as a
// single text file, exactly as the paper's implementation keeps it.
package dictionary

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"ngramstats/internal/sequence"
)

// ErrUnknownTerm is returned when encoding a term that is not in the
// dictionary.
var ErrUnknownTerm = errors.New("dictionary: unknown term")

// Dictionary maps terms to identifiers and back. Identifier i belongs
// to the term with the (i+1)-th highest collection frequency; ties are
// broken lexicographically for determinism.
type Dictionary struct {
	terms []string
	cfs   []int64
	ids   map[string]sequence.Term
}

// Builder accumulates term frequencies before the dictionary is frozen.
type Builder struct {
	counts map[string]int64
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{counts: make(map[string]int64)}
}

// Add counts one occurrence of term.
func (b *Builder) Add(term string) { b.counts[term]++ }

// AddN counts n occurrences of term.
func (b *Builder) AddN(term string, n int64) { b.counts[term] += n }

// Build freezes the builder into a Dictionary with identifiers in
// descending collection-frequency order.
func (b *Builder) Build() *Dictionary {
	terms := make([]string, 0, len(b.counts))
	cfs := make([]int64, 0, len(b.counts))
	for t, c := range b.counts {
		terms = append(terms, t)
		cfs = append(cfs, c)
	}
	return reordered(terms, cfs, RankOrder(terms, cfs, 0))
}

// RankOrder returns the identifiers from..len(terms)-1 of the given
// tables in the identifier order of Section V: descending collection
// frequency, ties broken lexicographically by term.
func RankOrder(terms []string, cfs []int64, from int) []sequence.Term {
	order := make([]sequence.Term, len(terms)-from)
	for i := range order {
		order[i] = sequence.Term(from + i)
	}
	slices.SortFunc(order, func(a, b sequence.Term) int {
		if c := cmp.Compare(cfs[b], cfs[a]); c != 0 {
			return c
		}
		return strings.Compare(terms[a], terms[b])
	})
	return order
}

// reordered builds the dictionary whose identifier i names entry
// order[i] of the given tables.
func reordered(terms []string, cfs []int64, order []sequence.Term) *Dictionary {
	d := &Dictionary{
		terms: make([]string, len(order)),
		cfs:   make([]int64, len(order)),
		ids:   make(map[string]sequence.Term, len(order)),
	}
	for i, o := range order {
		d.terms[i], d.cfs[i] = terms[o], cfs[o]
		d.ids[terms[o]] = sequence.Term(i)
	}
	return d
}

// Rank returns the frequency-ranked dictionary over d's terms — the one
// Build produces from d's (term, frequency) table — and the permutation
// between the two: identifier i of the result is d's order[i]. A d
// already in rank order is returned itself, with a nil order, after one
// linear pass.
//
// It is how LSM compaction ranks a chain's seeded dictionary, the
// newest generation's, into the one a rebuild over the same documents
// builds: one sort of the identifiers and one map, with the duplicate
// check left where the bytes entered (Load). Nothing else ranks a
// chain's identifiers; its view serves them as they were assigned.
func (d *Dictionary) Rank() (ranked *Dictionary, order []sequence.Term) {
	for i := 1; i < len(d.terms); i++ {
		if c := cmp.Compare(d.cfs[i-1], d.cfs[i]); c < 0 || c == 0 && d.terms[i-1] > d.terms[i] {
			order = RankOrder(d.terms, d.cfs, 0)
			return reordered(d.terms, d.cfs, order), order
		}
	}
	return d, nil
}

// Tables hands out the dictionary's tables — terms and frequencies by
// identifier, and the term → identifier map — for the caller to extend
// in place; d must not be used afterwards. FromTables is the way back.
// A seeded corpus build adopts the previous generation's dictionary
// this way instead of copying it term by term.
func (d *Dictionary) Tables() (terms []string, cfs []int64, ids map[string]sequence.Term) {
	return d.terms, d.cfs, d.ids
}

// FromTables freezes tables the caller has built into a Dictionary
// without copying or re-checking them, assigning identifier i to
// terms[i] as given (no frequency ranking): ids must map every terms[i]
// to i and hold nothing else. It is the constructor for seeded
// dictionaries, whose identifier assignment extends an earlier
// generation's rather than re-ranks: an LSM delta dictionary keeps
// every inherited identifier stable and appends new terms after them.
func FromTables(terms []string, cfs []int64, ids map[string]sequence.Term) *Dictionary {
	return &Dictionary{terms: terms, cfs: cfs, ids: ids}
}

// Len returns the number of distinct terms.
func (d *Dictionary) Len() int { return len(d.terms) }

// Ranked reports whether identifiers are in non-increasing collection-
// frequency order — the invariant of a Builder-built dictionary, and
// the property persistence records so Load can verify it. Seeded
// dictionaries (FromTables) are generally unranked: inherited
// identifiers keep their old positions while their frequencies grow.
func (d *Dictionary) Ranked() bool {
	for i := 1; i < len(d.cfs); i++ {
		if d.cfs[i] > d.cfs[i-1] {
			return false
		}
	}
	return true
}

// ID returns the identifier of term.
func (d *Dictionary) ID(term string) (sequence.Term, bool) {
	id, ok := d.ids[term]
	return id, ok
}

// Term returns the term with the given identifier, or "" if out of
// range.
func (d *Dictionary) Term(id sequence.Term) string {
	if int(id) >= len(d.terms) {
		return ""
	}
	return d.terms[id]
}

// CF returns the collection frequency recorded for the identifier.
func (d *Dictionary) CF(id sequence.Term) int64 {
	if int(id) >= len(d.cfs) {
		return 0
	}
	return d.cfs[id]
}

// TotalOccurrences returns the sum of all collection frequencies, i.e.
// the number of term occurrences in the collection.
func (d *Dictionary) TotalOccurrences() int64 {
	var n int64
	for _, c := range d.cfs {
		n += c
	}
	return n
}

// Encode maps a token slice to a term sequence. Unknown terms yield
// ErrUnknownTerm.
func (d *Dictionary) Encode(tokens []string) (sequence.Seq, error) {
	s := make(sequence.Seq, len(tokens))
	for i, tok := range tokens {
		id, ok := d.ids[tok]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownTerm, tok)
		}
		s[i] = id
	}
	return s, nil
}

// Decode maps a term sequence back to tokens. Unknown identifiers
// decode to "⟨unk⟩".
func (d *Dictionary) Decode(s sequence.Seq) []string {
	out := make([]string, len(s))
	for i, id := range s {
		if t := d.Term(id); t != "" || (int(id) < len(d.terms)) {
			out[i] = t
		} else {
			out[i] = "⟨unk⟩"
		}
	}
	return out
}

// Format renders a sequence as a human-readable phrase.
func (d *Dictionary) Format(s sequence.Seq) string {
	return strings.Join(d.Decode(s), " ")
}

// Save writes the dictionary as one "term<TAB>cf" line per identifier,
// in identifier order.
func (d *Dictionary) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	var num [20]byte
	for i, t := range d.terms {
		bw.WriteString(t)
		bw.WriteByte('\t')
		bw.Write(strconv.AppendInt(num[:0], d.cfs[i], 10))
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a dictionary in the Save format. Identifier order is the
// line order; it must be in non-increasing frequency order, which Load
// verifies.
func Load(r io.Reader) (*Dictionary, error) { return load(r, true) }

// LoadUnranked reads a dictionary in the Save format without requiring
// non-increasing frequency order. LSM delta dictionaries are saved this
// way: identifiers inherited from the previous generation keep their
// positions while their cumulative frequencies drift out of rank order.
func LoadUnranked(r io.Reader) (*Dictionary, error) { return load(r, false) }

func load(r io.Reader, ranked bool) (*Dictionary, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// One string holds the file and every term is a slice of it; the
	// line count sizes the tables and the map once.
	text := string(data)
	n := strings.Count(text, "\n") + 1
	d := &Dictionary{
		terms: make([]string, 0, n),
		cfs:   make([]int64, 0, n),
		ids:   make(map[string]sequence.Term, n),
	}
	var prev int64 = -1
	for line := 1; text != ""; line++ {
		row := text
		if nl := strings.IndexByte(text, '\n'); nl >= 0 {
			row, text = text[:nl], text[nl+1:]
		} else {
			text = ""
		}
		row = strings.TrimSuffix(row, "\r")
		if row == "" {
			continue
		}
		tab := strings.LastIndexByte(row, '\t')
		if tab < 0 {
			return nil, fmt.Errorf("dictionary: line %d: missing tab", line)
		}
		term := row[:tab]
		cf, err := strconv.ParseInt(row[tab+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dictionary: line %d: bad frequency: %v", line, err)
		}
		if ranked && prev >= 0 && cf > prev {
			return nil, fmt.Errorf("dictionary: line %d: frequencies not non-increasing", line)
		}
		prev = cf
		// A duplicate overwrites its first entry and leaves the map one
		// short of the table: one map operation per term checks it.
		d.ids[term] = sequence.Term(len(d.terms))
		d.terms = append(d.terms, term)
		d.cfs = append(d.cfs, cf)
		if len(d.ids) != len(d.terms) {
			return nil, fmt.Errorf("dictionary: line %d: duplicate term %q", line, term)
		}
	}
	return d, nil
}
