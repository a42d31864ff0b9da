package ngramstats

import (
	"sort"
	"strings"

	"ngramstats/internal/core"
	"ngramstats/internal/sequence"
)

// resolver renders encoded n-grams as NGram values and orders them the
// way the public API reports. It is the seam shared by the live Result
// and the persistent Index: both decode the same records, one from the
// in-process result set and one from an index reopened on disk, and
// sharing the rendering and tie-break logic is what makes their
// answers byte-identical.
type resolver struct {
	// term returns the dictionary word for an identifier, or "" when
	// unknown (rendered as "#id").
	term func(id uint32) string
}

func (rv resolver) decode(s sequence.Seq, agg core.Aggregate) NGram {
	ng := NGram{
		IDs:       append([]uint32(nil), s...),
		Frequency: agg.Frequency(),
	}
	if years, ok := core.TimeSeriesCounts(agg); ok {
		ng.Years = years
	}
	if docs, ok := core.DocIndexCounts(agg); ok {
		ng.Documents = docs
	}
	words := make([]string, len(s))
	for i, id := range s {
		words[i] = rv.word(id)
	}
	ng.Text = strings.Join(words, " ")
	return ng
}

// word renders one term: the dictionary word, or "#id" for an
// identifier outside the dictionary.
func (rv resolver) word(id uint32) string {
	if w := rv.term(id); w != "" {
		return w
	}
	return "#" + itoa(uint64(id))
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// seqTextLess reports whether a's rendered text sorts before b's,
// comparing word by word without materializing the joined strings.
// Tokens contain no spaces and no bytes below ' ', so word-wise
// comparison agrees with comparing strings.Join(words, " ").
func (rv resolver) seqTextLess(a, b sequence.Seq) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		wa, wb := rv.word(a[i]), rv.word(b[i])
		if wa != wb {
			return wa < wb
		}
	}
	return len(a) < len(b)
}

// topKBetter orders by descending frequency; ties break toward longer
// n-grams, then lexicographically. It is the TopK report order.
func (rv resolver) topKBetter(a, b rawNGram) bool {
	if a.cf != b.cf {
		return a.cf > b.cf
	}
	if len(a.seq) != len(b.seq) {
		return len(a.seq) > len(b.seq)
	}
	return rv.seqTextLess(a.seq, b.seq)
}

// longestBetter orders by descending length; ties break toward higher
// frequency, then lexicographically. It is the Longest report order.
func (rv resolver) longestBetter(a, b rawNGram) bool {
	if len(a.seq) != len(b.seq) {
		return len(a.seq) > len(b.seq)
	}
	if a.cf != b.cf {
		return a.cf > b.cf
	}
	return rv.seqTextLess(a.seq, b.seq)
}

// rawNGram is one undecoded result entry retained by the bounded
// top-k selection: the encoded term sequence, its aggregate, and the
// aggregate's frequency cached for comparisons.
type rawNGram struct {
	seq sequence.Seq
	agg core.Aggregate
	cf  int64
}

// eachAggregateFunc streams every (sequence, aggregate) pair of a
// result source. The sequences passed to the callback must be safe to
// retain. Result and Index each provide one.
type eachAggregateFunc func(fn func(s sequence.Seq, agg core.Aggregate) error) error

// selectTopRaw streams the source through a bounded min-heap keeping
// the k best entries under better, returned best first. Memory is
// O(k), independent of the source size; total clamps k.
func selectTopRaw(each eachAggregateFunc, total int64, k int, better func(a, b rawNGram) bool) ([]rawNGram, error) {
	if k < 0 {
		k = 0
	}
	if int64(k) > total {
		k = int(total)
	}
	t := boundedTop{k: k, better: better}
	err := each(func(s sequence.Seq, agg core.Aggregate) error {
		t.offer(rawNGram{seq: s, agg: agg, cf: agg.Frequency()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t.sorted(), nil
}

// selectTop is selectTopRaw followed by decoding exactly the survivors.
func (rv resolver) selectTop(each eachAggregateFunc, total int64, k int, better func(a, b rawNGram) bool) ([]NGram, error) {
	entries, err := selectTopRaw(each, total, k, better)
	if err != nil {
		return nil, err
	}
	out := make([]NGram, len(entries))
	for i, e := range entries {
		out[i] = rv.decode(e.seq, e.agg)
	}
	return out, nil
}

// boundedTop is a min-heap of capacity k whose root is the worst
// retained entry, so a streamed candidate either evicts the root or is
// dropped in O(log k).
type boundedTop struct {
	k      int
	better func(a, b rawNGram) bool
	heap   []rawNGram
}

// worse orders the heap: the root must be the entry every other
// retained entry beats.
func (t *boundedTop) worse(a, b rawNGram) bool { return t.better(b, a) }

// admits reports whether offer would retain e: there is room, or e
// beats the worst retained entry. Only e's seq and cf are consulted.
func (t *boundedTop) admits(e rawNGram) bool {
	return len(t.heap) < t.k || (t.k > 0 && t.better(e, t.heap[0]))
}

func (t *boundedTop) offer(e rawNGram) {
	if !t.admits(e) {
		return
	}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, e)
		t.up(len(t.heap) - 1)
		return
	}
	t.heap[0] = e
	t.down(0)
}

// sorted returns the retained entries best first; the heap must not be
// offered to afterwards.
func (t *boundedTop) sorted() []rawNGram {
	sort.Slice(t.heap, func(i, j int) bool { return t.better(t.heap[i], t.heap[j]) })
	return t.heap
}

func (t *boundedTop) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(t.heap[i], t.heap[parent]) {
			break
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
}

func (t *boundedTop) down(i int) {
	n := len(t.heap)
	for {
		left, right := 2*i+1, 2*i+2
		least := i
		if left < n && t.worse(t.heap[left], t.heap[least]) {
			least = left
		}
		if right < n && t.worse(t.heap[right], t.heap[least]) {
			least = right
		}
		if least == i {
			return
		}
		t.heap[i], t.heap[least] = t.heap[least], t.heap[i]
		i = least
	}
}
