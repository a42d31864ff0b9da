package ngramstats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"ngramstats/internal/corpus"
	"ngramstats/internal/encoding"
	"ngramstats/internal/sequence"
	"ngramstats/internal/sketch"
)

// IngestOptions configures a StreamIngester.
type IngestOptions struct {
	// Epsilon is the relative error target ε: approximate counts exceed
	// exact counts by at most ε·N (N = total n-gram occurrences of that
	// length) with probability 1−Delta. Default 1e-4.
	Epsilon float64
	// Delta is the failure probability δ of the ε·N bound. Default 0.01.
	Delta float64
	// TopK is how many heavy hitters the ingester tracks. Default 128.
	TopK int
	// MaxLength is σ: the longest n-gram sketched (and later counted
	// exactly by reconciliation). Default 5.
	MaxLength int
	// ReconcileEvery is advisory: how many newly ingested documents
	// should accumulate before a serving layer runs the next exact
	// reconciliation (see Pending). Zero leaves reconciliation entirely
	// to explicit BeginReconcile calls.
	ReconcileEvery int
	// Builder configures the corpus build of each reconciliation's
	// append (AppendOptions.Builder: memory budget, spill directory).
	Builder BuilderOptions
}

// ApproxCount is one approximate n-gram statistic: a one-sided estimate
// (never below the exact count) plus its stated error bound.
type ApproxCount struct {
	// Phrase is the space-joined word form.
	Phrase string
	// Order is the n-gram length in words.
	Order int
	// Estimate is the approximate occurrence count. It is at least the
	// exact count of the ingested stream.
	Estimate int64
	// Bound is ceil(ε·N) for the n-gram's order: with probability 1−δ
	// the estimate exceeds the exact count by no more.
	Bound int64
}

// ErrReconcileActive is returned by BeginReconcile while a previously
// begun reconciliation has neither committed nor aborted.
var ErrReconcileActive = errors.New("ngramstats: reconciliation already in progress")

// StreamIngester consumes a live document stream and maintains
// one-pass approximate n-gram statistics: per-order count-min sketches
// of fixed counter memory with a concurrency-safe conservative update,
// plus one heavy-hitters heap across all orders (internal/sketch),
// following Lemire & Kaser's one-pass estimation. Memory is not
// bounded as a whole: the ingester's private vocabulary gains every
// new word and never releases one. Ingested documents are held until a
// periodic exact reconciliation (BeginReconcile) appends them to an
// index with AppendDelta — the paper's MapReduce pipeline over just
// those documents — and commits, which releases them; the sketch keeps
// answering for everything newer.
//
// All methods are safe for concurrent use; Ingest and the query methods
// never block each other on sketch state.
type StreamIngester struct {
	opts   IngestOptions
	params sketch.Params

	// dict maps words to first-seen term identifiers for sketch keys.
	// This dictionary is private to the ingester: reconciliation
	// re-encodes documents through the standard frequency-ranked build
	// instead, so exact results match a pure batch run byte for byte.
	dict struct {
		sync.RWMutex
		ids   map[string]sequence.Term
		words []string
	}

	// mu guards the held documents and the delta rotation. cur is the
	// live delta; drain is the previous delta while a reconciliation is
	// in flight (queries sum both). covered counts the leading stream
	// documents the last committed reconciliation appended; docs holds
	// the ones after them.
	mu      sync.Mutex
	docs    []Document
	covered int64
	cur     *sketch.Group
	drain   *sketch.Group
}

// NewStreamIngester returns an empty ingester.
func NewStreamIngester(opts IngestOptions) (*StreamIngester, error) {
	// MaxLength is also the σ reconciliation counts to, so its default
	// lives here; the sketch's own parameters default in sketch.NewGroup.
	if opts.MaxLength <= 0 {
		opts.MaxLength = 5
	}
	g, err := sketch.NewGroup(sketch.Params{
		Epsilon: opts.Epsilon,
		Delta:   opts.Delta,
		Orders:  opts.MaxLength,
		TopK:    opts.TopK,
	})
	if err != nil {
		return nil, err
	}
	si := &StreamIngester{opts: opts, params: g.Params(), cur: g}
	si.dict.ids = make(map[string]sequence.Term)
	return si, nil
}

// Options returns the ingester's options with defaults applied: ε, δ
// and TopK as its sketch group resolved them.
func (si *StreamIngester) Options() IngestOptions {
	o := si.opts
	o.Epsilon, o.Delta, o.TopK = si.params.Epsilon, si.params.Delta, si.params.TopK
	return o
}

// termIDs resolves tokens to sketch term identifiers, assigning
// first-seen identifiers when assign is true. With assign false, a
// token never ingested reports ok=false (its exact count is zero).
func (si *StreamIngester) termIDs(toks []string, assign bool) (sequence.Seq, bool) {
	s := make(sequence.Seq, len(toks))
	si.dict.RLock()
	miss := -1
	for i, tok := range toks {
		id, ok := si.dict.ids[tok]
		if !ok {
			miss = i
			break
		}
		s[i] = id
	}
	si.dict.RUnlock()
	if miss < 0 {
		return s, true
	}
	if !assign {
		return nil, false
	}
	si.dict.Lock()
	defer si.dict.Unlock()
	for i := miss; i < len(toks); i++ {
		id, ok := si.dict.ids[toks[i]]
		if !ok {
			id = sequence.Term(len(si.dict.words))
			si.dict.ids[toks[i]] = id
			si.dict.words = append(si.dict.words, toks[i])
		}
		s[i] = id
	}
	return s, true
}

// word renders a sketch term identifier back to its token.
func (si *StreamIngester) word(id sequence.Term) string {
	si.dict.RLock()
	defer si.dict.RUnlock()
	if int(id) < len(si.dict.words) {
		return si.dict.words[id]
	}
	return fmt.Sprintf("#%d", id)
}

// Ingest folds documents into the live sketch delta and holds them
// for the next exact reconciliation. Tokenization matches the batch
// corpus build: boilerplate filtering for web documents, sentence
// splitting, and within-sentence n-gram windows up to MaxLength.
func (si *StreamIngester) Ingest(docs ...Document) error {
	for _, doc := range docs {
		// The group must be chosen under the same critical section that
		// appends the document: a reconciliation begun afterwards
		// then provably includes this document, so dropping the drained
		// delta at commit never loses its counts.
		si.mu.Lock()
		si.docs = append(si.docs, doc)
		g := si.cur
		si.mu.Unlock()

		text := doc.Text
		if doc.Web {
			text = corpus.BoilerplateFilter(text)
		}
		var key []byte
		for _, sent := range corpus.SplitSentences(text) {
			toks := corpus.Tokenize(sent)
			if len(toks) == 0 {
				continue
			}
			ids, _ := si.termIDs(toks, true)
			for i := range ids {
				max := len(ids) - i
				if max > si.opts.MaxLength {
					max = si.opts.MaxLength
				}
				for n := 1; n <= max; n++ {
					key = encoding.AppendSeq(key[:0], ids[i:i+n])
					g.Update(n, key, 1)
				}
			}
		}
		g.AddDocs(1)
	}
	return nil
}

// groups returns the live delta and, while a reconciliation is in
// flight, the draining one.
func (si *StreamIngester) groups() (cur, drain *sketch.Group) {
	si.mu.Lock()
	defer si.mu.Unlock()
	return si.cur, si.drain
}

// Docs returns the number of documents ingested so far.
func (si *StreamIngester) Docs() int64 {
	si.mu.Lock()
	defer si.mu.Unlock()
	return si.covered + int64(len(si.docs))
}

// Covered returns the number of leading documents whose statistics are
// already served exactly by the last committed reconciliation.
func (si *StreamIngester) Covered() int64 {
	si.mu.Lock()
	defer si.mu.Unlock()
	return si.covered
}

// Pending returns the number of ingested documents not yet covered by a
// committed reconciliation — the value a serving layer compares against
// ReconcileEvery.
func (si *StreamIngester) Pending() int64 {
	si.mu.Lock()
	defer si.mu.Unlock()
	return int64(len(si.docs))
}

// SketchSnapshot is the ingester's pair of sketch deltas — the live
// one and, while a reconciliation is in flight, the draining one — as
// captured at one instant. Documents ingested after the capture may or
// may not show in it; documents ingested before it always do, even
// after a reconciliation commits and drops the draining delta.
type SketchSnapshot struct {
	si         *StreamIngester
	cur, drain *sketch.Group
}

// Sketch captures the current sketch deltas. A caller that adds the
// estimates to counts from an exact index must capture the snapshot
// before it pins the index generation: reconciliation swaps the new
// generation in before it commits (drops the drained delta), so a
// generation pinned after the capture covers every document the
// captured deltas lost. The other order can miss the reconciled
// documents in both places.
func (si *StreamIngester) Sketch() SketchSnapshot {
	cur, drain := si.groups()
	return SketchSnapshot{si: si, cur: cur, drain: drain}
}

// N returns the total number of n-gram occurrences of the given order
// currently held in the sketch delta (the N of the ε·N bound).
func (si *StreamIngester) N(order int) int64 { return si.Sketch().n(order) }

// ErrorBound returns ceil(ε·N) for the given order.
func (si *StreamIngester) ErrorBound(order int) int64 { return si.Sketch().bound(order) }

// Bytes returns the resident counter memory of the sketches. It does
// not count the ingester's vocabulary or the documents held for the
// next reconciliation, both of which grow with the stream.
func (si *StreamIngester) Bytes() int64 {
	cur, drain := si.groups()
	b := cur.Bytes()
	if drain != nil {
		b += drain.Bytes()
	}
	return b
}

// Estimate returns the approximate count of a phrase over the delta
// (documents not yet covered by a committed reconciliation, plus those
// draining through an in-flight one). The estimate is one-sided and
// ok reports whether the phrase length is within the sketched orders;
// phrases containing never-ingested words report a zero estimate.
func (si *StreamIngester) Estimate(phrase string) (ApproxCount, bool) {
	return si.Sketch().Estimate(phrase)
}

// TopK returns up to k heavy hitters across all sketched orders,
// largest estimate first. k <= 0 returns every tracked heavy hitter.
func (si *StreamIngester) TopK(k int) []ApproxCount { return si.Sketch().TopK(k) }

func (sn SketchSnapshot) n(order int) int64 {
	n := sn.cur.N(order)
	if sn.drain != nil {
		n += sn.drain.N(order)
	}
	return n
}

func (sn SketchSnapshot) bound(order int) int64 {
	return int64(math.Ceil(sn.si.params.Epsilon * float64(sn.n(order))))
}

// estimate sums the one-sided estimates of both deltas, which stays
// one-sided for the union of the two streams.
func (sn SketchSnapshot) estimate(order int, key []byte) int64 {
	est, _ := sn.cur.Estimate(order, key)
	if sn.drain != nil {
		d, _ := sn.drain.Estimate(order, key)
		est += d
	}
	return est
}

// Estimate is StreamIngester.Estimate over the snapshot.
func (sn SketchSnapshot) Estimate(phrase string) (ApproxCount, bool) {
	si := sn.si
	toks := corpus.Tokenize(phrase)
	order := len(toks)
	if order < 1 || order > si.opts.MaxLength {
		return ApproxCount{}, false
	}
	out := ApproxCount{
		Phrase: strings.Join(toks, " "),
		Order:  order,
		Bound:  sn.bound(order),
	}
	ids, known := si.termIDs(toks, false)
	if !known {
		return out, true
	}
	out.Estimate = sn.estimate(order, encoding.EncodeSeq(ids))
	return out, true
}

// TopK is StreamIngester.TopK over the snapshot.
func (sn SketchSnapshot) TopK(k int) []ApproxCount {
	seen := make(map[string]sketch.Entry)
	for _, g := range []*sketch.Group{sn.cur, sn.drain} {
		if g == nil {
			continue
		}
		for _, e := range g.Top(0) {
			if _, dup := seen[string(e.Key)]; dup {
				continue
			}
			seen[string(e.Key)] = sketch.Entry{Key: e.Key, Order: e.Order, Estimate: sn.estimate(e.Order, e.Key)}
		}
	}
	entries := make([]sketch.Entry, 0, len(seen))
	for _, e := range seen {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Estimate != entries[j].Estimate {
			return entries[i].Estimate > entries[j].Estimate
		}
		return string(entries[i].Key) < string(entries[j].Key)
	})
	if k > 0 && len(entries) > k {
		entries = entries[:k]
	}
	out := make([]ApproxCount, len(entries))
	for i, e := range entries {
		words := make([]string, 0, e.Order)
		rest := e.Key
		for len(rest) > 0 {
			id, n := encoding.Uvarint(rest)
			if n <= 0 {
				break
			}
			words = append(words, sn.si.word(sequence.Term(id)))
			rest = rest[n:]
		}
		out[i] = ApproxCount{
			Phrase:   strings.Join(words, " "),
			Order:    e.Order,
			Estimate: e.Estimate,
			Bound:    sn.bound(e.Order),
		}
	}
	return out
}

// Reconcile is one in-flight exact reconciliation: the documents
// frozen at BeginReconcile on their way through AppendDelta. Exactly
// one of Commit or Abort must be called.
type Reconcile struct {
	si   *StreamIngester
	docs []Document // the documents after the last commit
	done bool
}

// BeginReconcile freezes the documents ingested since the last commit
// for an exact computation and starts a fresh sketch delta for
// documents ingested while it runs. Queries keep covering both deltas
// until the caller commits (after swapping the exact results in) or
// aborts (folding the drained delta back).
func (si *StreamIngester) BeginReconcile() (*Reconcile, error) {
	g, err := sketch.NewGroup(si.params)
	if err != nil {
		return nil, err
	}
	si.mu.Lock()
	defer si.mu.Unlock()
	if si.drain != nil {
		return nil, ErrReconcileActive
	}
	si.drain = si.cur
	si.cur = g
	return &Reconcile{si: si, docs: si.docs}, nil
}

// NewDocuments returns the frozen documents — those ingested since the
// last commit, the input of AppendDelta, O(new documents) regardless
// of stream length. The slice must not be mutated.
func (rc *Reconcile) NewDocuments() []Document { return rc.docs }

// Commit records that exact results for the frozen documents are being
// served — they were appended to a persistent index — so the ingester
// releases them and drops the drained sketch delta: what it holds stays
// O(documents since the last commit).
func (rc *Reconcile) Commit() {
	if rc.done {
		return
	}
	rc.done = true
	rc.si.mu.Lock()
	defer rc.si.mu.Unlock()
	rc.si.drain = nil
	rc.si.covered += int64(len(rc.docs))
	rc.si.docs = append([]Document(nil), rc.si.docs[len(rc.docs):]...)
}

// Abort folds the drained delta back into the live one, restoring the
// pre-BeginReconcile approximate statistics.
func (rc *Reconcile) Abort() error {
	if rc.done {
		return nil
	}
	rc.done = true
	rc.si.mu.Lock()
	drain := rc.si.drain
	rc.si.drain = nil
	cur := rc.si.cur
	rc.si.mu.Unlock()
	if drain == nil {
		return nil
	}
	return cur.Merge(drain)
}
