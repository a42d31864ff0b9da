package lsm

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"ngramstats/internal/core"
	"ngramstats/internal/dictionary"
	"ngramstats/internal/encoding"
	"ngramstats/internal/extsort"
	"ngramstats/internal/index"
	"ngramstats/internal/sequence"
)

// Options configures OpenChain.
type Options struct {
	// CacheBlocks bounds each generation's decoded-block cache, as
	// index.Options.CacheBlocks.
	CacheBlocks int
	// TempDir is the directory for the spill files of full ordered
	// scans (which re-sort into canonical order externally). Empty
	// selects the system temp directory.
	TempDir string
}

// View is a read-only merged view over a chain: one base plus its
// deltas answer queries as if they were a single index, with aggregate
// cells folded across generations on the fly. A plain index directory
// is a chain of one generation, and serves through a View too.
//
// Queries answer only n-grams whose folded frequency reaches the
// chain's τ (Manifest.MinFrequency); under τ ≤ 1 — every plain index,
// which stores only what its own τ kept — no record is decoded for it.
//
// Queries speak the canonical identifier space — the frequency-ranked
// dictionary a full rebuild over all documents would produce,
// reconstructed exactly from the newest generation's cumulative
// (term, frequency) table. Keys are translated to the chain's stable
// identifier space on the way in and back on the way out, so a caller
// cannot distinguish a View from the rebuilt index it stands in for.
//
// Point gets and bounded scans read each generation through its block
// cache — one probe, or one index.Cursor, per generation, folded or
// merged as they go — so a warm query touches no file. Only the full
// passes (ScanAll, ScanUnordered, the compactor's ScanChain) stream the
// shard files, past the cache.
//
// Like index.Index, all state is immutable after OpenChain and Close
// is refcounted against in-flight queries, so a serving layer can
// retire a view under live traffic. Views obtained from one another by
// Reopen share the open generations their manifests have in common;
// each generation closes with the last view that holds it.
type View struct {
	dir  string
	man  *Manifest
	opts Options

	// gens holds the open generations in merge order: base first, then
	// deltas oldest to newest.
	gens []*index.Index

	// dict is the canonical dictionary; toCanon and toChain translate
	// between the chain's stable identifiers and canonical ones (a
	// bijection — both spaces rank exactly the terms of the newest
	// generation's dictionary). Both are nil when dict is the newest
	// generation's own dictionary, as for every saved or compacted base:
	// chain keys are then canonical keys, and chain order canonical
	// order, so no key needs translating and no scan re-sorting.
	dict    *dictionary.Dictionary
	toCanon []sequence.Term
	toChain []sequence.Term

	// open counts what opening this view cost.
	open OpenStats

	refs   atomic.Int64
	closed atomic.Bool

	// top is the memo of the merged top list: the longest answer the
	// threshold merge has proven on this view, or nil before the first.
	top atomic.Pointer[topMemo]

	// topMerged and topScans count TopRecords calls answered without a
	// scan (from the memo or by the threshold merge) and calls handed
	// back to the caller's scan; topGets counts the per-generation point
	// gets the merge issued.
	topMerged, topScans, topGets atomic.Int64
	// prefixScans and prefixRecords count ScanPrefix calls and the
	// generation records their merges consumed.
	prefixScans, prefixRecords atomic.Int64
}

// OpenStats counts the work one open of a chain did. The counts depend
// only on the chain and on the view it was reopened from, never on
// timing: an append onto a view of G generations reopens as 1 opened,
// G shared, and as many terms as the new delta's dictionary holds; an
// unchanged manifest as 0, G, 0.
type OpenStats struct {
	// Opened is the number of generations opened from their directories,
	// with every check OpenChain makes.
	Opened int
	// Shared is the number of generations taken over, already open, from
	// the view this one was reopened from.
	Shared int
	// Terms is the number of dictionary terms parsed.
	Terms int64
}

// OpenStats returns what opening the view cost.
func (v *View) OpenStats() OpenStats { return v.open }

// OpenChain opens the chain at dir and builds its merged view. Every
// generation is opened and cross-checked against the chain manifest
// (corpus, kind, σ, appendability, record counts); any inconsistency
// is reported wrapping ErrCorrupt. A directory without a chain manifest
// is a plain index, opened as a chain of one: its manifest is built in
// memory from the one read of its MANIFEST.json (nothing is written)
// and, as nothing is appended to it, it need not be appendable — any τ
// or selection mode opens. Every generation's dictionary is verified
// against its manifest's size and checksum; only the newest one's is
// parsed. A generation that vanishes between the manifest read and its
// open (a compaction committed in between) is retried once against the
// fresh manifest.
func OpenChain(dir string, opts Options) (*View, error) {
	return openChainRetrying(dir, opts, nil)
}

// Reopen opens the chain's current state as a new view, leaving v as it
// is. Every generation of v that the manifest still lists unchanged —
// same inventory entry, same MANIFEST.json time as v observed — is
// shared: the new view holds a counted reference on the open
// index.Index, with its file descriptors, its warm block cache and its
// loaded top records, and closes it only if it is the last view to do
// so. Only directories v does not hold are opened, checked exactly as
// OpenChain checks them; when the newest generation is shared, so are
// the canonical dictionary and the translation tables, and when every
// generation is, under the same τ, so is the memoized top list (see
// TopRecords). Reopen on a closed view fails with index.ErrClosed.
func (v *View) Reopen() (*View, error) {
	if err := v.acquire(); err != nil {
		return nil, err
	}
	defer v.release() // pinned, v keeps its generations open to be retained
	return openChainRetrying(v.dir, v.opts, v)
}

func openChainRetrying(dir string, opts Options, prev *View) (*View, error) {
	v, err := openChain(dir, opts, prev)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		// The chain may have been compacted under us: the manifest we
		// read referenced generations that are now retired. Re-read and
		// retry once.
		v, err = openChain(dir, opts, prev)
	}
	return v, err
}

func openChain(dir string, opts Options, prev *View) (*View, error) {
	man, err := ReadManifest(dir)
	chain := err == nil
	var plain index.Meta
	if errors.Is(err, fs.ErrNotExist) {
		// A plain index: its one generation opens from this one read of
		// its manifest, so the two cannot disagree.
		if plain, err = index.ReadMeta(dir); err == nil {
			man = adopted(plain)
		}
	}
	if err != nil {
		return nil, err
	}
	v := &View{dir: dir, man: man, opts: opts}
	v.refs.Store(1)
	gens := man.Gens()
	for i, g := range gens {
		newest := i == len(gens)-1
		ix := prev.share(g, newest)
		if ix != nil {
			v.open.Shared++
		} else {
			iopts := index.Options{CacheBlocks: opts.CacheBlocks, NoDictionary: !newest}
			if chain {
				ix, err = index.Open(filepath.Join(dir, g.Dir), iopts)
			} else {
				ix, err = plain.Open(iopts)
			}
			if err != nil {
				v.Close()
				return nil, fmt.Errorf("lsm: generation %s: %w", g.Dir, err)
			}
			v.open.Opened++
			if newest {
				v.open.Terms += int64(ix.Dictionary().Len())
			}
		}
		v.gens = append(v.gens, ix)
		if !chain {
			continue
		}
		if ix.Records() != g.Records {
			v.Close()
			return nil, corruptf("generation %s holds %d records, chain declares %d", g.Dir, ix.Records(), g.Records)
		}
		if ix.Corpus() != man.Corpus || ix.Kind() != man.Kind || ix.MaxLength() != man.MaxLength {
			v.Close()
			return nil, corruptf("generation %s does not match the chain invariants", g.Dir)
		}
		if err := appendable(ix.MinFrequency(), ix.Selection()); err != nil {
			v.Close()
			return nil, corruptf("generation %s: %v", g.Dir, err)
		}
	}
	if prev != nil && v.gens[len(v.gens)-1] == prev.gens[len(prev.gens)-1] {
		// The same newest generation: the same cumulative table.
		v.dict, v.toCanon, v.toChain = prev.dict, prev.toCanon, prev.toChain
	} else {
		v.buildCanonical()
	}
	if prev != nil && slices.Equal(v.gens, prev.gens) && v.man.MinFrequency == prev.man.MinFrequency {
		// The same generations under the same τ: the same merged records.
		v.top.Store(prev.top.Load())
	}
	return v, nil
}

// share returns v's open generation for the inventory entry g, retained
// for another view, if nothing says it changed since v opened it: v
// lists the same entry, and the directory's MANIFEST.json still has the
// time v observed. The chain's newest generation must also have its
// dictionary parsed. A nil v shares nothing.
func (v *View) share(g GenInfo, newest bool) *index.Index {
	if v == nil {
		return nil
	}
	i := slices.Index(v.man.Gens(), g)
	if i < 0 {
		return nil
	}
	ix := v.gens[i]
	st, err := os.Stat(filepath.Join(v.dir, g.Dir, index.ManifestFile))
	if err != nil || !st.ModTime().Equal(ix.ManifestTime()) || newest && ix.Dictionary() == nil || ix.Retain() != nil {
		return nil
	}
	return ix
}

// buildCanonical reconstructs the canonical frequency-ranked
// dictionary from the newest generation's cumulative table and the
// translation maps between the two identifier spaces. A table already
// in rank order — a plain index, or a chain whose newest generation is a
// compacted base — is the canonical dictionary, under identity maps
// that need no tables.
func (v *View) buildCanonical() {
	v.dict, v.toChain = v.gens[len(v.gens)-1].Dictionary().Rank()
	if v.Identity() {
		return
	}
	v.toCanon = make([]sequence.Term, len(v.toChain))
	for canon, chain := range v.toChain {
		v.toCanon[chain] = sequence.Term(canon)
	}
}

// Identity reports whether the chain's identifiers are the canonical
// ones, so that the view keeps no translation tables and translates no
// key: true for a plain index and a chain just compacted.
func (v *View) Identity() bool { return v.toChain == nil }

// acquire/release mirror index.Index: queries pin the view, and the
// generations close when the last pin after Close drains.
func (v *View) acquire() error {
	if v.closed.Load() {
		return index.ErrClosed
	}
	for {
		r := v.refs.Load()
		if r <= 0 {
			return index.ErrClosed
		}
		if v.refs.CompareAndSwap(r, r+1) {
			return nil
		}
	}
}

func (v *View) release() error {
	if v.refs.Add(-1) == 0 {
		return v.closeGens()
	}
	return nil
}

func (v *View) closeGens() error {
	var first error
	for _, g := range v.gens {
		if err := g.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close marks the view closed — subsequent queries fail with
// index.ErrClosed — and closes the generations once in-flight queries
// drain. Idempotent.
func (v *View) Close() error {
	if v.closed.Swap(true) {
		return nil
	}
	return v.release()
}

// Manifest returns a copy of the chain manifest the view was opened
// from.
func (v *View) Manifest() Manifest {
	m := *v.man
	m.Deltas = append([]GenInfo(nil), v.man.Deltas...)
	return m
}

// Records returns the total record count across generations — an
// upper bound on the number of distinct merged n-grams, since an
// n-gram present in several generations is counted once per
// generation. Exact cardinality would require a full merge.
func (v *View) Records() int64 { return v.man.Records() }

// Generations returns the number of generations (base + deltas).
func (v *View) Generations() int { return len(v.gens) }

// Corpus returns the chain's corpus name.
func (v *View) Corpus() string { return v.man.Corpus }

// Kind returns the chain's aggregation kind.
func (v *View) Kind() int { return v.man.Kind }

// Shards returns the total shard count across generations.
func (v *View) Shards() int {
	n := 0
	for _, g := range v.gens {
		n += g.Shards()
	}
	return n
}

// Counters returns the producing runs' counters summed across
// generations.
func (v *View) Counters() map[string]int64 {
	out := map[string]int64{}
	for _, g := range v.gens {
		for k, n := range g.Counters() {
			out[k] += n
		}
	}
	return out
}

// CacheStats returns the decoded-block cache hit and miss counts
// summed across generations.
func (v *View) CacheStats() (hits, misses int64) {
	for _, g := range v.gens {
		h, m := g.CacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// ManifestTime returns the modification time of the governing manifest
// (see ManifestTime) the view was opened from, taken from the handle
// its bytes were read through — the freshness anchor for serving-layer
// reload checks.
func (v *View) ManifestTime() time.Time { return v.man.mtime }

// Dictionary returns the canonical dictionary: term identifiers ranked
// by cumulative frequency across all generations, exactly as a full
// rebuild would assign them.
func (v *View) Dictionary() *dictionary.Dictionary { return v.dict }

// TopKStats returns how many TopRecords calls were answered without a
// scan — from the memo or by the threshold merge — and how many fell
// back to the caller's full scan: the answer to "why was this top-k
// slow" (ngramsd exports both).
func (v *View) TopKStats() (merged, scans int64) {
	return v.topMerged.Load(), v.topScans.Load()
}

// TopKPointGets returns how many point gets, one per generation probed,
// the threshold merge has issued on this view. The count is exact and
// depends only on the chain and the sequence of k asked: a TopRecords
// call the memo answers issues none (ngramsd exports it).
func (v *View) TopKPointGets() int64 { return v.topGets.Load() }

// DropTopMemo forgets the memoized top list, so that the next
// TopRecords call runs the threshold merge again, as on a view just
// reopened after an append. Benchmarks use it to time the merge.
func (v *View) DropTopMemo() { v.top.Store(nil) }

// PrefixStats returns how many bounded scans (ScanPrefix calls) the
// view has served and how many generation records their merges read —
// records per scan is the work a prefix query does (ngramsd exports
// both).
func (v *View) PrefixStats() (scans, records int64) {
	return v.prefixScans.Load(), v.prefixRecords.Load()
}

// TopRecords returns the chain's k most frequent merged records that
// reach τ, in report order — frequency, then length, then canonical
// text, the order a rebuilt index stores them in — with canonical-space
// keys, without scanning: a threshold merge (Fagin's TA) over the
// generations' stored top lists. Frequency is additive under the
// aggregate fold, so the sum of the frequencies at the lists'
// frontiers bounds every n-gram the walk has not met yet; each newly
// met n-gram is folded across all generations by point gets, and the
// walk stops once the k-th best folded frequency is strictly above
// that bound (strictly, so ties at the cut are all in hand and the
// full order decides them exactly as the scan would), and the result
// is cut where it falls below τ. An exhausted list contributes 0 only
// if it holds every record of its generation; a truncated one keeps
// contributing its last frequency.
//
// The view is immutable, so a proven answer stays the answer: the view
// memoizes the longest one, and a call whose k fits inside it returns a
// prefix of it with no merge and no point get. The merge therefore runs
// once per view and depth asked — O(depth walked × generations) point
// gets, about k × generations for skewed counts — and every later call
// costs what a plain index's stored list costs. The memo holds at most
// the generations' stored records, and Reopen carries it to a view of
// the same generations.
//
// ok is false when the lists run out before the bound proves the
// answer — k close to the stored depth, or a delta written before
// deltas carried top.run — and the caller takes its scanning path;
// that probing is wasted, at most stored depth × generations² gets.
// Fewer than k records come back when the chain holds fewer distinct
// n-grams that reach τ. The returned slices must not be modified.
func (v *View) TopRecords(k int) (keys, values [][]byte, ok bool) {
	if err := v.acquire(); err != nil {
		v.topScans.Add(1)
		return nil, nil, false
	}
	defer v.release()
	k = max(k, 0)
	if m := v.top.Load(); m != nil && (k <= len(m.keys) || m.complete) {
		v.topMerged.Add(1)
		return m.prefix(k)
	}
	keys, values, ok = v.cutTop(v.mergeTop(k))
	if !ok {
		v.topScans.Add(1)
		return nil, nil, false
	}
	v.topMerged.Add(1)
	v.remember(&topMemo{keys: keys, values: values, complete: len(keys) < k})
	return keys, values, true
}

// topMemo is a proven merged top list: the view's first len(keys)
// records in report order, canonical keys with folded values. complete
// marks a list that holds every record reaching τ — one cut short by τ
// or by the chain running out of n-grams — so that it answers any k.
type topMemo struct {
	keys, values [][]byte
	complete     bool
}

// prefix returns the memo's first k records (all of them, if fewer),
// capped so that a caller's append cannot write into the memo.
func (m *topMemo) prefix(k int) (keys, values [][]byte, ok bool) {
	k = min(k, len(m.keys))
	return m.keys[:k:k], m.values[:k:k], true
}

// remember publishes m as the view's memo unless the memo already
// answers everything m does; concurrent callers settle on the deepest.
func (v *View) remember(m *topMemo) {
	for {
		old := v.top.Load()
		if old != nil && (old.complete || !m.complete && len(old.keys) >= len(m.keys)) {
			return
		}
		if v.top.CompareAndSwap(old, m) {
			return
		}
	}
}

// topCand is one n-gram the threshold merge has met and folded.
type topCand struct {
	key   []byte       // canonical space
	seq   sequence.Seq // canonical identifiers
	value []byte       // folded across generations
	cf    int64
}

// topBetter is the TopK report order over canonical identifiers:
// descending frequency, then longer first, then by text.
func (v *View) topBetter(a, b *topCand) bool {
	if a.cf != b.cf {
		return a.cf > b.cf
	}
	if len(a.seq) != len(b.seq) {
		return len(a.seq) > len(b.seq)
	}
	for i := range a.seq {
		if wa, wb := v.dict.Term(a.seq[i]), v.dict.Term(b.seq[i]); wa != wb {
			return wa < wb
		}
	}
	return false
}

// freqHeap is a min-heap of frequencies: holding the k best met so
// far, its root is the k-th best.
type freqHeap []int64

func (h freqHeap) Len() int           { return len(h) }
func (h freqHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h freqHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *freqHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *freqHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// mergeTop is TopRecords without the memo and the τ cut, on a pinned
// view.
func (v *View) mergeTop(k int) (keys, values [][]byte, ok bool) {
	if len(v.gens) == 1 {
		// A chain of length one is its base: the stored records are the
		// answer, re-keyed into the canonical space.
		base := v.gens[0]
		if base.TopStored() == base.Records() {
			k = min(k, int(base.Records()))
		}
		keys, values, ok = base.TopRecords(k)
		if v.Identity() {
			return keys, values, ok
		}
		for i, key := range keys {
			var err error
			if keys[i], _, err = remapKey(nil, key, v.toCanon, nil); err != nil {
				return nil, nil, false
			}
		}
		return keys, values, ok
	}
	if k <= 0 {
		return nil, nil, true
	}

	kind := core.AggregationKind(v.man.Kind)
	stored := make([]int, len(v.gens))
	truncated := make([]bool, len(v.gens))
	anyTruncated := false
	deepest := 0
	for g, ix := range v.gens {
		stored[g] = int(ix.TopStored())
		truncated[g] = int64(stored[g]) < ix.Records()
		if truncated[g] && stored[g] == 0 {
			return nil, nil, false // no top.run: nothing bounds this generation
		}
		anyTruncated = anyTruncated || truncated[g]
		deepest = max(deepest, stored[g])
	}

	var cands []*topCand
	result := func() ([][]byte, [][]byte, bool) {
		sort.Slice(cands, func(i, j int) bool { return v.topBetter(cands[i], cands[j]) })
		cands = cands[:min(k, len(cands))]
		keys, values := make([][]byte, len(cands)), make([][]byte, len(cands))
		for i, c := range cands {
			keys[i], values[i] = c.key, c.value
		}
		return keys, values, true
	}
	met := make(map[string]struct{})
	frontier := make([]int64, len(v.gens))
	var kth freqHeap
	defer func() { v.topGets.Add(int64(len(met) * len(v.gens))) }()
	for d := 0; d < deepest; d++ {
		for g, ix := range v.gens {
			if d >= stored[g] {
				// Exhausted: a complete list has shown everything its
				// generation holds; a truncated one may hide records as
				// frequent as its last.
				if !truncated[g] {
					frontier[g] = 0
				}
				continue
			}
			chainKey, val := ix.TopRecord(d)
			var err error
			if frontier[g], err = core.DecodeFrequency(kind, val); err != nil {
				return nil, nil, false
			}
			if _, dup := met[string(chainKey)]; dup {
				continue
			}
			met[string(chainKey)] = struct{}{}
			c := &topCand{}
			if c.value, ok, err = v.getChain(chainKey); err != nil || !ok {
				return nil, nil, false
			}
			if c.cf, err = core.DecodeFrequency(kind, c.value); err != nil {
				return nil, nil, false
			}
			if c.key, c.seq, err = remapKey(nil, chainKey, v.toCanon, nil); err != nil {
				return nil, nil, false
			}
			cands = append(cands, c)
			if len(kth) < k {
				heap.Push(&kth, c.cf)
			} else if c.cf > kth[0] {
				kth[0] = c.cf
				heap.Fix(&kth, 0)
			}
		}
		var bound int64
		for _, f := range frontier {
			bound += f
		}
		if len(kth) == k && kth[0] > bound {
			return result()
		}
	}
	if anyTruncated {
		return nil, nil, false
	}
	// Every list is complete and exhausted: the walk met every n-gram
	// in the chain, fewer than k of them.
	return result()
}

// kept reports whether a folded value reaches the chain's τ. Callers
// ask only when τ > 1, so that under τ ≤ 1 no record is decoded.
func (v *View) kept(val []byte) (bool, error) {
	cf, err := core.DecodeFrequency(core.AggregationKind(v.man.Kind), val)
	return cf >= v.man.MinFrequency, err
}

// filtered wraps a scan callback so that it sees only the records τ
// keeps; under τ ≤ 1 it is fn itself.
func (v *View) filtered(fn func(key, value []byte) error) func(key, value []byte) error {
	if v.man.MinFrequency <= 1 {
		return fn
	}
	return func(key, value []byte) error {
		if ok, err := v.kept(value); !ok || err != nil {
			return err
		}
		return fn(key, value)
	}
}

// cutTop trims a top list, in descending frequency, where it falls
// below τ.
func (v *View) cutTop(keys, values [][]byte, ok bool) ([][]byte, [][]byte, bool) {
	if !ok || v.man.MinFrequency <= 1 {
		return keys, values, ok
	}
	for i, val := range values {
		if keep, err := v.kept(val); !keep || err != nil {
			return keys[:i], values[:i], err == nil
		}
	}
	return keys, values, true
}

// remap rewrites an encoded key through the given identifier table
// into dst (reusing scratch for the decoded sequence) — chain→canon
// with v.toCanon, canon→chain with v.toChain. A nil table is the
// identity: the key is copied.
func remapKey(dst []byte, key []byte, m []sequence.Term, scratch sequence.Seq) ([]byte, sequence.Seq, error) {
	seq, err := encoding.DecodeSeqInto(scratch, key)
	if err != nil {
		return dst, scratch, err
	}
	for i, t := range seq {
		if m == nil {
			break
		}
		if int(t) >= len(m) {
			return dst, seq, corruptf("key holds term id %d outside dictionary of %d", t, len(m))
		}
		seq[i] = m[t]
	}
	return encoding.AppendSeq(dst[:0], seq), seq, nil
}

// AppendCanonicalKey rewrites a chain-space key into the canonical
// identifier space, appending to dst[:0]. The compactor uses it to
// translate merged chain keys into the keys the rebuilt base stores.
func (v *View) AppendCanonicalKey(dst, chainKey []byte) ([]byte, error) {
	out, _, err := remapKey(dst, chainKey, v.toCanon, nil)
	return out, err
}

// Get returns the merged value stored under a canonical-space key, if
// any and if it reaches τ: the per-generation cells for the
// corresponding chain key are folded into one. A key found in exactly
// one generation returns that generation's stored bytes unchanged.
func (v *View) Get(key []byte) ([]byte, bool, error) {
	if err := v.acquire(); err != nil {
		return nil, false, err
	}
	defer v.release()
	chainKey := key
	if !v.Identity() {
		var err error
		if chainKey, _, err = remapKey(nil, key, v.toChain, nil); err != nil {
			// A key naming identifiers outside the dictionary cannot be
			// stored anywhere in the chain.
			return nil, false, nil
		}
	}
	val, ok, err := v.getChain(chainKey)
	if ok && v.man.MinFrequency > 1 {
		ok, err = v.kept(val)
	}
	if !ok {
		return nil, false, err
	}
	return val, true, err
}

// getChain is Get for a chain-space key on an already pinned view: one
// point get per generation, folded.
func (v *View) getChain(chainKey []byte) ([]byte, bool, error) {
	var buf [8][]byte
	cells := buf[:0]
	for _, g := range v.gens {
		val, ok, err := g.Get(chainKey)
		if err != nil {
			return nil, false, err
		}
		if ok {
			cells = append(cells, val)
		}
	}
	if len(cells) == 0 {
		return nil, false, nil
	}
	val, err := v.fold(cells)
	return val, err == nil, err
}

// fold merges one key's aggregate cells, one per generation holding the
// key, into the merged value. A key present in a single generation
// passes its stored bytes through unchanged, which is the common case.
func (v *View) fold(cells [][]byte) ([]byte, error) {
	if len(cells) == 1 {
		return cells[0], nil
	}
	kind := core.AggregationKind(v.man.Kind)
	agg, err := core.DecodeAggregate(kind, cells[0])
	if err != nil {
		return nil, err
	}
	for _, cell := range cells[1:] {
		other, err := core.DecodeAggregate(kind, cell)
		if err != nil {
			return nil, err
		}
		agg.Merge(other)
	}
	return agg.Encode(), nil
}

// ScanChain calls fn for every merged record in ascending chain-key
// order, τ notwithstanding. Equal keys across generations arrive
// folded: fn sees each distinct chain key exactly once, with the
// generations' aggregate cells merged. The slices passed to fn are
// valid only during the call. fn may return index.StopScan() to end
// the scan early.
//
// This is the full pass of ordered scans, top-k selection and the
// compactor: it streams every generation's sorted shards through one
// merge tree (the extsort loser tree over the generations' open file
// descriptors, batched reads, no block cache), so its cost is O(total
// records) however they are spread across generations. A single
// generation has nothing to merge or fold and streams its own batched
// scan. Bounded reads take scanRange instead.
func (v *View) ScanChain(fn func(chainKey, value []byte) error) error {
	if err := v.acquire(); err != nil {
		return err
	}
	defer v.release()
	if len(v.gens) == 1 {
		return v.gens[0].Scan(nil, nil, fn)
	}
	var runs []*extsort.Run
	for _, g := range v.gens {
		runs = append(runs, g.ShardRuns(nil)...)
	}
	it, err := extsort.MergeRuns(nil, runs)
	if err != nil {
		return err
	}
	defer it.Close()

	// cells[:n] hold the current key's values; the iterator reuses its
	// buffers, so both are copied into buffers reused in turn.
	var key []byte
	var cells [][]byte
	n := 0
	flush := func() error {
		val, err := v.fold(cells[:n])
		if err != nil {
			return err
		}
		n = 0
		return fn(key, val)
	}
	for it.Next() {
		if n > 0 && !bytes.Equal(it.Key(), key) {
			if err := flush(); err != nil {
				return stopIsNil(err)
			}
		}
		if n == 0 {
			key = append(key[:0], it.Key()...)
		}
		if n == len(cells) {
			cells = append(cells, nil)
		}
		cells[n] = append(cells[n][:0], it.Value()...)
		n++
	}
	if err := it.Err(); err != nil {
		return err
	}
	if n > 0 {
		return stopIsNil(flush())
	}
	return nil
}

// stopIsNil maps the early-stop sentinel of a scan callback to nil.
func stopIsNil(err error) error {
	if errors.Is(err, index.StopScan()) {
		return nil
	}
	return err
}

// scanRange calls fn for every distinct chain key with lo ≤ key < hi in
// ascending order, with the cells stored under it oldest generation
// first (unfolded, so a caller that drops the key pays no decode). It
// is a k-way merge over one index.Cursor per generation: each cursor
// seeks by footer and binary search and steps through cached decoded
// blocks, so a warm scan reads no file. chainKey and the cells alias
// immutable block memory; the cells slice itself is reused. The view
// must be pinned.
func (v *View) scanRange(lo, hi []byte, fn func(chainKey []byte, cells [][]byte) error) error {
	// curs are the cursors with records left, in generation order; keys
	// caches each one's current key. An exhausted cursor has released
	// itself.
	curs := make([]*index.Cursor, 0, len(v.gens))
	keys := make([][]byte, 0, len(v.gens))
	defer func() {
		for _, c := range curs {
			c.Close()
		}
	}()
	for _, g := range v.gens {
		c := g.Seek(lo, hi)
		if c.Next() {
			curs, keys = append(curs, c), append(keys, c.Key())
		} else if err := c.Err(); err != nil {
			return err
		}
	}
	cells := make([][]byte, 0, len(curs))
	at := make([]int, 0, len(curs)) // the cursors on the smallest key
	for len(curs) > 0 {
		at = append(at[:0], 0)
		for i := 1; i < len(curs); i++ {
			switch c := bytes.Compare(keys[i], keys[at[0]]); {
			case c < 0:
				at = append(at[:0], i)
			case c == 0:
				at = append(at, i)
			}
		}
		key := keys[at[0]]
		cells = cells[:0]
		for _, i := range at {
			cells = append(cells, curs[i].Value())
		}
		// Advance them, newest first so that dropping an exhausted
		// cursor leaves the indexes still to visit in place.
		for j := len(at) - 1; j >= 0; j-- {
			i := at[j]
			if curs[i].Next() {
				keys[i] = curs[i].Key()
				continue
			}
			if err := curs[i].Err(); err != nil {
				return err
			}
			curs, keys = slices.Delete(curs, i, i+1), slices.Delete(keys, i, i+1)
		}
		if err := fn(key, cells); err != nil {
			return err
		}
	}
	return nil
}

// ScanUnordered calls fn for every merged record that reaches τ
// exactly once, with canonical-space keys, in no particular (canonical)
// order. It is the cheap full pass for order-independent consumers such
// as top-k selection.
func (v *View) ScanUnordered(fn func(key, value []byte) error) error {
	if v.Identity() {
		return v.ScanChain(v.filtered(fn))
	}
	var keyBuf []byte
	var scratch sequence.Seq
	return v.ScanChain(v.filtered(func(chainKey, value []byte) error {
		var err error
		keyBuf, scratch, err = remapKey(keyBuf, chainKey, v.toCanon, scratch)
		if err != nil {
			return err
		}
		return fn(keyBuf, value)
	}))
}

// ScanAll calls fn for every merged record that reaches τ, in
// ascending canonical key order — the order the rebuilt index would
// enumerate. Chain order and canonical order differ (identifiers were
// assigned at different times), so the merged stream is re-sorted
// through an external sorter; prefer ScanUnordered when order does not
// matter. Under identity maps the orders agree and nothing is
// re-sorted.
func (v *View) ScanAll(fn func(key, value []byte) error) error {
	if v.Identity() {
		return v.ScanChain(v.filtered(fn))
	}
	sorter := extsort.NewSorter(extsort.Options{TempDir: v.opts.TempDir})
	defer sorter.Discard()
	err := v.ScanUnordered(func(key, value []byte) error {
		return sorter.Add(key, value)
	})
	if err != nil {
		return err
	}
	it, err := sorter.Sort()
	if err != nil {
		return err
	}
	defer it.Close()
	for it.Next() {
		if err := fn(it.Key(), it.Value()); err != nil {
			return stopIsNil(err)
		}
	}
	return it.Err()
}

// ScanPrefix calls fn for the first limit merged records that reach τ,
// in ascending canonical key order, whose canonical key starts with the
// given byte prefix (limit ≤ 0: all of them). The prefix must be a
// complete encoded sequence (as produced for a phrase); it is
// translated to the chain space, where — identifier translation being
// sequence-position-wise — it bounds exactly the same set of records.
// One scanRange pass over that range translates each chain key back
// into reused scratch and keeps the limit smallest canonical keys in a
// bounded max-heap; only those are folded, sorted and emitted (under
// τ > 1 every record is folded first, to be tested), so a warm query
// costs O(range) comparisons and O(limit) memory. Under identity maps
// the merge already runs in canonical order, and stops after the first
// limit records that reach τ. The slices passed to fn must not be
// modified. An empty prefix matches every record; ScanAll is the full
// pass that does not hold them all.
func (v *View) ScanPrefix(prefix []byte, limit int, fn func(key, value []byte) error) error {
	if err := v.acquire(); err != nil {
		return err
	}
	defer v.release()
	if v.Identity() {
		return v.scanPrefixIdentity(prefix, limit, fn)
	}
	chainPrefix, _, err := remapKey(nil, prefix, v.toChain, nil)
	if err != nil {
		// Identifiers outside the dictionary match nothing.
		return nil
	}
	keep := smallestKeys{limit: limit}
	var keyBuf []byte
	var scratch sequence.Seq
	var records int64
	err = v.scanRange(chainPrefix, index.PrefixSuccessor(chainPrefix), func(chainKey []byte, cells [][]byte) error {
		records += int64(len(cells))
		if v.man.MinFrequency > 1 {
			val, err := v.fold(cells)
			if err != nil {
				return err
			}
			if ok, err := v.kept(val); !ok || err != nil {
				return err
			}
		}
		var err error
		if keyBuf, scratch, err = remapKey(keyBuf, chainKey, v.toCanon, scratch); err != nil {
			return err
		}
		keep.offer(keyBuf, cells)
		return nil
	})
	v.prefixScans.Add(1)
	v.prefixRecords.Add(records)
	if err != nil {
		return err
	}
	slices.SortFunc(keep.recs, func(a, b keptRecord) int { return bytes.Compare(a.key, b.key) })
	for _, r := range keep.recs {
		val, err := v.fold(r.cells)
		if err != nil {
			return err
		}
		if err := fn(r.key, val); err != nil {
			return stopIsNil(err)
		}
	}
	return nil
}

// scanPrefixIdentity is ScanPrefix under identity maps, on a pinned
// view: the merged records are emitted as they come.
func (v *View) scanPrefixIdentity(prefix []byte, limit int, fn func(key, value []byte) error) error {
	var records int64
	n := 0
	err := v.scanRange(prefix, index.PrefixSuccessor(prefix), func(key []byte, cells [][]byte) error {
		records += int64(len(cells))
		val, err := v.fold(cells)
		if err != nil {
			return err
		}
		if v.man.MinFrequency > 1 {
			if ok, err := v.kept(val); !ok || err != nil {
				return err
			}
		}
		if err := fn(key, val); err != nil {
			return err
		}
		if n++; n == limit {
			return index.StopScan()
		}
		return nil
	})
	v.prefixScans.Add(1)
	v.prefixRecords.Add(records)
	return stopIsNil(err)
}

// smallestKeys selects the limit records with the smallest keys of a
// stream (limit ≤ 0: all of them, unordered): once it holds limit
// records they form a max-heap on key, so the root is the record the
// next smaller key replaces.
type smallestKeys struct {
	limit int
	recs  []keptRecord
	// keys and cells are the arenas the first limit records are cut
	// from; a record that replaces the root reuses the root's slices.
	keys  []byte
	cells [][]byte
}

type keptRecord struct {
	key   []byte
	cells [][]byte // immutable block memory, one cell per generation
}

// offer considers one record, copying what it keeps.
func (h *smallestKeys) offer(key []byte, cells [][]byte) {
	if h.limit <= 0 || len(h.recs) < h.limit {
		k, c := len(h.keys), len(h.cells)
		h.keys, h.cells = append(h.keys, key...), append(h.cells, cells...)
		h.recs = append(h.recs, keptRecord{h.keys[k:len(h.keys):len(h.keys)], h.cells[c:len(h.cells):len(h.cells)]})
		if len(h.recs) == h.limit {
			for i := len(h.recs)/2 - 1; i >= 0; i-- {
				h.siftDown(i)
			}
		}
		return
	}
	root := &h.recs[0]
	if bytes.Compare(key, root.key) >= 0 {
		return
	}
	root.key, root.cells = append(root.key[:0], key...), append(root.cells[:0], cells...)
	h.siftDown(0)
}

func (h *smallestKeys) siftDown(i int) {
	s := h.recs
	for {
		big := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(s); c++ {
			if bytes.Compare(s[c].key, s[big].key) > 0 {
				big = c
			}
		}
		if big == i {
			return
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
}
