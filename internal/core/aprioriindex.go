package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"slices"

	"ngramstats/internal/corpus"
	"ngramstats/internal/encoding"
	"ngramstats/internal/kvstore"
	"ngramstats/internal/mapreduce"
	"ngramstats/internal/postings"
	"ngramstats/internal/sequence"
)

// computeAprioriIndex runs APRIORI-INDEX (Algorithm 3). In its first
// phase (k ≤ K) it scans the input and builds an inverted index with
// positional information for frequent k-grams. In its second phase
// (k > K) it avoids rescanning the input: the frequent (k−1)-grams of
// the previous iteration are joined on their (k−2)-term overlaps —
// every (k−1)-gram is routed to reducers under both its prefix and its
// suffix, and compatible pairs have their posting lists intersected on
// adjacent positions, a distributed candidate generation & pruning
// step resembling SPADE's lattice traversal.
func computeAprioriIndex(ctx context.Context, col *corpus.Collection, p Params) (*Run, error) {
	outputs, drv, err := aprioriIndexDatasets(ctx, col, p)
	if err != nil {
		return nil, err
	}
	var result mapreduce.Dataset
	if len(outputs) == 0 {
		result = mapreduce.NewMemDataset(nil)
	} else {
		result = &postingCountDataset{inner: mapreduce.ConcatDatasets(outputs...)}
	}
	return &Run{
		Method:    AprioriIndex,
		Result:    NewResultSet(result, AggCount),
		Counters:  drv.Aggregate,
		Wallclock: drv.Wallclock(),
		Jobs:      len(drv.JobResults),
	}, nil
}

// aprioriIndexDatasets runs the APRIORI-INDEX iterations and returns
// the per-length datasets of (n-gram, posting list) records together
// with the driver that ran them.
func aprioriIndexDatasets(ctx context.Context, col *corpus.Collection, p Params) ([]mapreduce.Dataset, *mapreduce.Driver, error) {
	drv := mapreduce.NewDriver()
	input, err := corpusInput(ctx, col, p, drv)
	if err != nil {
		return nil, nil, err
	}
	var outputs []mapreduce.Dataset
	var prev mapreduce.Dataset
	for k := 1; k <= p.Sigma; k++ {
		k := k
		name := fmt.Sprintf("apriori-index-k%d", k)
		var job *mapreduce.Job
		if k <= p.K {
			job = p.specJob(name, jobSpec{Kind: kindIndexScan, Tau: p.Tau, K: k})
			job.Input = input
		} else {
			job = p.specJob(name, jobSpec{Kind: kindIndexJoin, Tau: p.Tau, JoinMem: p.JoinMemory})
			job.Input = mapreduce.DatasetInput(prev)
		}
		res, err := drv.Run(ctx, job)
		if err != nil {
			return nil, nil, err
		}
		if res.Output.Records() == 0 {
			if err := res.Output.Release(); err != nil {
				return nil, nil, err
			}
			break
		}
		outputs = append(outputs, res.Output)
		prev = res.Output
	}
	return outputs, drv, nil
}

// indexScanMapper (Mapper #1 of Algorithm 3) computes, per document,
// the positions of every k-gram — sorting the document's occurrences by
// (k-gram bytes, position), the paper's in-mapper local aggregation —
// and emits one posting per k-gram and document. Positions are
// document-global with a gap of one between sentences so that position
// adjacency never crosses a sentence barrier.
type indexScanMapper struct {
	k      int
	seq    sequence.Seq
	encBuf []byte
	offs   []int
	grams  []gramAt
	valBuf []byte
}

// gramAt is one k-gram occurrence: the k-gram is encBuf[start:end].
type gramAt struct{ start, end, pos uint32 }

// Map implements mapreduce.Mapper.
func (m *indexScanMapper) Map(key, value []byte, emit mapreduce.Emit) error {
	docID, err := corpus.DecodeDocKey(key)
	if err != nil {
		return err
	}
	m.encBuf, m.grams = m.encBuf[:0], m.grams[:0]
	base := uint32(0)
	m.seq, err = corpus.VisitSentencesInto(m.seq, value, func(s sequence.Seq) error {
		if len(s) >= m.k {
			m.offs = m.offs[:0]
			for _, t := range s {
				m.offs = append(m.offs, len(m.encBuf))
				m.encBuf = encoding.AppendUvarint(m.encBuf, uint64(t))
			}
			m.offs = append(m.offs, len(m.encBuf))
			for b := 0; b+m.k <= len(s); b++ {
				m.grams = append(m.grams, gramAt{uint32(m.offs[b]), uint32(m.offs[b+m.k]), base + uint32(b)})
			}
		}
		base += uint32(len(s)) + 1 // sentence barrier gap
		return nil
	})
	if err != nil {
		return err
	}
	buf := m.encBuf
	slices.SortFunc(m.grams, func(a, b gramAt) int {
		return cmp.Or(bytes.Compare(buf[a.start:a.end], buf[b.start:b.end]), cmp.Compare(a.pos, b.pos))
	})
	for i := 0; i < len(m.grams); {
		g := buf[m.grams[i].start:m.grams[i].end]
		j := i + 1
		for j < len(m.grams) && bytes.Equal(buf[m.grams[j].start:m.grams[j].end], g) {
			j++
		}
		// postings.Encode of the one-posting list {docID: positions}.
		m.valBuf = encoding.AppendUvarint(m.valBuf[:0], 1)
		m.valBuf = encoding.AppendUvarint(m.valBuf, uint64(docID))
		m.valBuf = encoding.AppendUvarint(m.valBuf, uint64(j-i))
		prev := uint32(0)
		for _, o := range m.grams[i:j] {
			m.valBuf = encoding.AppendUvarint(m.valBuf, uint64(o.pos-prev))
			prev = o.pos
		}
		if err := emit(g, m.valBuf); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// indexMergeReducer (Reducer #1) merges per-document postings into the
// k-gram's posting list and keeps it when cf ≥ τ. The values are copied
// into a reused arena while their cf is summed, so a group below τ is
// dropped without decoding a posting and a frequent one is merged in its
// encoded form.
type indexMergeReducer struct {
	tau   int64
	arena []byte
	parts [][]byte // values in the arena (or in the one it outgrew)
	out   []byte
}

// Reduce implements mapreduce.Reducer.
func (r *indexMergeReducer) Reduce(key []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	r.arena, r.parts = r.arena[:0], r.parts[:0]
	var cf int64
	for values.Next() {
		v := values.Value()
		c, err := postings.EncodedCF(v)
		if err != nil {
			return err
		}
		cf += c
		r.arena = append(r.arena, v...)
		r.parts = append(r.parts, r.arena[len(r.arena)-len(v):])
	}
	if cf < r.tau {
		return nil // merging can only lower cf, by unioning equal positions
	}
	var err error
	if r.out, err = postings.MergeEncoded(r.out[:0], r.parts); err != nil {
		return err
	}
	if cf, err = postings.EncodedCF(r.out); err != nil || cf < r.tau {
		return err
	}
	return emit(key, r.out)
}

// joinTag distinguishes whether a (k−1)-gram reached the reducer under
// its prefix (it extends the key to the right) or under its suffix (it
// extends the key to the left) — the r-seq/l-seq subtypes of
// Algorithm 3.
const (
	tagRight byte = 'R' // keyed by prefix s[0..|s|−2]
	tagLeft  byte = 'L' // keyed by suffix s[1..|s|−1]
)

// indexJoinMapper (Mapper #2) routes every frequent (k−1)-gram with its
// posting list to the reducers of its prefix and suffix.
type indexJoinMapper struct {
	valBuf []byte
}

// Map implements mapreduce.Mapper.
func (m *indexJoinMapper) Map(key, value []byte, emit mapreduce.Emit) error {
	firstLen, lastStart, err := seqBoundaries(key)
	if err != nil {
		return err
	}
	m.valBuf = m.valBuf[:0]
	m.valBuf = append(m.valBuf, tagRight)
	m.valBuf = encoding.AppendUvarint(m.valBuf, uint64(len(key)))
	m.valBuf = append(m.valBuf, key...)
	m.valBuf = append(m.valBuf, value...)
	if err := emit(key[:lastStart], m.valBuf); err != nil {
		return err
	}
	m.valBuf[0] = tagLeft
	return emit(key[firstLen:], m.valBuf)
}

// seqBoundaries returns the byte length of the first term and the byte
// offset of the last term of an encoded sequence.
func seqBoundaries(key []byte) (firstLen, lastStart int, err error) {
	if len(key) == 0 {
		return 0, 0, fmt.Errorf("core: %w: empty sequence key", encoding.ErrCorrupt)
	}
	off := 0
	first := -1
	for off < len(key) {
		_, n := encoding.Uvarint(key[off:])
		if n <= 0 {
			return 0, 0, fmt.Errorf("core: %w: sequence key", encoding.ErrCorrupt)
		}
		if first < 0 {
			first = n
		}
		lastStart = off
		off += n
	}
	return first, lastStart, nil
}

// indexJoinReducer (Reducer #2) buffers the l-seq and r-seq values of a
// group — via spillable lists, since "the number and size of
// posting-list values seen for a specific key can become large" — and
// joins every compatible pair: m (key as suffix) with n (key as
// prefix) yields the k-gram m‖⟨n's last term⟩ whose occurrences are
// positions p with m at p and n at p+1.
type indexJoinReducer struct {
	tau     int64
	budget  int
	tempDir string
	keyBuf  []byte
}

// Setup implements mapreduce.TaskSetup: the spillable join buffers use
// the task's scratch directory.
func (r *indexJoinReducer) Setup(tc *mapreduce.TaskContext) error {
	r.tempDir = tc.TempDir
	return nil
}

// Reduce implements mapreduce.Reducer.
func (r *indexJoinReducer) Reduce(key []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	lefts := kvstore.NewList(r.budget/2, r.tempDir)
	rights := kvstore.NewList(r.budget/2, r.tempDir)
	defer lefts.Close()
	defer rights.Close()
	for values.Next() {
		v := values.Value()
		if len(v) < 2 {
			return fmt.Errorf("core: %w: join value", encoding.ErrCorrupt)
		}
		switch v[0] {
		case tagLeft:
			if err := lefts.Append(v[1:]); err != nil {
				return err
			}
		case tagRight:
			if err := rights.Append(v[1:]); err != nil {
				return err
			}
		default:
			return fmt.Errorf("core: %w: join tag %q", encoding.ErrCorrupt, v[0])
		}
	}
	return lefts.Each(func(_ int, mrec []byte) error {
		mSeq, mList, err := splitJoinRecord(mrec)
		if err != nil {
			return err
		}
		lm, err := postings.Decode(mList)
		if err != nil {
			return err
		}
		mSeqCopy := append([]byte(nil), mSeq...)
		return rights.Each(func(_ int, nrec []byte) error {
			nSeq, nList, err := splitJoinRecord(nrec)
			if err != nil {
				return err
			}
			ln, err := postings.Decode(nList)
			if err != nil {
				return err
			}
			joined := postings.Join(lm, ln)
			if joined.CF() < r.tau {
				return nil
			}
			_, lastStart, err := seqBoundaries(nSeq)
			if err != nil {
				return err
			}
			r.keyBuf = append(r.keyBuf[:0], mSeqCopy...)
			r.keyBuf = append(r.keyBuf, nSeq[lastStart:]...)
			return emit(r.keyBuf, postings.Encode(joined))
		})
	})
}

// splitJoinRecord splits a buffered join value into the (k−1)-gram key
// bytes and the posting-list bytes.
func splitJoinRecord(rec []byte) (seq, list []byte, err error) {
	l, n := encoding.Uvarint(rec)
	if n <= 0 || int(l) > len(rec)-n {
		return nil, nil, fmt.Errorf("core: %w: join record", encoding.ErrCorrupt)
	}
	return rec[n : n+int(l)], rec[n+int(l):], nil
}

// postingCountDataset presents a dataset of (n-gram, posting list)
// records as (n-gram, collection frequency) records, the common result
// format of all methods. The positional index itself remains available
// through the inner dataset.
type postingCountDataset struct {
	inner mapreduce.Dataset
}

// NumPartitions implements mapreduce.Dataset.
func (d *postingCountDataset) NumPartitions() int { return d.inner.NumPartitions() }

// Scan implements mapreduce.Dataset.
func (d *postingCountDataset) Scan(p int, yield func(key, value []byte) error) error {
	var valBuf []byte
	return d.inner.Scan(p, func(k, v []byte) error {
		cf, err := postings.EncodedCF(v)
		if err != nil {
			return err
		}
		valBuf = encoding.AppendUvarint(valBuf[:0], uint64(cf))
		return yield(k, valBuf)
	})
}

// Records implements mapreduce.Dataset.
func (d *postingCountDataset) Records() int64 { return d.inner.Records() }

// Release implements mapreduce.Dataset.
func (d *postingCountDataset) Release() error { return d.inner.Release() }
