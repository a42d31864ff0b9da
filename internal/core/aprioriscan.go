package core

import (
	"context"
	"fmt"

	"ngramstats/internal/corpus"
	"ngramstats/internal/encoding"
	"ngramstats/internal/kvstore"
	"ngramstats/internal/mapreduce"
	"ngramstats/internal/sequence"
)

// computeAprioriScan runs APRIORI-SCAN (Algorithm 2): one distributed
// scan of the input per n-gram length k. The k-th scan emits only
// k-grams whose two constituent (k−1)-grams were found frequent by the
// previous scan, using the previous output as a pruning dictionary that
// is shipped to every task via side data (the distributed-cache pattern
// of Section III-A). Iteration stops after σ scans or when a scan
// produces no output — safe by the APRIORI principle.
func computeAprioriScan(ctx context.Context, col *corpus.Collection, p Params) (*Run, error) {
	drv := mapreduce.NewDriver()
	input, err := corpusInput(ctx, col, p, drv)
	if err != nil {
		return nil, err
	}
	var outputs []mapreduce.Dataset
	var dict []byte // frequent (k−1)-grams, length-prefixed
	for k := 1; k <= p.Sigma; k++ {
		k := k
		job := p.specJob(fmt.Sprintf("apriori-scan-k%d", k), jobSpec{
			Kind: kindScan, Tau: p.Tau, K: k,
			DictMem: p.DictionaryMemory, Combiner: p.Combiner,
		})
		job.Input = input
		job.SideData = map[string][]byte{"dict": dict}
		res, err := drv.Run(ctx, job)
		if err != nil {
			return nil, err
		}
		if res.Output.Records() == 0 {
			if err := res.Output.Release(); err != nil {
				return nil, err
			}
			break
		}
		outputs = append(outputs, res.Output)
		// Build the next iteration's dictionary from this output's keys.
		dict = dict[:0]
		for part := 0; part < res.Output.NumPartitions(); part++ {
			err := res.Output.Scan(part, func(key, value []byte) error {
				dict = encoding.AppendUvarint(dict, uint64(len(key)))
				dict = append(dict, key...)
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	var result mapreduce.Dataset
	if len(outputs) == 0 {
		result = mapreduce.NewMemDataset(nil)
	} else {
		result = mapreduce.ConcatDatasets(outputs...)
	}
	return &Run{
		Method:    AprioriScan,
		Result:    NewResultSet(result, AggCount),
		Counters:  drv.Aggregate,
		Wallclock: drv.Wallclock(),
		Jobs:      len(drv.JobResults),
	}, nil
}

// ngramDict is the frequent (k−1)-gram membership structure a scan
// mapper consults. Small dictionaries live in a hashset; beyond the
// memory budget they migrate to the disk-resident key-value store
// (Section V, "Key-Value Store"), whose cache absorbs the typically
// skewed lookups.
type ngramDict interface {
	contains(key []byte) (bool, error)
	close() error
}

type memDict map[string]struct{}

func (d memDict) contains(key []byte) (bool, error) {
	_, ok := d[string(key)]
	return ok, nil
}

func (d memDict) close() error { return nil }

type storeDict struct {
	store *kvstore.Store
}

func (d *storeDict) contains(key []byte) (bool, error) {
	_, ok, err := d.store.Get(key)
	return ok, err
}

func (d *storeDict) close() error { return d.store.Close() }

// loadDict parses the side-data dictionary into a membership structure,
// choosing the representation by the memory budget.
func loadDict(data []byte, memoryBudget int, tempDir string) (ngramDict, error) {
	if len(data)*3 <= memoryBudget {
		d := make(memDict)
		for len(data) > 0 {
			l, n := encoding.Uvarint(data)
			if n <= 0 || int(l) > len(data)-n {
				return nil, fmt.Errorf("core: apriori-scan dictionary: %w", encoding.ErrCorrupt)
			}
			d[string(data[n:n+int(l)])] = struct{}{}
			data = data[n+int(l):]
		}
		return d, nil
	}
	store := kvstore.Open(kvstore.Options{MemoryBudget: memoryBudget, TempDir: tempDir})
	for len(data) > 0 {
		l, n := encoding.Uvarint(data)
		if n <= 0 || int(l) > len(data)-n {
			store.Close()
			return nil, fmt.Errorf("core: apriori-scan dictionary: %w", encoding.ErrCorrupt)
		}
		if err := store.Put(data[n:n+int(l)], nil); err != nil {
			store.Close()
			return nil, err
		}
		data = data[n+int(l):]
	}
	if err := store.Freeze(); err != nil {
		store.Close()
		return nil, err
	}
	return &storeDict{store: store}, nil
}

// scanMapper emits the k-grams of each sentence whose two constituent
// (k−1)-grams are frequent according to the dictionary.
type scanMapper struct {
	k            int
	memoryBudget int
	tempDir      string
	dict         ngramDict
	seq          sequence.Seq
	encBuf       []byte
	offs         []int
}

// Setup implements mapreduce.TaskSetup: it loads the pruning
// dictionary from the distributed cache (not needed for k = 1). The
// store's scratch directory is the task's, so a worker process keeps
// its spill files inside its own attempt directory.
func (m *scanMapper) Setup(tc *mapreduce.TaskContext) error {
	m.tempDir = tc.TempDir
	if m.k == 1 {
		return nil
	}
	data, ok := tc.SideData["dict"]
	if !ok {
		return fmt.Errorf("core: apriori-scan: missing dictionary side data")
	}
	var err error
	m.dict, err = loadDict(data, m.memoryBudget, m.tempDir)
	return err
}

// Cleanup implements mapreduce.TaskCleanup.
func (m *scanMapper) Cleanup(emit mapreduce.Emit) error {
	if m.dict != nil {
		return m.dict.close()
	}
	return nil
}

// Map implements mapreduce.Mapper.
func (m *scanMapper) Map(key, value []byte, emit mapreduce.Emit) (err error) {
	m.seq, err = corpus.VisitSentencesInto(m.seq, value, func(s sequence.Seq) error {
		if len(s) < m.k {
			return nil
		}
		// Encode the sentence once with per-term byte offsets so every
		// k-gram and (k−1)-gram is a subslice.
		m.encBuf = m.encBuf[:0]
		m.offs = m.offs[:0]
		for _, t := range s {
			m.offs = append(m.offs, len(m.encBuf))
			m.encBuf = encoding.AppendUvarint(m.encBuf, uint64(t))
		}
		m.offs = append(m.offs, len(m.encBuf))
		for b := 0; b+m.k <= len(s); b++ {
			if m.k > 1 {
				left := m.encBuf[m.offs[b]:m.offs[b+m.k-1]]
				ok, err := m.dict.contains(left)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				right := m.encBuf[m.offs[b+1]:m.offs[b+m.k]]
				ok, err = m.dict.contains(right)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			if err := emit(m.encBuf[m.offs[b]:m.offs[b+m.k]], unitCount); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}
