package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ngramstats/internal/corpus"
	"ngramstats/internal/encoding"
	"ngramstats/internal/mapreduce"
	"ngramstats/internal/postings"
	"ngramstats/internal/sequence"
	"ngramstats/internal/synth"
)

// discardSink drops reducer output, so a job's allocations are those of
// its task loops and not of the dataset it would build.
type discardSink struct{}

func (discardSink) Writer(int) (mapreduce.SinkWriter, error) { return discardSink{}, nil }
func (discardSink) Finish() (mapreduce.Dataset, error)       { return mapreduce.NewMemDataset(nil), nil }
func (discardSink) Write(key, value []byte) error            { return nil }
func (discardSink) Close() error                             { return nil }

// groupLoopMallocs runs a one-task job whose mapper emits two
// occurrences of each of `groups` distinct three-term suffixes (ten
// share each two-term prefix, so the reducer's stacks pop and push on
// every group) and reports the heap allocations of the whole run. With
// combine set the groups are folded by aggregateCombiner and the
// reducer drains nothing; without, they reach suffixSigmaReducer, which
// emits every n-gram (τ=1) into a discarding sink.
func groupLoopMallocs(t *testing.T, kind AggregationKind, combine bool, groups int) uint64 {
	t.Helper()
	job := &mapreduce.Job{
		Name:  "group-loop",
		Input: mapreduce.SliceInput([]mapreduce.KV{{Key: []byte("k"), Value: []byte("v")}}, 1),
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(_, _ []byte, emit mapreduce.Emit) error {
				var vals [35][]byte // built up front: the mapper is not what is gated
				for i := range vals {
					vals[i] = mapValue(kind, &docMeta{docID: int64(i % 7), year: 1990 + i%5})
				}
				var key []byte
				for i := 0; i < groups; i++ {
					key = encoding.AppendKey(key[:0], sequence.Seq{1, sequence.Term(2 + i/10), sequence.Term(2 + i%10)})
					for occ := 0; occ < 2; occ++ {
						if err := emit(key, vals[(i+occ)%len(vals)]); err != nil {
							return err
						}
					}
				}
				return nil
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func([]byte, *mapreduce.Values, mapreduce.Emit) error { return nil })
		},
		Partition:   FirstTermPartitioner,
		Descending:  true,
		NumReducers: 1,
		Sink:        func(int) (mapreduce.Sink, error) { return discardSink{}, nil },
		TempDir:     t.TempDir(),
	}
	if combine {
		job.NewCombiner = func() mapreduce.Reducer { return &aggregateCombiner{kind: kind} }
	} else {
		job.NewReducer = func() mapreduce.Reducer { return &suffixSigmaReducer{tau: 1, kind: kind} }
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := mapreduce.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestGroupLoopAllocs gates the per-group allocations of the combine
// loop and of the SUFFIX-σ reduce loop: both recycle their aggregate
// cells and encode into a reused buffer, so doubling the groups of a
// job must add at most one allocation per added group — for all three
// aggregation kinds, whose per-year and per-document maps are cleared
// and reused rather than rebuilt. (The job around the loop adds only
// amortized buffer growth, well under one allocation per group.)
func TestGroupLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const groups = 4000
	for _, kind := range []AggregationKind{AggCount, AggTimeSeries, AggDocIndex} {
		for _, combine := range []bool{true, false} {
			loop := "reduce"
			if combine {
				loop = "combine"
			}
			t.Run(fmt.Sprintf("%v/%s", kind, loop), func(t *testing.T) {
				groupLoopMallocs(t, kind, combine, groups) // warm the buffer pools
				small := groupLoopMallocs(t, kind, combine, groups)
				large := groupLoopMallocs(t, kind, combine, 2*groups)
				perGroup := (float64(large) - float64(small)) / groups
				t.Logf("%d allocations at %d groups, %d at %d: %.3f per added group", small, groups, large, 2*groups, perGroup)
				if perGroup > 1 {
					t.Fatalf("%s loop allocates %.2f times per group, want <= 1", loop, perGroup)
				}
			})
		}
	}
}

// TestSpillingSuffixSigmaMatchesBruteForce runs SUFFIX-σ with its
// combiner under the floor shuffle budget, so every map task spills
// and combines run by run, and holds the output to the job that fits
// its budget and to the brute-force oracle. (In-process: spawned
// workers spill every task whatever the budget.)
func TestSpillingSuffixSigmaMatchesBruteForce(t *testing.T) {
	col := synth.Generate(synth.NYTLike(300, 13))
	p := Params{
		Tau: 3, Sigma: 4, NumReducers: 3, InputSplits: 3, Combiner: true,
		TempDir: t.TempDir(), Runner: mapreduce.LocalRunner{},
	}.withDefaults()
	run := func(shuffleMemory int) (map[string]int64, *mapreduce.Counters) {
		t.Helper()
		job := p.specJob("suffix-sigma", jobSpec{Kind: kindSuffixSigma, Tau: p.Tau, Sigma: p.Sigma, Combiner: true})
		job.Input = col.Input(p.InputSplits)
		job.ShuffleMemory = shuffleMemory
		res, err := mapreduce.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		rs := NewResultSet(res.Output, AggCount)
		defer rs.Release()
		m, err := rs.CountMap()
		if err != nil {
			t.Fatal(err)
		}
		return m, res.Counters
	}
	whole, wholeCounters := run(0)
	spilling, spillCounters := run(1) // clamped up to the 64 KiB floor
	if n := wholeCounters.Get(mapreduce.CounterSpilledRecords); n != 0 {
		t.Fatalf("default budget spilled %d records", n)
	}
	if n := spillCounters.Get(mapreduce.CounterSpilledRecords); n == 0 {
		t.Fatal("floor budget did not spill")
	}
	want := BruteForce(col, p.Tau, p.Sigma)
	for name, got := range map[string]map[string]int64{"whole": whole, "spilling": spilling} {
		if len(got) != len(want) {
			t.Fatalf("%s: %d n-grams, brute force %d", name, len(got), len(want))
		}
		for k, cf := range want {
			if got[k] != cf {
				t.Fatalf("%s: cf(%x) = %d, brute force %d", name, k, got[k], cf)
			}
		}
	}
}

// indexMapMallocs reports the heap allocations of m.Map over docs, its
// output dropped.
func indexMapMallocs(t *testing.T, m *indexScanMapper, docs []mapreduce.KV) uint64 {
	t.Helper()
	drop := func(_, _ []byte) error { return nil }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, d := range docs {
		if err := m.Map(d.Key, d.Value, drop); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// indexReduceMallocs runs a one-task job whose mapper emits `groups`
// distinct bigrams with three one-document postings each, documents
// ascending as the shuffle delivers them, into indexMergeReducer at τ=4:
// an odd group's postings hold two positions each (cf 6), so it is
// merged and kept, and an even group's one (cf 3), so it is dropped. It
// reports the heap allocations of the whole run.
func indexReduceMallocs(t *testing.T, groups int) uint64 {
	t.Helper()
	var vals [3][2][]byte // [document][group parity], built up front
	for d := range vals {
		vals[d][0] = postings.Encode(postings.List{{DocID: int64(d), Positions: []uint32{7}}})
		vals[d][1] = postings.Encode(postings.List{{DocID: int64(d), Positions: []uint32{3, 9}}})
	}
	job := &mapreduce.Job{
		Name:  "index-merge-loop",
		Input: mapreduce.SliceInput([]mapreduce.KV{{Key: []byte("k"), Value: []byte("v")}}, 1),
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(_, _ []byte, emit mapreduce.Emit) error {
				var key []byte
				for i := 0; i < groups; i++ {
					key = encoding.AppendSeq(key[:0], sequence.Seq{sequence.Term(i / 100), sequence.Term(i % 100)})
					for d := range vals {
						if err := emit(key, vals[d][i%2]); err != nil {
							return err
						}
					}
				}
				return nil
			})
		},
		NewReducer:  func() mapreduce.Reducer { return &indexMergeReducer{tau: 4} },
		NumReducers: 1,
		Sink:        func(int) (mapreduce.Sink, error) { return discardSink{}, nil },
		TempDir:     t.TempDir(),
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := mapreduce.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestIndexLoopAllocs gates APRIORI-INDEX's first-phase task loops:
// indexScanMapper sorts a document's k-gram occurrences in reused
// buffers instead of building a map of position slices, and
// indexMergeReducer sums cf over a reused arena and merges survivors in
// their encoded form, so each may add at most one allocation per added
// document or group.
func TestIndexLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	t.Run("map", func(t *testing.T) {
		col := synth.Generate(synth.NYTLike(400, 17))
		var docs []mapreduce.KV
		for i := range col.Docs {
			docs = append(docs, mapreduce.KV{Key: corpus.EncodeDocKey(col.Docs[i].ID), Value: corpus.EncodeDocValue(&col.Docs[i])})
		}
		half := len(docs) / 2
		m := &indexScanMapper{k: 2}
		indexMapMallocs(t, m, docs) // grow the buffers
		small := indexMapMallocs(t, m, docs[:half])
		large := indexMapMallocs(t, m, docs)
		perDoc := (float64(large) - float64(small)) / float64(len(docs)-half)
		t.Logf("%d allocations at %d documents, %d at %d: %.3f per added document", small, half, large, len(docs), perDoc)
		if perDoc > 1 {
			t.Fatalf("map loop allocates %.2f times per document, want <= 1", perDoc)
		}
	})
	t.Run("reduce", func(t *testing.T) {
		const groups = 4000
		indexReduceMallocs(t, groups) // warm the buffer pools
		small := indexReduceMallocs(t, groups)
		large := indexReduceMallocs(t, 2*groups)
		perGroup := (float64(large) - float64(small)) / groups
		t.Logf("%d allocations at %d groups, %d at %d: %.3f per added group", small, groups, large, 2*groups, perGroup)
		if perGroup > 1 {
			t.Fatalf("reduce loop allocates %.2f times per group, want <= 1", perGroup)
		}
	})
}

// mergeTally wraps one reduce task's indexMergeReducer and counts the
// groups it emits and, of those, the ones whose values its arena holds
// in strictly ascending document order across and within the values —
// the case postings.MergeEncoded concatenates.
type mergeTally struct {
	inner                   *indexMergeReducer
	survivors, concatenated int
	multiPart               int
}

func (m *mergeTally) Reduce(key []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	emitted := false
	err := m.inner.Reduce(key, values, func(k, v []byte) error {
		emitted = true
		return emit(k, v)
	})
	if err != nil || !emitted {
		return err
	}
	m.survivors++
	if len(m.inner.parts) > 1 {
		m.multiPart++
	}
	last := int64(-1)
	for _, p := range m.inner.parts {
		l, err := postings.Decode(p)
		if err != nil {
			return err
		}
		for _, posting := range l {
			if posting.DocID <= last {
				return nil
			}
			last = posting.DocID
		}
	}
	m.concatenated++
	return nil
}

// TestIndexMergeConcatenates runs APRIORI-INDEX's scan jobs over three
// splits and checks that every group indexMergeReducer keeps reaches it
// with its postings in document order, so the merge is a concatenation:
// splits are contiguous document ranges taken in order, the map output
// sort is stable and the reduce-side merge breaks ties by run index.
func TestIndexMergeConcatenates(t *testing.T) {
	col := synth.Generate(synth.NYTLike(300, 19))
	p := Params{
		Tau: 3, Sigma: 3, K: 3, NumReducers: 2, InputSplits: 3,
		TempDir: t.TempDir(), Runner: mapreduce.LocalRunner{},
	}.withDefaults()
	for k := 1; k <= p.K; k++ {
		job := p.specJob(fmt.Sprintf("apriori-index-k%d", k), jobSpec{Kind: kindIndexScan, Tau: p.Tau, K: k})
		job.Input = col.Input(p.InputSplits)
		var mu sync.Mutex
		var tallies []*mergeTally
		newReducer := job.NewReducer
		job.NewReducer = func() mapreduce.Reducer {
			m := &mergeTally{inner: newReducer().(*indexMergeReducer)}
			mu.Lock()
			tallies = append(tallies, m)
			mu.Unlock()
			return m
		}
		res, err := mapreduce.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		var total mergeTally
		for _, m := range tallies {
			total.survivors += m.survivors
			total.concatenated += m.concatenated
			total.multiPart += m.multiPart
		}
		t.Logf("k=%d: %d groups kept, %d of them with several values, %d concatenated", k, total.survivors, total.multiPart, total.concatenated)
		if int64(total.survivors) != res.Output.Records() || total.multiPart == 0 {
			t.Fatalf("k=%d: tallied %d groups (%d of several values), output has %d", k, total.survivors, total.multiPart, res.Output.Records())
		}
		if total.concatenated != total.survivors {
			t.Fatalf("k=%d: %d of %d kept groups arrived out of document order", k, total.survivors-total.concatenated, total.survivors)
		}
		if err := res.Output.Release(); err != nil {
			t.Fatal(err)
		}
	}
}
