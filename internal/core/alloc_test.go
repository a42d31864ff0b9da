package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"ngramstats/internal/encoding"
	"ngramstats/internal/mapreduce"
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
