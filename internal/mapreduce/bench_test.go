package mapreduce

// Benchmarks for the task loops. The headline comparison is phase
// throughput at one slot vs GOMAXPROCS slots: a task shares nothing
// with its neighbours per record or per group — no lock, no counter
// cell, no cancellation state — so adding slots must never make a
// phase slower (and speeds it up on multi-core hosts).

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ngramstats/internal/encoding"
)

// benchInput builds splits whose mapper fans each input record out into
// many small intermediate records, making the emit path dominate.
func benchInput(splits int) Input {
	recs := make([]KV, splits)
	for i := range recs {
		recs[i] = KV{Key: []byte(fmt.Sprint(i)), Value: []byte("x")}
	}
	return SliceInput(recs, splits)
}

func benchShuffleJob(b *testing.B, mapSlots, emitPerTask int) {
	b.Helper()
	splits := 2 * runtime.GOMAXPROCS(0)
	if splits < 8 {
		splits = 8
	}
	var mapMillis int64
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), &Job{
			Name:        "bench-shuffle",
			Input:       benchInput(splits),
			NewMapper:   func() Mapper { return emitHeavyMapper{k: emitPerTask} },
			NewReducer:  func() Reducer { return sumReducer{} },
			NumReducers: 2,
			MapSlots:    mapSlots,
			TempDir:     b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		mapMillis = res.Counters.Get(CounterMapPhaseMillis)
		if err := res.Output.Release(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(mapMillis), "map-ms/op")
}

// BenchmarkMapPhaseThroughput is the before/after evidence for the
// share-nothing emit path: compare MapSlots=1 against
// MapSlots=GOMAXPROCS.
func BenchmarkMapPhaseThroughput(b *testing.B) {
	const emitPerTask = 20_000
	b.Run("MapSlots=1", func(b *testing.B) {
		benchShuffleJob(b, 1, emitPerTask)
	})
	b.Run("MapSlots=GOMAXPROCS", func(b *testing.B) {
		benchShuffleJob(b, runtime.GOMAXPROCS(0), emitPerTask)
	})
}

// reducePhaseProbe reads the clock and the allocation count when the
// reduce phase opens, so the benchmark charges the phase alone.
type reducePhaseProbe struct {
	start   time.Time
	mallocs uint64
}

func (p *reducePhaseProbe) JobStart(JobInfo) {}
func (p *reducePhaseProbe) PhaseStart(_, phase string) {
	if phase == "reduce" {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		p.start, p.mallocs = time.Now(), m.Mallocs
	}
}
func (p *reducePhaseProbe) TaskDone(string, string) {}
func (p *reducePhaseProbe) JobDone(JobSummary)      {}

// discardSink drops reducer output: the benchmark measures the reduce
// loop, not the dataset it would fill.
type discardSink struct{}

func (discardSink) Writer(int) (SinkWriter, error) { return discardSink{}, nil }
func (discardSink) Finish() (Dataset, error)       { return NewMemDataset(nil), nil }
func (discardSink) Write(key, value []byte) error  { return nil }
func (discardSink) Close() error                   { return nil }

func benchReduceJob(b *testing.B, reduceSlots, groups int) {
	b.Helper()
	const splits = 8 // every group merges one value from each
	var phase time.Duration
	var mallocs uint64
	for i := 0; i < b.N; i++ {
		var probe reducePhaseProbe
		res, err := Run(context.Background(), &Job{
			Name:      "bench-reduce",
			Input:     benchInput(splits),
			NewMapper: func() Mapper { return emitHeavyMapper{k: groups} },
			NewReducer: func() Reducer {
				var buf []byte
				return ReducerFunc(func(key []byte, values *Values, emit Emit) error {
					var total uint64
					for values.Next() {
						v, _ := encoding.Uvarint(values.Value())
						total += v
					}
					buf = encoding.AppendUvarint(buf[:0], total)
					return emit(key, buf)
				})
			},
			NumReducers: 4,
			ReduceSlots: reduceSlots,
			Sink:        func(int) (Sink, error) { return discardSink{}, nil },
			TempDir:     b.TempDir(),
			Progress:    &probe,
		})
		if err != nil {
			b.Fatal(err)
		}
		phase += time.Since(probe.start)
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		mallocs += m.Mallocs - probe.mallocs
		if got := res.Counters.Get(CounterReduceInputGroups); got != int64(groups) {
			b.Fatalf("%d reduce groups, want %d", got, groups)
		}
	}
	perGroup := float64(b.N) * float64(groups)
	b.ReportMetric(float64(phase.Nanoseconds())/perGroup, "ns/group")
	b.ReportMetric(float64(mallocs)/perGroup, "allocs/group")
}

// BenchmarkReducePhaseThroughput is the reduce-side mirror of
// BenchmarkMapPhaseThroughput: the merge, the grouping and the
// per-group bookkeeping of the reduce loop, at ReduceSlots=1 against
// ReduceSlots=GOMAXPROCS.
func BenchmarkReducePhaseThroughput(b *testing.B) {
	const groups = 20_000
	b.Run("ReduceSlots=1", func(b *testing.B) {
		benchReduceJob(b, 1, groups)
	})
	b.Run("ReduceSlots=GOMAXPROCS", func(b *testing.B) {
		benchReduceJob(b, runtime.GOMAXPROCS(0), groups)
	})
}

// BenchmarkEmitRecord measures the raw cost of one record through the
// emit path (partition + task-private sorter append + plain tallies).
func BenchmarkEmitRecord(b *testing.B) {
	val := encoding.AppendUvarint(nil, 1)
	recs := []KV{{Key: []byte("0"), Value: []byte("x")}}
	res, err := Run(context.Background(), &Job{
		Name:  "bench-emit",
		Input: SliceInput(recs, 1),
		NewMapper: func() Mapper {
			return MapperFunc(func(key, value []byte, emit Emit) error {
				k := []byte("key-0000")
				for i := 0; i < b.N; i++ {
					if err := emit(k, val); err != nil {
						return err
					}
				}
				return nil
			})
		},
		NewReducer:  func() Reducer { return sumReducer{} },
		NumReducers: 4,
		TempDir:     b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := res.Output.Release(); err != nil {
		b.Fatal(err)
	}
}
