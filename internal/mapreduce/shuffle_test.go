package mapreduce

// Tests for the map-side spill / reduce-side merge shuffle: many map
// tasks funneling into few partitions, golden word-count output, the
// shuffle counters, and graceful spilling under a tiny per-task budget.
// CI additionally runs this package under -race, which would catch any
// unsynchronized access on the lock-free emit and run hand-off paths.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ngramstats/internal/encoding"
)

// goldenDocs builds a deterministic corpus and its exact word counts.
func goldenDocs(nDocs, wordsPerDoc, vocab int, seed int64) ([]string, map[string]uint64) {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]string, nDocs)
	want := make(map[string]uint64)
	for i := range docs {
		var sb strings.Builder
		for w := 0; w < wordsPerDoc; w++ {
			word := fmt.Sprintf("w%03d", rng.Intn(vocab))
			want[word]++
			sb.WriteString(word)
			sb.WriteByte(' ')
		}
		docs[i] = sb.String()
	}
	return docs, want
}

func TestManyMapTasksFewPartitions(t *testing.T) {
	// 32 map tasks all funneling into 2 partitions — the shape that
	// serialized on the shared collector mutex before the map-side
	// shuffle. Output must match the exact golden counts, with and
	// without a combiner.
	docs, want := goldenDocs(32, 200, 50, 11)
	for _, combine := range []bool{false, true} {
		t.Run(fmt.Sprintf("combiner=%v", combine), func(t *testing.T) {
			job := &Job{
				Name:        "many-maps",
				Input:       wordCountInput(docs, 32),
				NewMapper:   func() Mapper { return wcMapper{} },
				NewReducer:  func() Reducer { return sumReducer{} },
				NumReducers: 2,
				MapSlots:    runtime.GOMAXPROCS(0),
				TempDir:     t.TempDir(),
			}
			if combine {
				job.NewCombiner = func() Reducer { return sumReducer{} }
			}
			res, err := Run(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			got := collectCounts(t, res.Output)
			if len(got) != len(want) {
				t.Fatalf("got %d distinct words, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("count[%s] = %d, want %d", k, got[k], v)
				}
			}
			if res.MapTasks != 32 {
				t.Fatalf("MapTasks = %d, want 32", res.MapTasks)
			}

			// Shuffle-shape invariants: every sealed run is merged by
			// exactly one reduce task, so the summed merge fan-in equals
			// the sealed-run count; with 32 map tasks and 2 partitions
			// there must be at least one run per non-empty pair.
			sealed := res.Counters.Get(CounterShuffleRuns)
			fanIn := res.Counters.Get(CounterMergeFanIn)
			if sealed == 0 {
				t.Fatal("SHUFFLE_SEALED_RUNS = 0")
			}
			if fanIn != sealed {
				t.Fatalf("SHUFFLE_MERGE_FAN_IN = %d, want %d (= sealed runs)", fanIn, sealed)
			}
			if sealed > int64(res.MapTasks*res.ReduceTasks) {
				// No spills expected at the default budget: at most one
				// in-memory run per (task, partition).
				t.Fatalf("sealed %d runs, want <= %d", sealed, res.MapTasks*res.ReduceTasks)
			}
		})
	}
}

func TestSingleMapTaskSinglePartition(t *testing.T) {
	docs, want := goldenDocs(1, 100, 10, 3)
	res, err := Run(context.Background(), &Job{
		Name:        "single",
		Input:       wordCountInput(docs, 1),
		NewMapper:   func() Mapper { return wcMapper{} },
		NewReducer:  func() Reducer { return sumReducer{} },
		NumReducers: 1,
		TempDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := collectCounts(t, res.Output)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%s] = %d, want %d", k, got[k], v)
		}
	}
	// One map task, one partition, in-memory output: exactly one run.
	if sealed := res.Counters.Get(CounterShuffleRuns); sealed != 1 {
		t.Fatalf("SHUFFLE_SEALED_RUNS = %d, want 1", sealed)
	}
	if fanIn := res.Counters.Get(CounterMergeFanIn); fanIn != 1 {
		t.Fatalf("SHUFFLE_MERGE_FAN_IN = %d, want 1", fanIn)
	}
}

func TestGracefulSpillUnderTinyTaskBudget(t *testing.T) {
	// A 64 KiB per-task budget (the floor) against ~400 KiB of emitted
	// records per task must trigger graceful spills — and must not
	// change the output.
	docs, want := goldenDocs(4, 5000, 200, 17)
	res, err := Run(context.Background(), &Job{
		Name:          "tiny-budget",
		Input:         wordCountInput(docs, 4),
		NewMapper:     func() Mapper { return wcMapper{} },
		NewReducer:    func() Reducer { return sumReducer{} },
		NumReducers:   3,
		ShuffleMemory: 1, // clamped up to the 64 KiB floor
		TempDir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := collectCounts(t, res.Output)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%s] = %d, want %d", k, got[k], v)
		}
	}
	if spilled := res.Counters.Get(CounterSpilledRecords); spilled == 0 {
		t.Fatal("expected SPILLED_RECORDS > 0 under tiny budget")
	}
	// Spilling means more than one run per (task, partition) pair
	// somewhere, and the reduce side must have merged them all.
	sealed := res.Counters.Get(CounterShuffleRuns)
	if sealed <= int64(res.MapTasks) {
		t.Fatalf("sealed %d runs, expected more than %d map tasks' worth", sealed, res.MapTasks)
	}
	if fanIn := res.Counters.Get(CounterMergeFanIn); fanIn != sealed {
		t.Fatalf("SHUFFLE_MERGE_FAN_IN = %d, want %d", fanIn, sealed)
	}
}

func TestSealSpillsWhenTasksOutnumberSlots(t *testing.T) {
	// 8 map tasks on 1 slot, each buffering ~120 KiB against a 256 KiB
	// task budget: no graceful spill triggers mid-task, but the sealed
	// hand-off share is 256 KiB × 1/8 = 32 KiB, so every task must
	// spill its remainder to disk at seal time instead of keeping
	// 8×120 KiB resident. Every map output record therefore spills.
	docs, want := goldenDocs(8, 2000, 100, 23)
	res, err := Run(context.Background(), &Job{
		Name:          "seal-bound",
		Input:         wordCountInput(docs, 8),
		NewMapper:     func() Mapper { return wcMapper{} },
		NewReducer:    func() Reducer { return sumReducer{} },
		NumReducers:   2,
		MapSlots:      1,
		ShuffleMemory: 256 << 10,
		TempDir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := collectCounts(t, res.Output)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%s] = %d, want %d", k, got[k], v)
		}
	}
	spilled := res.Counters.Get(CounterSpilledRecords)
	mapOut := res.Counters.Get(CounterMapOutputRecords)
	if spilled < mapOut {
		t.Fatalf("SPILLED_RECORDS = %d, want >= %d (all map output forced to disk at seal)", spilled, mapOut)
	}
}

func TestShuffleMatchesSequentialReference(t *testing.T) {
	// The parallel shuffle result must be byte-identical (as a multiset)
	// to the same job forced through one map slot and one reduce slot.
	docs, _ := goldenDocs(16, 300, 80, 29)
	run := func(mapSlots, reduceSlots int) map[string]uint64 {
		res, err := Run(context.Background(), &Job{
			Name:        fmt.Sprintf("ref-%d-%d", mapSlots, reduceSlots),
			Input:       wordCountInput(docs, 16),
			NewMapper:   func() Mapper { return wcMapper{} },
			NewReducer:  func() Reducer { return sumReducer{} },
			NewCombiner: func() Reducer { return sumReducer{} },
			NumReducers: 4,
			MapSlots:    mapSlots,
			ReduceSlots: reduceSlots,
			TempDir:     t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return collectCounts(t, res.Output)
	}
	sequential := run(1, 1)
	parallel := run(runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0))
	if len(sequential) != len(parallel) {
		t.Fatalf("distinct words differ: %d vs %d", len(sequential), len(parallel))
	}
	for k, v := range sequential {
		if parallel[k] != v {
			t.Fatalf("count[%s]: sequential %d, parallel %d", k, v, parallel[k])
		}
	}
}

// TestMergeWidth pins the rule that sizes a reduce task's merge: the
// CPUs divided among the reduce tasks that run at once.
func TestMergeWidth(t *testing.T) {
	for _, tc := range []struct{ procs, slots, reducers, want int }{
		{2, 2, 4, 1},  // the slots fill the CPUs: every merge sequential
		{1, 1, 4, 1},  // one CPU
		{8, 1, 16, 8}, // one slot: its merge takes every CPU
		{8, 2, 16, 4}, // two slots share the CPUs
		{8, 3, 16, 2}, // a remainder is left idle rather than oversubscribed
		{4, 8, 16, 1}, // more slots than CPUs
		{8, 8, 2, 4},  // fewer reducers than slots: only two merges run
		{8, 8, 1, 8},  // a single reducer
		{4, 4, 8, 1},  // the net worker's default: slots = GOMAXPROCS ≤ R
	} {
		if got := mergeWidth(tc.procs, tc.slots, tc.reducers); got != tc.want {
			t.Errorf("mergeWidth(GOMAXPROCS %d, ReduceSlots %d, NumReducers %d) = %d, want %d",
				tc.procs, tc.slots, tc.reducers, got, tc.want)
		}
	}
}

func TestShuffleMicrosCounterPopulated(t *testing.T) {
	// SHUFFLE_MICROS exists after any shuffle job (it may round to zero
	// on very fast runs, so only presence in the snapshot is asserted).
	docs, _ := goldenDocs(2, 50, 10, 5)
	res, err := Run(context.Background(), &Job{
		Name:        "shuffle-millis",
		Input:       wordCountInput(docs, 2),
		NewMapper:   func() Mapper { return wcMapper{} },
		NewReducer:  func() Reducer { return sumReducer{} },
		NumReducers: 2,
		TempDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Counters.Snapshot()[CounterShuffleMicros]; !ok {
		t.Fatal("SHUFFLE_MICROS counter missing")
	}
	s := Summary("shuffle-millis", res)
	if s.SealedRuns == 0 || s.MergeFanIn == 0 {
		t.Fatalf("summary missing shuffle shape: %+v", s)
	}
}

// emitHeavyMapper emits k records per input record with minimal work,
// to expose the emit path itself.
type emitHeavyMapper struct{ k int }

func (m emitHeavyMapper) Map(key, value []byte, emit Emit) error {
	for i := 0; i < m.k; i++ {
		w := fmt.Sprintf("w%04d", i)
		if err := emit([]byte(w), encoding.AppendUvarint(nil, 1)); err != nil {
			return err
		}
	}
	return nil
}

func TestEmitHeavyManyTasks(t *testing.T) {
	// Stress the emit path across tasks; under -race this exercises the
	// claim that no shared mutable state is touched per record.
	recs := make([]KV, 16)
	for i := range recs {
		recs[i] = KV{Key: []byte(fmt.Sprint(i)), Value: []byte("x")}
	}
	res, err := Run(context.Background(), &Job{
		Name:        "emit-heavy",
		Input:       SliceInput(recs, 16),
		NewMapper:   func() Mapper { return emitHeavyMapper{k: 500} },
		NewReducer:  func() Reducer { return sumReducer{} },
		NumReducers: 2,
		TempDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Counters.Get(CounterMapOutputRecords); n != 16*500 {
		t.Fatalf("MAP_OUTPUT_RECORDS = %d, want %d", n, 16*500)
	}
	got := collectCounts(t, res.Output)
	if len(got) != 500 {
		t.Fatalf("distinct keys = %d, want 500", len(got))
	}
	for k, v := range got {
		if v != 16 {
			t.Fatalf("count[%s] = %d, want 16", k, v)
		}
	}
}
