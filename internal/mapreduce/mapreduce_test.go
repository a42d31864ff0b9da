package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ngramstats/internal/encoding"
)

// wordCountInput builds an input of (docID, text) records.
func wordCountInput(docs []string, splits int) Input {
	recs := make([]KV, len(docs))
	for i, d := range docs {
		recs[i] = KV{Key: []byte(fmt.Sprint(i)), Value: []byte(d)}
	}
	return SliceInput(recs, splits)
}

type wcMapper struct{}

func (wcMapper) Map(key, value []byte, emit Emit) error {
	for _, w := range strings.Fields(string(value)) {
		if err := emit([]byte(w), encoding.AppendUvarint(nil, 1)); err != nil {
			return err
		}
	}
	return nil
}

type sumReducer struct{}

func (sumReducer) Reduce(key []byte, values *Values, emit Emit) error {
	var total uint64
	for values.Next() {
		v, _ := encoding.Uvarint(values.Value())
		total += v
	}
	return emit(key, encoding.AppendUvarint(nil, total))
}

func collectCounts(t *testing.T, d Dataset) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	recs, err := CollectDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		v, _ := encoding.Uvarint(r.Value)
		out[string(r.Key)] += v
	}
	return out
}

func TestWordCountEndToEnd(t *testing.T) {
	docs := []string{
		"a x b x x",
		"b a x b x",
		"x b a x b",
	}
	res, err := Run(context.Background(), &Job{
		Name:        "wordcount",
		Input:       wordCountInput(docs, 3),
		NewMapper:   func() Mapper { return wcMapper{} },
		NewReducer:  func() Reducer { return sumReducer{} },
		NumReducers: 4,
		TempDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := collectCounts(t, res.Output)
	want := map[string]uint64{"a": 3, "b": 5, "x": 7}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%s] = %d, want %d", k, got[k], v)
		}
	}
	// Counter sanity: 15 emitted words.
	if n := res.Counters.Get(CounterMapOutputRecords); n != 15 {
		t.Fatalf("MAP_OUTPUT_RECORDS = %d, want 15", n)
	}
	if n := res.Counters.Get(CounterMapInputRecords); n != 3 {
		t.Fatalf("MAP_INPUT_RECORDS = %d, want 3", n)
	}
	if n := res.Counters.Get(CounterReduceOutputRecs); n != 3 {
		t.Fatalf("REDUCE_OUTPUT_RECORDS = %d, want 3", n)
	}
}

func TestCombinerReducesShuffleNotMapOutput(t *testing.T) {
	docs := []string{strings.Repeat("w ", 100), strings.Repeat("w ", 50)}
	run := func(combine bool) *Result {
		job := &Job{
			Name:        "wc-combine",
			Input:       wordCountInput(docs, 2),
			NewMapper:   func() Mapper { return wcMapper{} },
			NewReducer:  func() Reducer { return sumReducer{} },
			NumReducers: 2,
			TempDir:     t.TempDir(),
		}
		if combine {
			job.NewCombiner = func() Reducer { return sumReducer{} }
		}
		res, err := Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false)
	combined := run(true)

	// Results must agree.
	if got, want := collectCounts(t, combined.Output)["w"], collectCounts(t, plain.Output)["w"]; got != want || got != 150 {
		t.Fatalf("combined=%d plain=%d, want 150", got, want)
	}
	// MAP_OUTPUT_* counters are pre-combine and must be identical (the
	// paper's "bytes transferred" measure is MAP_OUTPUT_BYTES).
	if a, b := plain.Counters.Get(CounterMapOutputRecords), combined.Counters.Get(CounterMapOutputRecords); a != b {
		t.Fatalf("MAP_OUTPUT_RECORDS differ: %d vs %d", a, b)
	}
	// The shuffle volume must shrink with a combiner.
	a := plain.Counters.Get(CounterReduceShuffleBytes)
	b := combined.Counters.Get(CounterReduceShuffleBytes)
	if b >= a {
		t.Fatalf("combiner did not reduce shuffle bytes: %d vs %d", b, a)
	}
	// With one distinct word per map task, the combiner should emit one
	// record per task per partition it occurs in: 2 tasks → 2 records.
	if n := combined.Counters.Get(CounterCombineOutputRecs); n != 2 {
		t.Fatalf("COMBINE_OUTPUT_RECORDS = %d, want 2", n)
	}
}

func TestCustomComparatorControlsReduceOrder(t *testing.T) {
	// Sort keys in descending byte order and verify the reducer sees
	// groups in that order.
	var mu sync.Mutex
	var seen []string
	_, err := Run(context.Background(), &Job{
		Name:  "desc",
		Input: SliceInput([]KV{{[]byte("doc"), []byte("b a c")}}, 1),
		NewMapper: func() Mapper {
			return wcMapper{}
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(key []byte, values *Values, emit Emit) error {
				mu.Lock()
				seen = append(seen, string(key))
				mu.Unlock()
				return nil
			})
		},
		Descending: true,
		// Single partition so order is total.
		NumReducers: 1,
		TempDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"c", "b", "a"}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("reduce order = %v, want %v", seen, want)
	}
}

func TestCustomPartitioner(t *testing.T) {
	// Partition by first byte of key; verify co-location by checking
	// every partition holds at most one distinct first byte... rather:
	// keys sharing a first byte are in the same partition.
	res, err := Run(context.Background(), &Job{
		Name:  "partition",
		Input: SliceInput([]KV{{[]byte("d"), []byte("aa ab ba bb ca")}}, 1),
		NewMapper: func() Mapper {
			return wcMapper{}
		},
		NewReducer:  func() Reducer { return sumReducer{} },
		Partition:   func(key []byte, r int) int { return int(key[0]) % r },
		NumReducers: 3,
		TempDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	firstByteToPart := make(map[byte]int)
	for p := 0; p < res.Output.NumPartitions(); p++ {
		p := p
		err := res.Output.Scan(p, func(k, v []byte) error {
			if prev, ok := firstByteToPart[k[0]]; ok && prev != p {
				t.Fatalf("first byte %c split across partitions %d and %d", k[0], prev, p)
			}
			firstByteToPart[k[0]] = p
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(firstByteToPart) != 3 {
		t.Fatalf("expected keys with 3 distinct first bytes, got %v", firstByteToPart)
	}
}

func TestMapOnlyJob(t *testing.T) {
	res, err := Run(context.Background(), &Job{
		Name:  "maponly",
		Input: SliceInput([]KV{{[]byte("k1"), []byte("v1")}, {[]byte("k2"), []byte("v2")}}, 2),
		NewMapper: func() Mapper {
			return MapperFunc(func(key, value []byte, emit Emit) error {
				return emit(append([]byte("out-"), key...), value)
			})
		},
		NumReducers: 2,
		TempDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := CollectDataset(res.Output)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if res.ReduceTasks != 0 {
		t.Fatalf("map-only job reports %d reduce tasks", res.ReduceTasks)
	}
}

type setupCleanupReducer struct {
	setup   bool
	cleaned *atomic.Int32
}

func (r *setupCleanupReducer) Setup(tc *TaskContext) error {
	if tc.Phase != "reduce" || tc.Partition < 0 {
		return fmt.Errorf("bad task context: %+v", tc)
	}
	if string(tc.SideData["flag"]) != "on" {
		return errors.New("side data missing")
	}
	r.setup = true
	return nil
}

func (r *setupCleanupReducer) Reduce(key []byte, values *Values, emit Emit) error {
	if !r.setup {
		return errors.New("Reduce before Setup")
	}
	for values.Next() {
	}
	return nil
}

func (r *setupCleanupReducer) Cleanup(emit Emit) error {
	r.cleaned.Add(1)
	return emit([]byte("flushed"), nil)
}

func TestSetupCleanupAndSideData(t *testing.T) {
	var cleaned atomic.Int32
	res, err := Run(context.Background(), &Job{
		Name:        "lifecycle",
		Input:       SliceInput([]KV{{[]byte("d"), []byte("a b c")}}, 1),
		NewMapper:   func() Mapper { return wcMapper{} },
		NewReducer:  func() Reducer { return &setupCleanupReducer{cleaned: &cleaned} },
		NumReducers: 3,
		SideData:    map[string][]byte{"flag": []byte("on")},
		TempDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cleaned.Load() != 3 {
		t.Fatalf("cleanup ran %d times, want 3 (one per reduce task)", cleaned.Load())
	}
	// Every reduce task emitted one "flushed" record in cleanup.
	recs, err := CollectDataset(res.Output)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range recs {
		if string(r.Key) == "flushed" {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("flushed records = %d, want 3", n)
	}
}

func TestMapperErrorPropagates(t *testing.T) {
	wantErr := errors.New("boom")
	_, err := Run(context.Background(), &Job{
		Name:  "maperr",
		Input: SliceInput([]KV{{[]byte("k"), []byte("v")}}, 1),
		NewMapper: func() Mapper {
			return MapperFunc(func(key, value []byte, emit Emit) error { return wantErr })
		},
		NewReducer: func() Reducer { return sumReducer{} },
		TempDir:    t.TempDir(),
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrapped %v", err, wantErr)
	}
}

func TestReducerPanicBecomesError(t *testing.T) {
	_, err := Run(context.Background(), &Job{
		Name:      "panic",
		Input:     SliceInput([]KV{{[]byte("k"), []byte("a b")}}, 1),
		NewMapper: func() Mapper { return wcMapper{} },
		NewReducer: func() Reducer {
			return ReducerFunc(func(key []byte, values *Values, emit Emit) error {
				panic("kaboom")
			})
		},
		TempDir: t.TempDir(),
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, &Job{
		Name:       "cancelled",
		Input:      SliceInput([]KV{{[]byte("k"), []byte("a")}}, 1),
		NewMapper:  func() Mapper { return wcMapper{} },
		NewReducer: func() Reducer { return sumReducer{} },
		TempDir:    t.TempDir(),
	})
	if err == nil {
		t.Fatal("expected error from cancelled context")
	}
}

func TestMapSlotsBoundConcurrency(t *testing.T) {
	var cur, max atomic.Int32
	const slots = 2
	recs := make([]KV, 16)
	for i := range recs {
		recs[i] = KV{[]byte(fmt.Sprint(i)), []byte("x")}
	}
	_, err := Run(context.Background(), &Job{
		Name:  "slots",
		Input: SliceInput(recs, 16),
		NewMapper: func() Mapper {
			return MapperFunc(func(key, value []byte, emit Emit) error {
				n := cur.Add(1)
				for {
					m := max.Load()
					if n <= m || max.CompareAndSwap(m, n) {
						break
					}
				}
				defer cur.Add(-1)
				// Give other tasks a chance to overlap.
				for i := 0; i < 1000; i++ {
					_ = i
				}
				return emit(key, value)
			})
		},
		NewReducer: func() Reducer { return sumReducer{} },
		MapSlots:   slots,
		TempDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if max.Load() > slots {
		t.Fatalf("observed %d concurrent map tasks, slots = %d", max.Load(), slots)
	}
}

func TestShuffleSpillsStillCorrect(t *testing.T) {
	// A tiny shuffle budget forces disk spills; results must not change.
	rng := rand.New(rand.NewSource(9))
	var docs []string
	wantTotal := 0
	for i := 0; i < 30; i++ {
		n := 50 + rng.Intn(50)
		wantTotal += n
		docs = append(docs, strings.Repeat(fmt.Sprintf("w%d ", i%7), n/1)[:0]+strings.Repeat(fmt.Sprintf("w%d ", i%7), n))
	}
	// Each doc i contributes n occurrences of w(i%7)... recompute exact.
	counts := map[string]uint64{}
	for _, d := range docs {
		for _, w := range strings.Fields(d) {
			counts[w]++
		}
	}
	res, err := Run(context.Background(), &Job{
		Name:          "spilling",
		Input:         wordCountInput(docs, 4),
		NewMapper:     func() Mapper { return wcMapper{} },
		NewReducer:    func() Reducer { return sumReducer{} },
		NumReducers:   2,
		ShuffleMemory: 1, // clamped up to the 64 KiB per-task floor
		TempDir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := collectCounts(t, res.Output)
	for k, v := range counts {
		if got[k] != v {
			t.Fatalf("count[%s] = %d, want %d", k, got[k], v)
		}
	}
}

func TestFileSink(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(context.Background(), &Job{
		Name:        "filesink",
		Input:       wordCountInput([]string{"a b a", "b b c"}, 2),
		NewMapper:   func() Mapper { return wcMapper{} },
		NewReducer:  func() Reducer { return sumReducer{} },
		NumReducers: 2,
		Sink:        FileSinkFactory(dir),
		TempDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := collectCounts(t, res.Output)
	want := map[string]uint64{"a": 2, "b": 3, "c": 1}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%s] = %d, want %d", k, got[k], v)
		}
	}
	if res.Output.Records() != 3 {
		t.Fatalf("Records = %d, want 3", res.Output.Records())
	}
	if err := res.Output.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetInputChaining(t *testing.T) {
	// Job 1: word count. Job 2: filter counts >= 2. Chained via
	// DatasetInput, as APRIORI iterations chain.
	d := NewDriver()
	res1, err := d.Run(context.Background(), &Job{
		Name:        "chain-1",
		Input:       wordCountInput([]string{"a b a c", "b a b"}, 2),
		NewMapper:   func() Mapper { return wcMapper{} },
		NewReducer:  func() Reducer { return sumReducer{} },
		NumReducers: 2,
		TempDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := d.Run(context.Background(), &Job{
		Name:  "chain-2",
		Input: DatasetInput(res1.Output),
		NewMapper: func() Mapper {
			return MapperFunc(func(key, value []byte, emit Emit) error {
				if v, _ := encoding.Uvarint(value); v >= 2 {
					return emit(key, value)
				}
				return nil
			})
		},
		NewReducer:  func() Reducer { return sumReducer{} },
		NumReducers: 1,
		TempDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := collectCounts(t, res2.Output)
	want := map[string]uint64{"a": 3, "b": 3}
	if len(got) != len(want) || got["a"] != 3 || got["b"] != 3 {
		t.Fatalf("got %v, want %v", got, want)
	}
	// Driver aggregates counters over both jobs.
	if n := d.Aggregate.Get(CounterLaunchedJobs); n != 2 {
		t.Fatalf("LAUNCHED_JOBS = %d, want 2", n)
	}
	one := res1.Counters.Get(CounterMapOutputRecords)
	two := res2.Counters.Get(CounterMapOutputRecords)
	if agg := d.Aggregate.Get(CounterMapOutputRecords); agg != one+two {
		t.Fatalf("aggregate MAP_OUTPUT_RECORDS = %d, want %d", agg, one+two)
	}
	if len(d.JobResults) != 2 || d.Wallclock() <= 0 {
		t.Fatalf("driver bookkeeping wrong: %d jobs, wallclock %v", len(d.JobResults), d.Wallclock())
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := Run(context.Background(), &Job{
		Name:        "empty",
		Input:       SliceInput(nil, 4),
		NewMapper:   func() Mapper { return wcMapper{} },
		NewReducer:  func() Reducer { return sumReducer{} },
		NumReducers: 2,
		TempDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Records() != 0 {
		t.Fatalf("expected empty output, got %d records", res.Output.Records())
	}
}

func TestMissingConfig(t *testing.T) {
	if _, err := Run(context.Background(), &Job{Name: "nin", NewMapper: func() Mapper { return wcMapper{} }}); err == nil {
		t.Fatal("expected error for missing input")
	}
	if _, err := Run(context.Background(), &Job{Name: "nmap", Input: SliceInput(nil, 1)}); err == nil {
		t.Fatal("expected error for missing mapper")
	}
}

func TestCountersMergeAndSnapshot(t *testing.T) {
	a := NewCounters()
	a.Add("X", 5)
	a.Add("Y", 1)
	b := NewCounters()
	b.Add("X", 2)
	b.Add("Z", 7)
	a.Merge(b)
	if a.Get("X") != 7 || a.Get("Y") != 1 || a.Get("Z") != 7 {
		t.Fatalf("merge wrong: %v", a.Snapshot())
	}
	s := a.String()
	if !strings.Contains(s, "X=7") || !strings.Contains(s, "Z=7") {
		t.Fatalf("String() = %q", s)
	}
	a.Merge(nil) // must not panic
}

func TestValuesDrainedWhenReducerSkips(t *testing.T) {
	// A reducer that never consumes its values must not corrupt group
	// iteration.
	var mu sync.Mutex
	var keys []string
	_, err := Run(context.Background(), &Job{
		Name:      "skip",
		Input:     SliceInput([]KV{{[]byte("d"), []byte("a a b b c")}}, 1),
		NewMapper: func() Mapper { return wcMapper{} },
		NewReducer: func() Reducer {
			return ReducerFunc(func(key []byte, values *Values, emit Emit) error {
				mu.Lock()
				keys = append(keys, string(key))
				mu.Unlock()
				return nil // skip values entirely
			})
		},
		NumReducers: 1,
		TempDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	if fmt.Sprint(keys) != fmt.Sprint([]string{"a", "b", "c"}) {
		t.Fatalf("keys = %v", keys)
	}
}
