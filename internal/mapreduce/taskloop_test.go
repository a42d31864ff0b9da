package mapreduce

// Tests for what a task keeps to itself: its tallies (folded into the
// job's counters when the task ends, however it ends) and its
// cancellation flag.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ngramstats/internal/encoding"
)

// countersOf captures the live counter group Run hands to Progress —
// the only view of a failed job's counters.
type countersOf struct{ c *Counters }

func (p *countersOf) JobStart(info JobInfo)     { p.c = info.Counters }
func (p *countersOf) PhaseStart(string, string) {}
func (p *countersOf) TaskDone(string, string)   {}
func (p *countersOf) JobDone(JobSummary)        {}

// TestFailedTaskTalliesAreMerged fails a mapper part-way through its
// split: what the task counted until then must still reach the job's
// counters.
func TestFailedTaskTalliesAreMerged(t *testing.T) {
	boom := errors.New("boom")
	var seen countersOf
	recs := make([]KV, 10)
	for i := range recs {
		recs[i] = KV{Key: []byte{byte(i)}, Value: []byte("v")}
	}
	_, err := Run(context.Background(), &Job{
		Name:  "fails-late",
		Input: SliceInput(recs, 1),
		NewMapper: func() Mapper {
			return MapperFunc(func(key, value []byte, emit Emit) error {
				if key[0] == 6 {
					return boom
				}
				for i := 0; i < 5; i++ {
					if err := emit([]byte{'k', byte(i)}, value); err != nil {
						return err
					}
				}
				return nil
			})
		},
		NewCombiner: func() Reducer { return sumReducer{} },
		NewReducer:  func() Reducer { return sumReducer{} },
		TempDir:     t.TempDir(),
		Progress:    &seen,
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	for name, want := range map[string]int64{
		CounterMapInputRecords:  7, // the failing record was read
		CounterMapOutputRecords: 30,
		CounterMapOutputBytes:   90,
	} {
		if got := seen.c.Get(name); got != want {
			t.Errorf("%s = %d after the failed task, want %d", name, got, want)
		}
	}
}

// TestMalformedKeysReportFullCount spreads unparseable keys over four
// map tasks: the check after the map phase must name their total, which
// it can only if every task's tally was merged by then.
func TestMalformedKeysReportFullCount(t *testing.T) {
	docs := []string{"ok bad1 ok", "bad2 bad3", "ok ok", "bad4 ok bad5 bad6"}
	_, err := Run(context.Background(), &Job{
		Name:       "malformed",
		Input:      wordCountInput(docs, 4),
		NewMapper:  func() Mapper { return wcMapper{} },
		NewReducer: func() Reducer { return sumReducer{} },
		Partition: func(key []byte, r int) int {
			if strings.HasPrefix(string(key), "bad") {
				return MalformedKeyPartition
			}
			return DefaultPartitioner(key, r)
		},
		TempDir: t.TempDir(),
	})
	if err == nil || !strings.Contains(err.Error(), "rejected 6 malformed") {
		t.Fatalf("err = %v, want the full count of 6 malformed keys", err)
	}
}

// TestCancelMidPhaseReturnsPromptly cancels a long job from inside its
// map, combine and reduce loops. The loops watch a task-local flag the
// context sets, so each must return context.Canceled within 100 ms of
// the cancel — far sooner than the work left — and remove the spill
// files the tiny shuffle budget made it write.
func TestCancelMidPhaseReturnsPromptly(t *testing.T) {
	var recs []KV
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		for w := 0; w < 100; w++ {
			fmt.Fprintf(&sb, "w%04d ", (i*37+w*11)%2000)
		}
		recs = append(recs, KV{Key: []byte(fmt.Sprint(i)), Value: []byte(sb.String())})
	}
	for _, phase := range []string{"map", "combine", "reduce"} {
		t.Run(phase, func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			var cancelledAt atomic.Pointer[time.Time]
			// hook slows the chosen loop down and cancels on its 100th
			// pass, leaving well over a second of work undone.
			hook := func(in string) {
				if in != phase {
					return
				}
				if calls.Add(1) == 100 {
					now := time.Now()
					cancelledAt.Store(&now)
					cancel()
				}
				time.Sleep(200 * time.Microsecond)
			}
			_, err := Run(ctx, &Job{
				Name:  "cancel-mid-" + phase,
				Input: SliceInput(recs, 4),
				NewMapper: func() Mapper {
					return MapperFunc(func(key, value []byte, emit Emit) error {
						hook("map")
						return wcMapper{}.Map(key, value, emit)
					})
				},
				NewCombiner: func() Reducer {
					return ReducerFunc(func(key []byte, values *Values, emit Emit) error {
						hook("combine")
						return sumReducer{}.Reduce(key, values, emit)
					})
				},
				NewReducer: func() Reducer {
					return ReducerFunc(func(key []byte, values *Values, emit Emit) error {
						hook("reduce")
						return sumReducer{}.Reduce(key, values, emit)
					})
				},
				NumReducers:   2,
				MapSlots:      2,
				ReduceSlots:   2,
				ShuffleMemory: 1, // the 64 KiB floor: every task spills
				TempDir:       dir,
			})
			returned := time.Now()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if at := cancelledAt.Load(); at == nil {
				t.Fatal("the job ended before the hook cancelled it")
			} else if late := returned.Sub(*at); late > 100*time.Millisecond {
				t.Fatalf("Run returned %v after the cancel, want <= 100ms", late)
			}
			left, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range left {
				if strings.HasPrefix(e.Name(), "extsort-spill-") {
					t.Fatalf("spill file %s survived the cancel (%d entries left)", e.Name(), len(left))
				}
			}
		})
	}
}

// TestSpillingCombinerMatchesNonSpilling runs one word count with a
// combiner under a budget that holds everything and under the floor
// budget: the spilling job combines once per run instead of once per
// partition, so it hands more records to the shuffle — and must produce
// the same output.
func TestSpillingCombinerMatchesNonSpilling(t *testing.T) {
	docs, want := goldenDocs(4, 8000, 300, 29)
	run := func(shuffleMemory int) *Result {
		t.Helper()
		res, err := Run(context.Background(), &Job{
			Name:          "combine-on-spill",
			Input:         wordCountInput(docs, 4),
			NewMapper:     func() Mapper { return wcMapper{} },
			NewCombiner:   func() Reducer { return sumReducer{} },
			NewReducer:    func() Reducer { return sumReducer{} },
			NumReducers:   3,
			ShuffleMemory: shuffleMemory,
			TempDir:       t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	whole, spilling := run(64<<20), run(1)
	if n := whole.Counters.Get(CounterSpilledRecords); n != 0 {
		t.Fatalf("reference job spilled %d records", n)
	}
	if n := spilling.Counters.Get(CounterSpilledRecords); n == 0 {
		t.Fatal("floor budget did not spill")
	}
	a, b := collectCounts(t, whole.Output), collectCounts(t, spilling.Output)
	if len(a) != len(want) || len(b) != len(want) {
		t.Fatalf("distinct words: %d and %d, want %d", len(a), len(b), len(want))
	}
	for k, v := range want {
		if a[k] != v || b[k] != v {
			t.Fatalf("count[%s] = %d whole, %d spilling, want %d", k, a[k], b[k], v)
		}
	}
	for _, name := range []string{CounterMapOutputRecords, CounterCombineInputRecs, CounterReduceInputGroups, CounterReduceOutputRecs} {
		if x, y := whole.Counters.Get(name), spilling.Counters.Get(name); x != y {
			t.Errorf("%s: %d whole, %d spilling", name, x, y)
		}
	}
	// Every spilled run was combined: what reached disk is the
	// combiner's output, not the mapper's.
	out, spilled := spilling.Counters.Get(CounterCombineOutputRecs), spilling.Counters.Get(CounterSpilledRecords)
	if out <= whole.Counters.Get(CounterCombineOutputRecs) || spilled > out {
		t.Fatalf("COMBINE_OUTPUT_RECORDS %d (whole %d), SPILLED_RECORDS %d", out, whole.Counters.Get(CounterCombineOutputRecs), spilled)
	}
}

// TestCombinerOutOfOrderEmitFailsJob: a combiner that emits a key
// sorting before its previous one breaks the run's order; the job must
// fail instead of handing the reducer a corrupt run.
func TestCombinerOutOfOrderEmitFailsJob(t *testing.T) {
	_, err := Run(context.Background(), &Job{
		Name:      "bad-combiner",
		Input:     wordCountInput([]string{"a b c"}, 1),
		NewMapper: func() Mapper { return wcMapper{} },
		NewCombiner: func() Reducer {
			return ReducerFunc(func(key []byte, values *Values, emit Emit) error {
				return emit([]byte{'z' - key[0]}, encoding.AppendUvarint(nil, 1))
			})
		},
		NewReducer:  func() Reducer { return sumReducer{} },
		NumReducers: 1,
		TempDir:     t.TempDir(),
	})
	if err == nil || !strings.Contains(err.Error(), "out of sort order") {
		t.Fatalf("err = %v, want an out-of-order combiner error", err)
	}
}
