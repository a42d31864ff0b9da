package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"ngramstats/internal/mapreduce"
	"ngramstats/internal/synth"
)

// collectResult copies every partition's records of a run's dataset,
// in partition and record order, for byte-exact comparison.
func collectResult(t *testing.T, run *Run) [][]mapreduce.KV {
	t.Helper()
	d := run.Result.Dataset()
	out := make([][]mapreduce.KV, d.NumPartitions())
	for p := 0; p < d.NumPartitions(); p++ {
		err := d.Scan(p, func(k, v []byte) error {
			out[p] = append(out[p], mapreduce.KV{
				Key:   append([]byte(nil), k...),
				Value: append([]byte(nil), v...),
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// equivalenceBackends are the runner addresses the golden matrix holds
// to the "local" reference: every cell must be byte-identical whether
// tasks run as goroutines or in spawned workers behind an HTTP
// coordinator, however that coordinator was addressed.
var equivalenceBackends = []string{"process", "net://127.0.0.1:0?spawn=2"}

func mustRunner(t *testing.T, address string, workers, attempts int) mapreduce.Runner {
	t.Helper()
	r, err := mapreduce.NewRunner(address, workers, attempts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunnerEquivalenceGoldenMatrix runs a fig7-style workload (synth
// NYT sample, σ=5, combiner on) for every method × aggregation cell
// under every alternate backend and asserts byte-identical result
// records plus equal record/n-gram counters against the LocalRunner.
// Only SUFFIX-σ consumes the aggregation; the other methods must be
// invariant to it, which the matrix verifies for free.
func TestRunnerEquivalenceGoldenMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns many worker processes")
	}
	col := synth.Generate(synth.NYTLike(90, 11))
	aggs := []AggregationKind{AggCount, AggTimeSeries, AggDocIndex}
	for _, m := range Methods() {
		for _, agg := range aggs {
			m, agg := m, agg
			t.Run(fmt.Sprintf("%s/%v", m, agg), func(t *testing.T) {
				mkParams := func(r mapreduce.Runner) Params {
					return Params{
						Tau:         5,
						Sigma:       5,
						NumReducers: 4,
						InputSplits: 4,
						Combiner:    true,
						Aggregation: agg,
						TempDir:     t.TempDir(),
						Runner:      r,
					}
				}
				local, err := Compute(context.Background(), col, m, mkParams(mustRunner(t, "local", 0, 0)))
				if err != nil {
					t.Fatal(err)
				}
				if got := local.Counters.Get(mapreduce.CounterWorkerProcs); got != 0 {
					t.Fatalf("local run spawned %d worker processes", got)
				}
				lp := collectResult(t, local)

				for _, backend := range equivalenceBackends {
					alt, err := Compute(context.Background(), col, m, mkParams(mustRunner(t, backend, 2, 0)))
					if err != nil {
						t.Fatalf("%s: %v", backend, err)
					}
					if got := alt.Counters.Get(mapreduce.CounterWorkerProcs); got == 0 {
						t.Fatalf("%s run spawned no worker processes (fell back to local?)", backend)
					}

					pp := collectResult(t, alt)
					if len(lp) != len(pp) {
						t.Fatalf("partitions: local %d, %s %d", len(lp), backend, len(pp))
					}
					for p := range lp {
						if len(lp[p]) != len(pp[p]) {
							t.Fatalf("partition %d: local %d records, %s %d", p, len(lp[p]), backend, len(pp[p]))
						}
						for i := range lp[p] {
							if !bytes.Equal(lp[p][i].Key, pp[p][i].Key) || !bytes.Equal(lp[p][i].Value, pp[p][i].Value) {
								t.Fatalf("partition %d record %d differs:\nlocal (%x, %x)\n%s (%x, %x)",
									p, i, lp[p][i].Key, lp[p][i].Value, backend, pp[p][i].Key, pp[p][i].Value)
							}
						}
					}
					if l, p := local.Result.Len(), alt.Result.Len(); l != p {
						t.Errorf("n-grams: local %d, %s %d", l, backend, p)
					}
					for _, name := range []string{
						mapreduce.CounterMapInputRecords, mapreduce.CounterMapOutputRecords,
						mapreduce.CounterReduceInputGroups, mapreduce.CounterReduceOutputRecs,
					} {
						if l, p := local.Counters.Get(name), alt.Counters.Get(name); l != p {
							t.Errorf("%s: local %d, %s %d", name, l, backend, p)
						}
					}
					if l, p := local.Jobs, alt.Jobs; l != p {
						t.Errorf("jobs launched: local %d, %s %d", l, backend, p)
					}
					if err := alt.Result.Release(); err != nil {
						t.Fatal(err)
					}
				}
				if err := local.Result.Release(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestWorkerCrashRetryOnRealWorkload injects a first-attempt worker
// crash into map task 1 of a SUFFIX-σ run — the worker dies mid-job,
// its shuffle service with it — and asserts the job is retried,
// succeeds, and still matches the local result exactly.
func TestWorkerCrashRetryOnRealWorkload(t *testing.T) {
	col := synth.Generate(synth.NYTLike(60, 23))
	mkParams := func(r mapreduce.Runner) Params {
		return Params{
			Tau: 3, Sigma: 4, NumReducers: 3, InputSplits: 3,
			Combiner: true, TempDir: t.TempDir(), Runner: r,
		}
	}
	local, err := Compute(context.Background(), col, SuffixSigma, mkParams(mapreduce.LocalRunner{}))
	if err != nil {
		t.Fatal(err)
	}
	lm, err := local.Result.CountMap()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(mapreduce.WorkerCrashEnv, "map:1")
	for _, backend := range equivalenceBackends {
		t.Run(backend, func(t *testing.T) {
			alt, err := Compute(context.Background(), col, SuffixSigma, mkParams(mustRunner(t, backend, 2, 3)))
			if err != nil {
				t.Fatalf("job did not survive a crashed worker: %v", err)
			}
			if got := alt.Counters.Get(mapreduce.CounterTasksRetried); got < 1 {
				t.Errorf("TASKS_RETRIED = %d, want >= 1", got)
			}
			am, err := alt.Result.CountMap()
			if err != nil {
				t.Fatal(err)
			}
			if len(lm) != len(am) {
				t.Fatalf("n-grams: local %d, %s-with-crash %d", len(lm), backend, len(am))
			}
			for k, v := range lm {
				if am[k] != v {
					t.Fatalf("cf(%x): local %d, %s-with-crash %d", k, v, backend, am[k])
				}
			}
		})
	}
}
