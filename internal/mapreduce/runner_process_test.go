package mapreduce

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The test programs below are registered process-global: the test
// binary doubles as the worker binary (TestMain calls
// RunWorkerIfRequested), so a re-executed worker finds the same
// registry.

// wcProgram is a registered word-count job: the mapper splits values
// into words, the reducer sums unit counts.
const wcProgram = "mapreduce-test/wordcount"

// gatedWCProgram is wcProgram whose map tasks rendezvous before their
// first record (config: gateConfig). A worker runs one task at a time,
// so the job cannot finish before Workers workers have joined and
// leased a map task each — however much sooner the first of them was
// up — while its output stays that of wcProgram.
const gatedWCProgram = "mapreduce-test/wordcount-gated"

type gateConfig struct {
	Dir     string `json:"dir"`
	Workers int    `json:"workers"`
}

// slowProgram is a registered identity job whose mapper and reducer
// sleep per record, so tests can cancel a job reliably mid-phase. Its
// config is slowConfig.
const slowProgram = "mapreduce-test/slow"

// tagProgram is a registered map-only job: an identity mapper with no
// reducer.
const tagProgram = "mapreduce-test/tag"

type slowConfig struct {
	SleepPerRecord time.Duration `json:"sleep_per_record"`
}

func init() {
	RegisterProgram(tagProgram, func(config []byte) (*Job, error) {
		return &Job{
			NewMapper: func() Mapper {
				return MapperFunc(func(key, value []byte, emit Emit) error {
					return emit(key, value)
				})
			},
		}, nil
	})
	RegisterProgram(wcProgram, func(config []byte) (*Job, error) { return wordCount(), nil })
	RegisterProgram(gatedWCProgram, func(config []byte) (*Job, error) {
		var gate gateConfig
		if err := json.Unmarshal(config, &gate); err != nil {
			return nil, err
		}
		job := wordCount()
		newMapper := job.NewMapper
		job.NewMapper = func() Mapper {
			m := newMapper()
			var once sync.Once
			var gateErr error
			return MapperFunc(func(key, value []byte, emit Emit) error {
				if once.Do(func() { gateErr = gate.await() }); gateErr != nil {
					return gateErr
				}
				return m.Map(key, value, emit)
			})
		}
		return job, nil
	})
	RegisterProgram(slowProgram, func(config []byte) (*Job, error) {
		var cfg slowConfig
		if err := json.Unmarshal(config, &cfg); err != nil {
			return nil, err
		}
		return &Job{
			NewMapper: func() Mapper {
				return MapperFunc(func(key, value []byte, emit Emit) error {
					time.Sleep(cfg.SleepPerRecord)
					return emit(key, value)
				})
			},
			NewReducer: func() Reducer {
				return ReducerFunc(func(key []byte, values *Values, emit Emit) error {
					for values.Next() {
						time.Sleep(cfg.SleepPerRecord)
						if err := emit(key, values.Value()); err != nil {
							return err
						}
					}
					return nil
				})
			},
		}, nil
	})
}

// wordCount is the word-count job: the mapper splits values into words,
// the reducer sums unit counts.
func wordCount() *Job {
	return &Job{
		NewMapper: func() Mapper {
			return MapperFunc(func(key, value []byte, emit Emit) error {
				for _, w := range strings.Fields(string(value)) {
					if err := emit([]byte(w), []byte("1")); err != nil {
						return err
					}
				}
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(key []byte, values *Values, emit Emit) error {
				var n int64
				for values.Next() {
					v, err := strconv.ParseInt(string(values.Value()), 10, 64)
					if err != nil {
						return err
					}
					n += v
				}
				return emit(key, []byte(strconv.FormatInt(n, 10)))
			})
		},
	}
}

// await is one map task arriving at the gate: it drops a file into Dir
// and waits until Workers tasks have done so.
func (g gateConfig) await() error {
	f, err := os.CreateTemp(g.Dir, "arrived-*")
	if err != nil {
		return err
	}
	f.Close()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		arrived, err := os.ReadDir(g.Dir)
		if err != nil {
			return err
		}
		if len(arrived) >= g.Workers {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gate: %d of %d workers arrived in 20s", len(arrived), g.Workers)
		}
	}
}

// gatedWCJob is wcJob under gatedWCProgram, with a fresh gate that
// opens once `workers` workers hold a map task.
func gatedWCJob(t *testing.T, runner Runner, workers int) *Job {
	t.Helper()
	cfg, err := json.Marshal(gateConfig{Dir: t.TempDir(), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	job := wcJob(t, runner)
	job.Spec = &Spec{Program: gatedWCProgram, Config: cfg}
	return job
}

// wcInput builds a deterministic multi-split word corpus.
func wcInput(docs, splits int) Input {
	var recs []KV
	for i := 0; i < docs; i++ {
		text := fmt.Sprintf("the quick fox %d jumps over the lazy dog the end", i%7)
		recs = append(recs, KV{Key: []byte(fmt.Sprintf("doc-%04d", i)), Value: []byte(text)})
	}
	return SliceInput(recs, splits)
}

func wcJob(t *testing.T, runner Runner) *Job {
	t.Helper()
	return &Job{
		Name:        "wc",
		Input:       wcInput(60, 6),
		Spec:        &Spec{Program: wcProgram},
		NumReducers: 4,
		MapSlots:    2,
		ReduceSlots: 2,
		TempDir:     t.TempDir(),
		Runner:      runner,
	}
}

// collectPartitions returns every partition's records in order, for
// byte-exact dataset comparison.
func collectPartitions(t *testing.T, d Dataset) [][]KV {
	t.Helper()
	out := make([][]KV, d.NumPartitions())
	for p := 0; p < d.NumPartitions(); p++ {
		err := d.Scan(p, func(k, v []byte) error {
			out[p] = append(out[p], KV{append([]byte(nil), k...), append([]byte(nil), v...)})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// mustRunner builds a backend from its address, the way every caller
// outside this package does.
func mustRunner(t *testing.T, address string, workers, attempts int) Runner {
	t.Helper()
	r, err := NewRunner(address, workers, attempts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// assertSameDataset compares two results partition by partition,
// record by record.
func assertSameDataset(t *testing.T, want, got *Result, wantName, gotName string) {
	t.Helper()
	wp, gp := collectPartitions(t, want.Output), collectPartitions(t, got.Output)
	if len(wp) != len(gp) {
		t.Fatalf("partitions: %s %d, %s %d", wantName, len(wp), gotName, len(gp))
	}
	for p := range wp {
		if len(wp[p]) != len(gp[p]) {
			t.Fatalf("partition %d: %s %d records, %s %d", p, wantName, len(wp[p]), gotName, len(gp[p]))
		}
		for i := range wp[p] {
			if !bytes.Equal(wp[p][i].Key, gp[p][i].Key) || !bytes.Equal(wp[p][i].Value, gp[p][i].Value) {
				t.Fatalf("partition %d record %d differs: %s (%q,%q) %s (%q,%q)",
					p, i, wantName, wp[p][i].Key, wp[p][i].Value, gotName, gp[p][i].Key, gp[p][i].Value)
			}
		}
	}
}

// TestRunnerAddressesMatchLocal is the runner-equivalence matrix keyed
// by address: every worker-spawning address produces byte-identical
// output, per partition and in order, with equal record counters — and
// the work really crossed process and network boundaries.
func TestRunnerAddressesMatchLocal(t *testing.T) {
	local, err := Run(context.Background(), wcJob(t, mustRunner(t, "local", 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{CounterWorkerProcs, CounterNetWorkers} {
		if got := local.Counters.Get(name); got != 0 {
			t.Errorf("local runner: %s = %d, want 0", name, got)
		}
	}
	for _, address := range []string{"process", "net://127.0.0.1:0?spawn=2"} {
		t.Run(address, func(t *testing.T) {
			// Gated, so the job provably ran on both spawned workers.
			alt, err := Run(context.Background(), gatedWCJob(t, mustRunner(t, address, 2, 0), 2))
			if err != nil {
				t.Fatal(err)
			}
			assertSameDataset(t, local, alt, "local", address)
			for _, name := range []string{
				CounterMapInputRecords, CounterMapOutputRecords, CounterMapOutputBytes,
				CounterReduceInputGroups, CounterReduceInputRecords, CounterReduceOutputRecs,
			} {
				if l, a := local.Counters.Get(name), alt.Counters.Get(name); l != a {
					t.Errorf("%s: local %d, %s %d", name, l, address, a)
				}
			}
			// A fault-free run spawns exactly its pool.
			if got := alt.Counters.Get(CounterWorkerProcs); got != 2 {
				t.Errorf("WORKER_PROCS = %d, want 2", got)
			}
			if got := alt.Counters.Get(CounterNetWorkers); got < 2 {
				t.Errorf("NET_WORKERS = %d, want >= 2", got)
			}
			if got := alt.Counters.Get(CounterTasksRetried); got != 0 {
				t.Errorf("TASKS_RETRIED = %d, want 0", got)
			}
			// Reduce inputs were pulled over HTTP from the shuffle services.
			if got := alt.Counters.Get(CounterShuffleFetchBytes); got == 0 {
				t.Error("SHUFFLE_FETCH_BYTES = 0, want > 0")
			}
			// The drained shuffle invariant holds across the wire.
			if w, r := alt.Counters.Get(CounterShuffleBytesWritten), alt.Counters.Get(CounterShuffleBytesRead); w == 0 || w != r {
				t.Errorf("shuffle bytes written/read = %d/%d, want equal and nonzero", w, r)
			}
		})
	}
}

// TestUnknownRunnerEnvFailsLoudly asserts a typo'd NGRAMS_RUNNER
// value errors instead of silently running in-process.
func TestUnknownRunnerEnvFailsLoudly(t *testing.T) {
	t.Setenv(RunnerEnv, "proces")
	job := wcJob(t, nil)
	_, err := Run(context.Background(), job)
	if err == nil || !strings.Contains(err.Error(), RunnerEnv) {
		t.Fatalf("want %s error, got %v", RunnerEnv, err)
	}
}

// slowJob builds a job that is guaranteed to be mid-phase for a while:
// many records, per-record sleeps, and a shuffle budget small enough
// to force on-disk spills into TempDir.
func slowJob(t *testing.T, runner Runner, tempDir string, progress Progress) *Job {
	t.Helper()
	var recs []KV
	payload := bytes.Repeat([]byte("x"), 256)
	for i := 0; i < 4000; i++ {
		recs = append(recs, KV{Key: []byte(fmt.Sprintf("key-%05d", i)), Value: payload})
	}
	cfg, _ := json.Marshal(slowConfig{SleepPerRecord: 100 * time.Microsecond})
	return &Job{
		Name:          "slow",
		Input:         SliceInput(recs, 8),
		Spec:          &Spec{Program: slowProgram, Config: cfg},
		NumReducers:   4,
		MapSlots:      2,
		ReduceSlots:   2,
		ShuffleMemory: 64 << 10, // minimum budget: every task spills
		TempDir:       tempDir,
		Runner:        runner,
		Progress:      progress,
	}
}

// cancelOnTaskDone cancels a context when the first task of the given
// phase completes, putting the cancellation reliably mid-phase.
type cancelOnTaskDone struct {
	phase  string
	cancel context.CancelFunc
}

func (c *cancelOnTaskDone) JobStart(JobInfo)          {}
func (c *cancelOnTaskDone) PhaseStart(string, string) {}
func (c *cancelOnTaskDone) JobDone(JobSummary)        {}
func (c *cancelOnTaskDone) TaskDone(job, phase string) {
	if phase == c.phase {
		c.cancel()
	}
}

// TestCancelLeavesNoScratchFiles cancels a job mid-map and mid-reduce
// under the local and the process address and asserts nothing is left
// under TempDir: neither partial spill/run files nor (with workers) the
// job's working directory and the worker scratch rooted in it.
func TestCancelLeavesNoScratchFiles(t *testing.T) {
	for _, address := range []string{"local", "process"} {
		for _, phase := range []string{"map", "reduce"} {
			t.Run(address+"-cancel-in-"+phase, func(t *testing.T) {
				dir := t.TempDir()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				job := slowJob(t, mustRunner(t, address, 2, 0), dir, &cancelOnTaskDone{phase: phase, cancel: cancel})
				_, err := Run(ctx, job)
				if err == nil {
					t.Fatal("cancelled job reported success")
				}
				entries, rerr := os.ReadDir(dir)
				if rerr != nil {
					t.Fatal(rerr)
				}
				var names []string
				for _, e := range entries {
					names = append(names, e.Name())
				}
				if len(names) != 0 {
					t.Fatalf("scratch files leaked after cancel: %v", names)
				}
			})
		}
	}
}
