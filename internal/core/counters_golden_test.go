package core

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"ngramstats/internal/mapreduce"
	"ngramstats/internal/synth"
)

// countersGolden holds the counter sets recorded at the commit before
// map tasks kept their own tallies (PR 17): the task loop may be
// rearranged at will, what it counts may not move. Re-record with
// NGRAMS_UPDATE_GOLDEN=1 only when a counter's meaning changes on
// purpose.
const countersGolden = "testdata/counters.golden"

// scheduleDependent names the counters that read the clock or depend
// on how the coordinator happened to schedule attempts.
func scheduleDependent(name string) bool {
	switch name {
	case mapreduce.CounterWorkerProcs, mapreduce.CounterTasksRetried, mapreduce.CounterNetWorkers,
		mapreduce.CounterTasksSpeculated, mapreduce.CounterLeasesExpired, mapreduce.CounterShuffleFetchBytes:
		return true
	}
	return strings.HasSuffix(name, "_MILLIS") || strings.HasSuffix(name, "_MICROS")
}

// TestCountersMatchRecorded runs every method with the combiner on and
// off on one fixed corpus that fits the shuffle budget, in-process and
// in spawned workers, and holds the full sorted counter set of each
// run to the recorded one, digit for digit.
func TestCountersMatchRecorded(t *testing.T) {
	col := synth.Generate(synth.NYTLike(90, 11))
	backends := []string{"local", "process"}
	localOnly := testing.Short() || raceEnabled // the other spawns worker processes, slow under -race
	if localOnly {
		backends = backends[:1]
	}
	var got strings.Builder
	for _, backend := range backends {
		for _, m := range Methods() {
			for _, combiner := range []bool{true, false} {
				run, err := Compute(context.Background(), col, m, Params{
					Tau: 5, Sigma: 5, NumReducers: 4, InputSplits: 4, MapSlots: 2, ReduceSlots: 2,
					Combiner: combiner, TempDir: t.TempDir(), Runner: mustRunner(t, backend, 2, 0),
				})
				if err != nil {
					t.Fatalf("%s %s combiner=%v: %v", backend, m, combiner, err)
				}
				fmt.Fprintf(&got, "== %s %s combiner=%v\n", backend, m, combiner)
				for _, cv := range run.Counters.Sorted() {
					if !scheduleDependent(cv.Name) {
						fmt.Fprintf(&got, "%s=%d\n", cv.Name, cv.Value)
					}
				}
				if err := run.Result.Release(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if os.Getenv("NGRAMS_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(countersGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	recorded, err := os.ReadFile(countersGolden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(recorded), "\n")
	if localOnly && len(wl) > len(gl) {
		wl = append(wl[:len(gl)-1], "") // the file's leading, local half
	}
	section := ""
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w := "<end>", "<end>"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.HasPrefix(g, "==") {
			section = g
		}
		if g != w {
			t.Fatalf("%s: line %d: got %q, recorded %q", section, i+1, g, w)
		}
	}
}
