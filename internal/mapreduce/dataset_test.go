package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func mkKV(k, v string) KV { return KV{Key: []byte(k), Value: []byte(v)} }

func TestMemDatasetBasics(t *testing.T) {
	d := NewMemDataset([][]KV{
		{mkKV("a", "1"), mkKV("b", "2")},
		nil,
		{mkKV("c", "3")},
	})
	if d.NumPartitions() != 3 {
		t.Fatalf("NumPartitions = %d", d.NumPartitions())
	}
	if d.Records() != 3 {
		t.Fatalf("Records = %d", d.Records())
	}
	var got []string
	for p := 0; p < d.NumPartitions(); p++ {
		err := d.Scan(p, func(k, v []byte) error {
			got = append(got, string(k)+"="+string(v))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(got) != "[a=1 b=2 c=3]" {
		t.Fatalf("scan = %v", got)
	}
	if err := d.Scan(99, func(k, v []byte) error { return nil }); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	if len(d.Partition(0)) != 2 {
		t.Fatalf("Partition(0) = %v", d.Partition(0))
	}
	if err := d.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestScanStopsOnError(t *testing.T) {
	d := NewMemDataset([][]KV{{mkKV("a", "1"), mkKV("b", "2")}})
	boom := errors.New("boom")
	n := 0
	err := d.Scan(0, func(k, v []byte) error {
		n++
		return boom
	})
	if !errors.Is(err, boom) || n != 1 {
		t.Fatalf("err=%v n=%d", err, n)
	}
}

func TestConcatDatasets(t *testing.T) {
	a := NewMemDataset([][]KV{{mkKV("a", "1")}, {mkKV("b", "2")}})
	b := NewMemDataset([][]KV{{mkKV("c", "3")}})
	c := ConcatDatasets(a, b)
	if c.NumPartitions() != 3 {
		t.Fatalf("NumPartitions = %d", c.NumPartitions())
	}
	if c.Records() != 3 {
		t.Fatalf("Records = %d", c.Records())
	}
	recs, err := CollectDataset(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || string(recs[2].Key) != "c" {
		t.Fatalf("collected %v", recs)
	}
	if err := c.Scan(3, func(k, v []byte) error { return nil }); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	if err := c.Release(); err != nil {
		t.Fatal(err)
	}
	// Single-dataset concat returns the dataset itself.
	if ConcatDatasets(a) != Dataset(a) {
		t.Fatal("single concat should be identity")
	}
}

func TestPhaseTimingCounters(t *testing.T) {
	res, err := Run(context.Background(), &Job{
		Name:        "timing",
		Input:       SliceInput([]KV{mkKV("d", "x y z")}, 1),
		NewMapper:   func() Mapper { return wcMapper{} },
		NewReducer:  func() Reducer { return sumReducer{} },
		NumReducers: 2,
		TempDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Phases complete in under a millisecond here, so only presence of
	// the counters (≥ 0) and their sum ≤ wallclock is checkable.
	m := res.Counters.Get(CounterMapPhaseMillis)
	r := res.Counters.Get(CounterReducePhaseMillis)
	if m < 0 || r < 0 {
		t.Fatalf("negative phase timings: %d %d", m, r)
	}
	if m+r > res.Wallclock.Milliseconds()+1 {
		t.Fatalf("phases (%d+%d ms) exceed wallclock %v", m, r, res.Wallclock)
	}
	s := Summary("x", res)
	if s.MapTasks != 1 || s.ReduceTasks != 2 || s.InputRecords != 1 || s.MapOutRecords != 3 || s.OutputRecords != 3 {
		t.Fatalf("summary = %+v", s)
	}
}
