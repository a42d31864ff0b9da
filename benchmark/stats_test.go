package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
}

// A run's value is its least disturbed sample.
func TestBest(t *testing.T) {
	xs := []float64{10, 3, 2, 7, 60, 70}
	if got := best(xs, false); got != 2 {
		t.Errorf("best(lower is better) = %v, want 2", got)
	}
	if got := best(xs, true); got != 70 {
		t.Errorf("best(higher is better) = %v, want 70", got)
	}
	if best([]float64{7}, false) != 7 || best(nil, true) != 0 {
		t.Error("best of one sample is not that sample, or best of none is not 0")
	}
}

// serving.lookup_p99_us is sampled as the 99th percentiles of equal segments.
func TestSegmentMedian(t *testing.T) {
	xs := make([]float64, 1003) // not a multiple of 5: lengths 200, 201, 200, 201, 201
	for i := range xs {
		xs[i] = float64(i)
	}
	segs := segments(xs, 5)
	var total int
	var p99s []float64
	for i, seg := range segs {
		if len(seg) != 200 && len(seg) != 201 {
			t.Errorf("segment %d has %d of 1003 samples", i, len(seg))
		}
		if total < len(xs) && seg[0] != xs[total] {
			t.Errorf("segment %d starts at %v, want %v: samples lost or reordered", i, seg[0], xs[total])
		}
		total += len(seg)
		p99s = append(p99s, percentile(seg, 0.99))
	}
	if total != len(xs) {
		t.Errorf("segments hold %d of %d samples", total, len(xs))
	}
	// Segment 2 is xs[401:601]; its nearest-rank p99 is the 198th of 200.
	if got := median(p99s); got != 598 {
		t.Errorf("median of the segments' p99s = %v, want 598", got)
	}
	// One stalled segment moves one of five values, not their median.
	for i := 800; i < 1003; i++ {
		xs[i] = 1e6
	}
	p99s = p99s[:0]
	for _, seg := range segments(xs, 5) {
		p99s = append(p99s, percentile(seg, 0.99))
	}
	if got := median(p99s); got != 598 {
		t.Errorf("median of the segments' p99s with one stalled segment = %v, want 598", got)
	}
	if got := segments(nil, 5); len(got) != 5 || len(got[0]) != 0 {
		t.Errorf("segments of nothing = %v, want five empty ones", got)
	}
}

// The wanted values are what Python prints for
// statistics.quantiles([...], n=4) on the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 2, 7})
	if !near(q1, 2) || !near(q2, 7) || !near(q3, 10) {
		t.Errorf("quartiles(10 2 7) = %v %v %v, want 2 7 10", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1})
	if !near(q1, 0.5) || !near(q2, 2) || !near(q3, 3.5) {
		t.Errorf("quartiles(3 1) = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	parent := &span{start: ms(0), end: ms(100)}
	kids := []*span{
		{start: ms(10), end: ms(30)},
		{start: ms(20), end: ms(50)},   // overlaps the first: covered once
		{start: ms(90), end: ms(120)},  // runs past the parent: clipped
		{start: ms(200), end: ms(300)}, // outside: ignored
	}
	if got := selfTime(parent, kids); got != ms(50) {
		t.Errorf("selfTime = %v, want 50ms", got)
	}
	if got := selfTime(parent, nil); got != ms(100) {
		t.Errorf("selfTime without children = %v, want 100ms", got)
	}
}

func TestTracerSelfTimesByLayer(t *testing.T) {
	tr := newTracer()
	rep := tr.begin(nil, "bench.build", 0)
	a := tr.begin(rep, "corpus.ingest", 0)
	a.finish()
	b := tr.begin(rep, "core.count", 0)
	b.finish()
	rep.finish()
	// Fix the clock readings so the arithmetic is exact.
	rep.start, rep.end = 0, 100
	a.start, a.end = 0, 30
	b.start, b.end = 30, 90
	got := tr.selfTimes()
	if got["bench"] != 10 || got["corpus"] != 30 || got["core"] != 60 {
		t.Errorf("selfTimes = %v, want bench 10 corpus 30 core 60", got)
	}
	var off *tracer
	if sp := off.begin(nil, "x.y", 0); sp != nil {
		t.Error("a nil tracer recorded a span")
	}
}
