package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ngramstats/internal/encoding"
)

// randomCell builds a random cell of the given kind from singleton
// additions, returning also the singleton values used.
func randomCell(t *testing.T, kind AggregationKind, rng *rand.Rand, n int) (Aggregate, [][]byte) {
	t.Helper()
	cell := newAggregate(kind)
	var singletons [][]byte
	for i := 0; i < n; i++ {
		meta := &docMeta{docID: int64(rng.Intn(5)), year: 1990 + rng.Intn(5)}
		v := appendMapValue(nil, kind, meta)
		singletons = append(singletons, v)
		if err := cell.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return cell, singletons
}

// TestCellEncodeDecodeRoundTrip: Encode∘Add is the identity on cells of
// every kind — the property that lets combiner output feed reducers
// unchanged.
func TestCellEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []AggregationKind{AggCount, AggTimeSeries, AggDocIndex} {
		for trial := 0; trial < 100; trial++ {
			cell, _ := randomCell(t, kind, rng, 1+rng.Intn(10))
			enc := cell.Encode()
			back, err := decodeAggregate(kind, enc)
			if err != nil {
				t.Fatalf("%v: decode: %v", kind, err)
			}
			if back.Frequency() != cell.Frequency() {
				t.Fatalf("%v: frequency changed in round trip", kind)
			}
			if !reflect.DeepEqual(back.Encode(), enc) {
				t.Fatalf("%v: re-encode differs", kind)
			}
		}
	}
}

// TestCellResetAndAppendEncode: a recycled cell is indistinguishable
// from a fresh one — also after holding enough documents that Reset
// drops its map — and AppendEncode appends exactly what Encode returns.
func TestCellResetAndAppendEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, kind := range []AggregationKind{AggCount, AggTimeSeries, AggDocIndex} {
		reused := newAggregate(kind)
		for trial := 0; trial < 100; trial++ {
			fresh, singles := randomCell(t, kind, rng, 1+rng.Intn(10))
			if trial%10 == 0 { // a large group first
				for doc := 0; doc < 100; doc++ {
					if err := reused.Add(appendMapValue(nil, kind, &docMeta{docID: int64(doc), year: 1900 + doc})); err != nil {
						t.Fatal(err)
					}
				}
			}
			reused.Reset()
			if f := reused.Frequency(); f != 0 {
				t.Fatalf("%v: frequency %d after Reset", kind, f)
			}
			for _, v := range singles {
				if err := reused.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			want := fresh.Encode()
			if got := reused.AppendEncode([]byte("prefix")); string(got) != "prefix"+string(want) {
				t.Fatalf("%v: recycled cell encodes %x, fresh cell %x", kind, got, want)
			}
		}
	}
}

// TestCellMergeOrderIndependence: merging cells in any order and
// grouping yields the same aggregate — the algebraic requirement for
// combiners and for the lazy stack merging of SUFFIX-σ.
func TestCellMergeOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, kind := range []AggregationKind{AggCount, AggTimeSeries, AggDocIndex} {
		for trial := 0; trial < 60; trial++ {
			_, singles := randomCell(t, kind, rng, 2+rng.Intn(8))
			// Left fold.
			left := newAggregate(kind)
			for _, v := range singles {
				if err := left.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			// Random grouping into two cells, then merge.
			a := newAggregate(kind)
			bCell := newAggregate(kind)
			for _, v := range singles {
				target := a
				if rng.Intn(2) == 0 {
					target = bCell
				}
				if err := target.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			a.Merge(bCell)
			if !reflect.DeepEqual(a.Encode(), left.Encode()) {
				t.Fatalf("%v: grouped merge differs from fold", kind)
			}
		}
	}
}

// TestCountCellQuick uses testing/quick for the count cell: frequency
// is the sum of added weights.
func TestCountCellQuick(t *testing.T) {
	f := func(weights []uint16) bool {
		cell := newAggregate(AggCount)
		var want int64
		for _, w := range weights {
			v := encoding.AppendUvarint(nil, uint64(w))
			if err := cell.Add(v); err != nil {
				return false
			}
			want += int64(w)
		}
		return cell.Frequency() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCellCorruptInputs: every decoder rejects malformed values.
func TestCellCorruptInputs(t *testing.T) {
	for _, kind := range []AggregationKind{AggCount, AggTimeSeries, AggDocIndex} {
		cell := newAggregate(kind)
		if err := cell.Add([]byte{0x80}); err == nil {
			t.Errorf("%v: accepted bad varint", kind)
		}
	}
	// Trailing bytes.
	ts := newAggregate(AggTimeSeries)
	good := appendMapValue(nil, AggTimeSeries, &docMeta{year: 2000})
	if err := ts.Add(append(append([]byte(nil), good...), 1)); err == nil {
		t.Error("time series accepted trailing bytes")
	}
	di := newAggregate(AggDocIndex)
	goodDI := appendMapValue(nil, AggDocIndex, &docMeta{docID: 3})
	if err := di.Add(append(append([]byte(nil), goodDI...), 1)); err == nil {
		t.Error("doc index accepted trailing bytes")
	}
	cnt := newAggregate(AggCount)
	if err := cnt.Add([]byte{1, 1}); err == nil {
		t.Error("count accepted trailing bytes")
	}
}

// TestAggregationKindString covers the display names.
func TestAggregationKindString(t *testing.T) {
	if AggCount.String() != "count" || AggTimeSeries.String() != "timeseries" || AggDocIndex.String() != "docindex" {
		t.Fatal("kind names wrong")
	}
	if SelectAll.String() != "all" || SelectMaximal.String() != "maximal" || SelectClosed.String() != "closed" {
		t.Fatal("select names wrong")
	}
}
