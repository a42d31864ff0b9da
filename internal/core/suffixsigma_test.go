package core

import (
	"fmt"
	"testing"

	"ngramstats/internal/encoding"
	"ngramstats/internal/mapreduce"
	"ngramstats/internal/sequence"
)

// fakeValues builds a Values-compatible stream for driving a reducer
// directly: we go through a real job with a single-record mapper
// instead, because mapreduce.Values is not constructible externally.
// For reducer-level unit tests we instead call process() directly.

// drive feeds suffixes (with unit-count multiplicities) into a
// suffixSigmaReducer in the order given and returns the emissions in
// order, plus the final stack state after each step via observe.
func drive(t *testing.T, r *suffixSigmaReducer, steps []struct {
	suffix sequence.Seq
	count  int64
}, observe func(step int)) []string {
	t.Helper()
	var emitted []string
	emit := mapreduce.Emit(func(k, v []byte) error {
		s, err := encoding.DecodeSeq(k)
		if err != nil {
			return err
		}
		cf, err := DecodeFrequency(r.kind, v)
		if err != nil {
			return err
		}
		emitted = append(emitted, fmt.Sprintf("%v:%d", s, cf))
		return nil
	})
	for i, st := range steps {
		cell := newAggregate(r.kind)
		for j := int64(0); j < st.count; j++ {
			if err := cell.Add(unitCount); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.process(st.suffix, cell, emit); err != nil {
			t.Fatal(err)
		}
		if observe != nil {
			observe(i)
		}
	}
	if err := r.Cleanup(emit); err != nil {
		t.Fatal(err)
	}
	return emitted
}

// TestSuffixSigmaReducerFigure1 walks the exact bookkeeping example of
// Figure 1: the reducer responsible for suffixes starting with b
// receives ⟨b x x⟩:1, ⟨b x⟩:1, ⟨b a x⟩:2, ⟨b⟩:1 in reverse
// lexicographic order (terms: x=0, b=1, a=2, so a > b > x descending
// by id is wrong — descending term order by id means larger id first:
// a(2) > b(1) > x(0); the reducer input order used by the paper's
// example is preserved by feeding the same sequence).
func TestSuffixSigmaReducerFigure1(t *testing.T) {
	const (
		x sequence.Term = 0
		b sequence.Term = 1
		a sequence.Term = 2
	)
	// The paper's input order for the b-reducer: ⟨b x x⟩, ⟨b x⟩,
	// ⟨b a x⟩, ⟨b⟩ — this is reverse-lex under *alphabetic* descending
	// order (x > b > a). Verify the stack evolution of Figure 1:
	//   after ⟨b x x⟩: terms [b x x], counts [0 0 1]
	//   after ⟨b x⟩  : terms [b x],   counts [0 2]      (emitted nothing yet)
	//   after ⟨b a x⟩: terms [b a x], counts [2 0 2]    (emitted ⟨b x⟩:2… )
	// With τ=2 only n-grams of cf ≥ 2 are emitted.
	r := &suffixSigmaReducer{tau: 2, kind: AggCount}
	steps := []struct {
		suffix sequence.Seq
		count  int64
	}{
		{sequence.Seq{b, x, x}, 1},
		{sequence.Seq{b, x}, 1},
		{sequence.Seq{b, a, x}, 2},
		{sequence.Seq{b}, 1},
	}
	wantStacks := []struct {
		terms  sequence.Seq
		counts []int64
	}{
		{sequence.Seq{b, x, x}, []int64{0, 0, 1}},
		{sequence.Seq{b, x}, []int64{0, 2}},
		{sequence.Seq{b, a, x}, []int64{2, 0, 2}},
		{sequence.Seq{b}, []int64{5}},
	}
	emitted := drive(t, r, steps, func(step int) {
		want := wantStacks[step]
		if !sequence.Equal(r.terms, want.terms) {
			t.Fatalf("step %d: terms stack = %v, want %v", step, r.terms, want.terms)
		}
		if len(r.cells) != len(want.counts) {
			t.Fatalf("step %d: counts stack depth = %d, want %d", step, len(r.cells), len(want.counts))
		}
		for i, c := range want.counts {
			if got := r.cells[i].Frequency(); got != c {
				t.Fatalf("step %d: counts[%d] = %d, want %d", step, i, got, c)
			}
		}
	})
	// Emissions with τ=2, in pop order: ⟨b x⟩ is finalized when ⟨b a x⟩
	// arrives (cf 2); ⟨b a x⟩ and ⟨b a⟩ when ⟨b⟩ arrives; ⟨b⟩ at
	// cleanup (cf 5 = 1+2+1+... let's trust the arithmetic: x-pops add
	// into parents). Check the exact set.
	want := []string{
		"[1 0]:2",   // ⟨b x⟩
		"[1 2 0]:2", // ⟨b a x⟩
		"[1 2]:2",   // ⟨b a⟩
		"[1]:5",     // ⟨b⟩ (1+1+2+1)
	}
	if len(emitted) != len(want) {
		t.Fatalf("emissions = %v, want %v", emitted, want)
	}
	for i := range want {
		if emitted[i] != want[i] {
			t.Fatalf("emission %d = %s, want %s (all: %v)", i, emitted[i], want[i], emitted)
		}
	}
}

// TestSuffixSigmaReducerInvariant property-checks the two invariants of
// Section IV after every step: both stacks have equal size, and the
// summed counts from the top reflect exactly the occurrences of each
// stack prefix among the suffixes seen so far.
func TestSuffixSigmaReducerInvariant(t *testing.T) {
	const terms = 3
	// Enumerate all suffix multisets over a tiny alphabet, sort them
	// reverse-lex, and drive the reducer.
	var all []sequence.Seq
	for a := 0; a < terms; a++ {
		all = append(all, sequence.Seq{sequence.Term(a)})
		for b := 0; b < terms; b++ {
			all = append(all, sequence.Seq{sequence.Term(a), sequence.Term(b)})
			for c := 0; c < terms; c++ {
				all = append(all, sequence.Seq{sequence.Term(a), sequence.Term(b), sequence.Term(c)})
			}
		}
	}
	// Keep only suffixes sharing first term 1 (one reducer's share),
	// in reverse-lex order.
	var input []sequence.Seq
	for _, s := range all {
		if s[0] == 1 {
			input = append(input, s)
		}
	}
	for i := 0; i < len(input); i++ {
		for j := i + 1; j < len(input); j++ {
			if sequence.CompareReverseLex(input[j], input[i]) < 0 {
				input[i], input[j] = input[j], input[i]
			}
		}
	}
	r := &suffixSigmaReducer{tau: 1, kind: AggCount}
	var seen []sequence.Seq
	steps := make([]struct {
		suffix sequence.Seq
		count  int64
	}, len(input))
	for i, s := range input {
		steps[i].suffix = s
		steps[i].count = int64(1 + i%3)
	}
	step := 0
	drive(t, r, steps, func(i int) {
		seen = append(seen, input[i])
		if len(r.terms) != len(r.cells) {
			t.Fatalf("step %d: stack sizes differ: %d vs %d", i, len(r.terms), len(r.cells))
		}
		// Invariant 2: Σ_{j≥i} counts[j] = occurrences of prefix
		// terms[0..i] among seen suffixes (weighted by multiplicities).
		for i2 := 0; i2 < len(r.terms); i2++ {
			prefix := r.terms[:i2+1]
			var want int64
			for si, s := range seen {
				if sequence.IsPrefix(prefix, s) {
					want += int64(1 + si%3)
				}
			}
			var got int64
			for j := i2; j < len(r.cells); j++ {
				got += r.cells[j].Frequency()
			}
			if got != want {
				t.Fatalf("step %d: invariant violated for prefix %v: got %d, want %d",
					i, prefix, got, want)
			}
		}
		step++
	})
	if step != len(input) {
		t.Fatalf("drove %d of %d steps", step, len(input))
	}
}

// TestSuffixSigmaReducerSingleSuffix: a lone suffix flushes fully on
// cleanup.
func TestSuffixSigmaReducerSingleSuffix(t *testing.T) {
	r := &suffixSigmaReducer{tau: 1, kind: AggCount}
	emitted := drive(t, r, []struct {
		suffix sequence.Seq
		count  int64
	}{
		{sequence.Seq{4, 2, 7}, 3},
	}, nil)
	want := []string{"[4 2 7]:3", "[4 2]:3", "[4]:3"}
	if fmt.Sprint(emitted) != fmt.Sprint(want) {
		t.Fatalf("emitted %v, want %v", emitted, want)
	}
}

// TestSuffixSigmaReducerEmptyStream: cleanup on empty input must not
// panic or emit.
func TestSuffixSigmaReducerEmptyStream(t *testing.T) {
	r := &suffixSigmaReducer{tau: 1, kind: AggCount}
	emitted := drive(t, r, nil, nil)
	if len(emitted) != 0 {
		t.Fatalf("emitted %v from empty stream", emitted)
	}
}

// TestSuffixSigmaReducerTauFiltersPops: τ filtering happens at pop
// time; children below τ still fold their counts into parents.
func TestSuffixSigmaReducerTauFiltersPops(t *testing.T) {
	r := &suffixSigmaReducer{tau: 3, kind: AggCount}
	emitted := drive(t, r, []struct {
		suffix sequence.Seq
		count  int64
	}{
		{sequence.Seq{1, 5}, 2}, // ⟨1 5⟩ cf 2 < τ
		{sequence.Seq{1, 3}, 1}, // ⟨1 3⟩ cf 1 < τ
	}, nil)
	// Only ⟨1⟩ (cf 3 = 2+1) survives.
	want := []string{"[1]:3"}
	if fmt.Sprint(emitted) != fmt.Sprint(want) {
		t.Fatalf("emitted %v, want %v", emitted, want)
	}
}

// TestFirstTermPartitionerConsistency: all suffixes sharing a first
// term land on one partition, and partitions stay in range.
func TestFirstTermPartitionerConsistency(t *testing.T) {
	for r := 1; r <= 7; r++ {
		perTerm := map[sequence.Term]int{}
		for term := sequence.Term(0); term < 50; term++ {
			for l := 1; l <= 3; l++ {
				s := sequence.Seq{term}
				for i := 1; i < l; i++ {
					s = append(s, sequence.Term(i*13))
				}
				p := FirstTermPartitioner(encoding.AppendKey(nil, s), r)
				if p < 0 || p >= r {
					t.Fatalf("partition %d out of range for r=%d", p, r)
				}
				if prev, ok := perTerm[term]; ok && prev != p {
					t.Fatalf("term %d split across partitions %d and %d", term, prev, p)
				}
				perTerm[term] = p
			}
		}
		if r >= 4 {
			// Dispersion: the 50 terms should hit more than one partition.
			distinct := map[int]bool{}
			for _, p := range perTerm {
				distinct[p] = true
			}
			if len(distinct) < 2 {
				t.Fatalf("r=%d: all terms on one partition", r)
			}
		}
	}
	// Malformed key is reported via the sentinel so the runtime can
	// count it and fail the job, rather than silently landing on 0.
	if p := FirstTermPartitioner([]byte{0x80}, 5); p != mapreduce.MalformedKeyPartition {
		t.Fatalf("malformed key partition = %d, want MalformedKeyPartition", p)
	}
}
