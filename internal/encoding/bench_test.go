package encoding

import (
	"math/rand"
	"testing"

	"ngramstats/internal/sequence"
)

func benchSeqs(n, maxLen, vocab int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	out := make([][]byte, n)
	for i := range out {
		l := 1 + rng.Intn(maxLen)
		s := make(sequence.Seq, l)
		for j := range s {
			s[j] = sequence.Term(rng.Intn(vocab))
		}
		out[i] = EncodeSeq(s)
	}
	return out
}

func BenchmarkEncodeSeq(b *testing.B) {
	s := sequence.Seq{3, 70, 1500, 2, 99, 40000, 7, 1}
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = AppendSeq(buf[:0], s)
	}
}

func BenchmarkDecodeSeqInto(b *testing.B) {
	enc := EncodeSeq(sequence.Seq{3, 70, 1500, 2, 99, 40000, 7, 1})
	b.ReportAllocs()
	var s sequence.Seq
	var err error
	for i := 0; i < b.N; i++ {
		s, err = DecodeSeqInto(s, enc)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompareSeqBytes(b *testing.B) {
	seqs := benchSeqs(1024, 8, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompareSeqBytes(seqs[i%len(seqs)], seqs[(i*7+1)%len(seqs)])
	}
}
