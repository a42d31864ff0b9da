package extsort_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ngramstats/internal/encoding"
	"ngramstats/internal/extsort"
	"ngramstats/internal/synth"
)

// sealPartitions is the number of reduce partitions the benchmark's
// keys are split across; one of them is sealed.
const sealPartitions = 16

// suffixPartitionKeys returns the SUFFIX-σ shuffle keys (σ = 5, key
// encoding) of a Zipf-distributed synthetic corpus that fall into one
// partition by first term, in map order.
func suffixPartitionKeys() [][]byte {
	col := synth.Generate(synth.NYTLike(600, 1))
	var keys [][]byte
	var offs []int
	for _, d := range col.Docs {
		for _, s := range d.Sentences {
			// A fresh buffer per sentence: the keys are subslices of it.
			var enc []byte
			offs = offs[:0]
			for _, t := range s {
				offs = append(offs, len(enc))
				enc = encoding.AppendKeyTerm(enc, t)
			}
			offs = append(offs, len(enc))
			for b, t := range s {
				if int(t)%sealPartitions != 0 {
					continue
				}
				keys = append(keys, enc[offs[b]:offs[min(b+5, len(s))]:offs[min(b+5, len(s))]])
			}
		}
	}
	return keys
}

// countCombine sums the uvarint counts of each run of equal keys.
func countCombine(sorted *extsort.Iterator, write func(key, value []byte) error) error {
	var key, val []byte
	var sum uint64
	have := false
	for sorted.Next() {
		if have && !bytes.Equal(sorted.Key(), key) {
			val = binary.AppendUvarint(val[:0], sum)
			if err := write(key, val); err != nil {
				return err
			}
			have = false
		}
		if !have {
			key, sum, have = append(key[:0], sorted.Key()...), 0, true
		}
		n, _ := binary.Uvarint(sorted.Value())
		sum += n
	}
	if err := sorted.Err(); err != nil || !have {
		return err
	}
	val = binary.AppendUvarint(val[:0], sum)
	return write(key, val)
}

// BenchmarkSealSuffixKeys seals one map task's partition buffer of
// SUFFIX-σ keys the way the shuffle does: descending byte order, in
// memory, through a count combiner.
func BenchmarkSealSuffixKeys(b *testing.B) {
	keys := suffixPartitionKeys()
	one := binary.AppendUvarint(nil, 1)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := extsort.NewSorter(extsort.Options{TempDir: dir, Descending: true, Combine: countCombine})
		for _, k := range keys {
			if err := s.Add(k, one); err != nil {
				b.Fatal(err)
			}
		}
		runs, err := s.Seal()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range runs {
			r.Discard()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/record")
}
