package core

// Tests for the measured shuffle transfer counters and the block
// codec: the block-framed, front-coded run format must beat the flat
// format's size on SUFFIX-σ's suffix keys by a wide margin (the
// acceptance bar is a ≥25% drop on the fig4 default workload), the
// read side must account exactly what was written, and every codec
// setting must leave n-gram output bit-identical.

import (
	"context"
	"testing"

	"ngramstats/internal/extsort"
	"ngramstats/internal/mapreduce"
	"ngramstats/internal/synth"
)

func fig4Params(t *testing.T, codec extsort.Codec) Params {
	t.Helper()
	return Params{
		Tau:          5,
		Sigma:        5,
		NumReducers:  8,
		InputSplits:  16,
		TempDir:      t.TempDir(),
		Combiner:     true,
		ShuffleCodec: codec,
	}
}

// TestSuffixSigmaMeasuredTransfer runs SUFFIX-σ on a fig4-default-like
// workload and checks the measured transfer counters: nonzero, read
// equals written (every sealed run fully drained), and written at most
// 75% of what the flat varint-framed format would have shipped — the
// ≥25% shuffle-volume drop the block format exists for. At σ=5 every
// shuffle key and value is under 128 bytes, so the flat format's size
// is exactly the logical key+value bytes plus two framing varints per
// record (here every shuffle record is a combiner emission).
func TestSuffixSigmaMeasuredTransfer(t *testing.T) {
	col := synth.Generate(synth.NYTLike(250, 42))
	run, err := Compute(context.Background(), col, SuffixSigma, fig4Params(t, extsort.CodecRaw))
	if err != nil {
		t.Fatal(err)
	}
	defer run.Result.Release()

	written := run.ShuffleBytesWritten()
	read := run.ShuffleBytesRead()
	logical := run.Counters.Get(mapreduce.CounterReduceShuffleBytes)
	records := run.Counters.Get(mapreduce.CounterCombineOutputRecs)
	flat := logical + 2*records
	t.Logf("shuffle bytes: written=%d read=%d flat-format=%d (%.1f%% of flat)",
		written, read, flat, 100*float64(written)/float64(flat))
	if written == 0 || logical == 0 || records == 0 {
		t.Fatalf("no measured transfer: written=%d logical=%d records=%d", written, logical, records)
	}
	if read != written {
		t.Fatalf("read %d bytes but wrote %d; merge accounting is off", read, written)
	}
	if written > flat*3/4 {
		t.Fatalf("block-format transfer %d exceeds 75%% of the flat format's %d bytes: below the 25%% reduction bar",
			written, flat)
	}
}

// TestShuffleCodecIdenticalOutput: flate-compressed shuffle blocks
// must produce bit-identical n-gram output to raw blocks, for both the
// suffix method (front-coding-friendly keys) and NAÏVE (codec-friendly
// values), while never increasing the measured transfer.
func TestShuffleCodecIdenticalOutput(t *testing.T) {
	col := synth.Generate(synth.NYTLike(120, 7))
	for _, m := range []Method{SuffixSigma, Naive} {
		t.Run(string(m), func(t *testing.T) {
			raw, err := Compute(context.Background(), col, m, fig4Params(t, extsort.CodecRaw))
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Result.Release()
			flate, err := Compute(context.Background(), col, m, fig4Params(t, extsort.CodecFlate))
			if err != nil {
				t.Fatal(err)
			}
			defer flate.Result.Release()

			want, err := raw.Result.CountMap()
			if err != nil {
				t.Fatal(err)
			}
			got, err := flate.Result.CountMap()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("flate produced %d n-grams, raw %d", len(got), len(want))
			}
			for k, cf := range want {
				if got[k] != cf {
					t.Fatalf("cf(%x): flate %d, raw %d", k, got[k], cf)
				}
			}
			// Per-block fallback to raw guarantees flate never inflates.
			if fw, rw := flate.ShuffleBytesWritten(), raw.ShuffleBytesWritten(); fw > rw {
				t.Fatalf("flate transfer %d exceeds raw transfer %d", fw, rw)
			}
			t.Logf("transfer: raw=%d flate=%d", raw.ShuffleBytesWritten(), flate.ShuffleBytesWritten())
		})
	}
}

// TestMalformedKeyFailsJob: a job whose partitioner reports malformed
// keys must fail with the MALFORMED_KEYS tally instead of silently
// routing the keys to partition 0.
func TestMalformedKeyFailsJob(t *testing.T) {
	job := &mapreduce.Job{
		Name:  "malformed-keys",
		Input: mapreduce.SliceInput([]mapreduce.KV{{Key: []byte("k"), Value: []byte("v")}}, 1),
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(key, value []byte, emit mapreduce.Emit) error {
				// 0x80 and 0x81 are truncated key terms: no valid first term.
				if err := emit([]byte{0x80}, []byte{1}); err != nil {
					return err
				}
				return emit([]byte{0x81}, []byte{1})
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(key []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
				return nil
			})
		},
		Partition:   FirstTermPartitioner,
		NumReducers: 2,
		TempDir:     t.TempDir(),
	}
	_, err := mapreduce.Run(context.Background(), job)
	if err == nil {
		t.Fatal("job with malformed keys succeeded")
	}
	t.Logf("got expected failure: %v", err)
}
