package extsort

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzRunFormat: arbitrary bytes presented as an encoded run must
// either decode cleanly or fail with an error wrapping ErrCorruptRun —
// never panic, never over-read, and decoded keys must come back in
// nondecreasing order relative to what a writer would have produced
// (we can't know intent, so the only hard invariants are memory safety
// and typed errors).
func FuzzRunFormat(f *testing.F) {
	// Seed with valid runs so the fuzzer starts from the real format.
	seed := func(codec Codec, blockSize int, recs []kv) []byte {
		var buf bytes.Buffer
		rw := newRunWriter(&buf, codec, blockSize)
		for _, r := range recs {
			if err := rw.append([]byte(r.k), []byte(r.v)); err != nil {
				f.Fatal(err)
			}
		}
		if _, err := rw.finish(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add(seed(CodecRaw, 0, nil))
	f.Add(seed(CodecRaw, 0, []kv{{"alpha", "1"}, {"alphabet", "1"}, {"beta", "2"}}))
	f.Add(seed(CodecRaw, 16, []kv{{"a", ""}, {"ab", "x"}, {"abc", "x"}, {"b", "y"}}))
	f.Add(seed(CodecFlate, 32, []kv{{"key-0001", "v"}, {"key-0002", "v"}, {"key-0003", "w"}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := openMemRunSource(data, nil)
		if err != nil {
			if !errors.Is(err, ErrCorruptRun) {
				t.Fatalf("open error %v does not wrap ErrCorruptRun", err)
			}
			return
		}
		defer src.close()
		for i := 0; i < 1<<16; i++ {
			ok, err := src.next()
			if err != nil {
				if !errors.Is(err, ErrCorruptRun) {
					t.Fatalf("decode error %v does not wrap ErrCorruptRun", err)
				}
				return
			}
			if !ok {
				return
			}
			if len(src.key())+len(src.value()) > len(data)*17 {
				// Flate can expand, but a record vastly larger than the
				// input indicates an over-read.
				t.Fatalf("record of %d+%d bytes from %d-byte run",
					len(src.key()), len(src.value()), len(data))
			}
		}
	})
}

// FuzzRunFormatRoundTrip: any record stream round-trips bit-exactly
// through the writer and reader, for both codecs and tiny blocks. The
// fuzzer drives the record contents and the split points.
func FuzzRunFormatRoundTrip(f *testing.F) {
	f.Add([]byte("alpha\x001\x00alphabet\x001\x00beta\x002"), uint8(0), uint16(64))
	f.Add([]byte("\x00\x00\x00"), uint8(1), uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, codecByte uint8, blockSize uint16) {
		codec := CodecRaw
		if codecByte%2 == 1 {
			codec = CodecFlate
		}
		// Parse raw into records: fields separated by NUL, alternating
		// key/value, keys sorted by construction below.
		fields := bytes.Split(raw, []byte{0})
		var recs []kv
		for i := 0; i+1 < len(fields); i += 2 {
			recs = append(recs, kv{string(fields[i]), string(fields[i+1])})
		}
		// The format doesn't require sorted keys; feed them as-is.
		var buf bytes.Buffer
		rw := newRunWriter(&buf, codec, int(blockSize))
		for _, r := range recs {
			if err := rw.append([]byte(r.k), []byte(r.v)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rw.finish(); err != nil {
			t.Fatal(err)
		}
		src, err := openMemRunSource(buf.Bytes(), nil)
		if err != nil {
			t.Fatalf("reopen own encoding: %v", err)
		}
		defer src.close()
		for i, want := range recs {
			ok, err := src.next()
			if err != nil || !ok {
				t.Fatalf("record %d/%d: ok=%v err=%v", i, len(recs), ok, err)
			}
			if string(src.key()) != want.k || string(src.value()) != want.v {
				t.Fatalf("record %d: got (%q,%q), want (%q,%q)",
					i, src.key(), src.value(), want.k, want.v)
			}
		}
		if ok, err := src.next(); ok || err != nil {
			t.Fatalf("trailing record after %d: ok=%v err=%v", len(recs), ok, err)
		}
	})
}
