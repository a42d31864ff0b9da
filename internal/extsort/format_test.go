package extsort

// Durability and correctness tests for the block-framed run format:
// round-trips with and without the block codec across block
// boundaries, exact IOStats accounting, and — the part that matters
// when a disk misbehaves —
// the guarantee that truncated or corrupted runs surface
// ErrCorruptRun instead of silently dropping records.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// encodeRun writes the given records through a runWriter and returns
// the encoded bytes.
func encodeRun(t *testing.T, codec Codec, blockSize int, recs []kv) []byte {
	t.Helper()
	var buf bytes.Buffer
	rw := newRunWriter(&buf, codec, blockSize)
	for _, r := range recs {
		if err := rw.append([]byte(r.k), []byte(r.v)); err != nil {
			t.Fatal(err)
		}
	}
	written, err := rw.finish()
	if err != nil {
		t.Fatal(err)
	}
	if written != int64(buf.Len()) {
		t.Fatalf("finish reported %d bytes, wrote %d", written, buf.Len())
	}
	return buf.Bytes()
}

// decodeRun reads an encoded run back into records via a block source.
func decodeRun(data []byte, stats *IOStats) ([]kv, error) {
	src, err := openMemRunSource(data, stats)
	if err != nil {
		return nil, err
	}
	defer src.close()
	var out []kv
	for {
		ok, err := src.next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, kv{string(src.key()), string(src.value())})
	}
}

// sortedRecords builds n sorted records with prefix-sharing keys and
// mostly repeating values — the shuffle's shape.
func sortedRecords(n int) []kv {
	recs := make([]kv, n)
	for i := range recs {
		recs[i] = kv{
			k: fmt.Sprintf("prefix-%03d-%05d", i/50, i),
			v: fmt.Sprintf("v%d", i%3),
		}
	}
	return recs
}

func TestRunFormatRoundTrip(t *testing.T) {
	for _, codec := range []Codec{CodecRaw, CodecFlate} {
		for _, blockSize := range []int{0, 128, 1 << 20} { // default, many blocks, single block
			t.Run(fmt.Sprintf("codec=%s/block=%d", codec, blockSize), func(t *testing.T) {
				recs := sortedRecords(500)
				data := encodeRun(t, codec, blockSize, recs)
				got, err := decodeRun(data, nil)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(recs) {
					t.Fatalf("round trip mismatch: got %d records, want %d", len(got), len(recs))
				}
			})
		}
	}
}

func TestRunFormatEmptyRun(t *testing.T) {
	data := encodeRun(t, CodecRaw, 0, nil)
	got, err := decodeRun(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty run decoded %d records", len(got))
	}
}

func TestRunFormatZeroLengthKeysAndValues(t *testing.T) {
	recs := []kv{{"", ""}, {"", "x"}, {"a", ""}, {"a", ""}, {"ab", "y"}}
	data := encodeRun(t, CodecRaw, 0, recs)
	got, err := decodeRun(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(recs) {
		t.Fatalf("got %v, want %v", got, recs)
	}
}

// TestRunFormatFrontCodingShrinks: sorted keys with heavy shared
// prefixes must encode well below their flat size.
func TestRunFormatFrontCodingShrinks(t *testing.T) {
	recs := sortedRecords(2000)
	flat := 0
	for _, r := range recs {
		flat += 2 + len(r.k) + len(r.v) // uvarint(klen) klen uvarint(vlen) vlen
	}
	data := encodeRun(t, CodecRaw, 0, recs)
	if len(data) > flat*3/4 {
		t.Fatalf("front-coded run is %d bytes, flat framing %d: expected ≥25%% reduction", len(data), flat)
	}
}

// TestRunFormatTruncation: every strict prefix of an encoded run must
// fail to open or fail during iteration — never decode cleanly with
// fewer records.
func TestRunFormatTruncation(t *testing.T) {
	recs := sortedRecords(300)
	data := encodeRun(t, CodecRaw, 512, recs)
	for cut := 0; cut < len(data); cut++ {
		got, err := decodeRun(data[:cut], nil)
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded silently (%d records)", cut, len(data), len(got))
		}
		if !errors.Is(err, ErrCorruptRun) {
			t.Fatalf("truncation to %d bytes: error %v does not wrap ErrCorruptRun", cut, err)
		}
	}
}

// TestRunFormatCorruption: flipping any single byte of an encoded run
// must either fail (checksums, structural validation) or — never —
// change the decoded record stream silently. Byte flips in block
// payloads and the index are caught by CRC-32C; flips in the trailer
// by the magic/bounds checks.
func TestRunFormatCorruption(t *testing.T) {
	recs := sortedRecords(200)
	data := encodeRun(t, CodecRaw, 1024, recs)
	want := fmt.Sprint(recs)
	for i := 0; i < len(data); i++ {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0x40
		got, err := decodeRun(corrupt, nil)
		if err == nil && fmt.Sprint(got) != want {
			t.Fatalf("flipping byte %d of %d silently changed the decoded records", i, len(data))
		}
		if err != nil && !errors.Is(err, ErrCorruptRun) {
			t.Fatalf("flipping byte %d: error %v does not wrap ErrCorruptRun", i, err)
		}
	}
}

// TestSpillFileCorruptionSurfaces: a corrupted on-disk spill must fail
// the merge with ErrCorruptRun, not lose records.
func TestSpillFileCorruptionSurfaces(t *testing.T) {
	dir := t.TempDir()
	s := NewSorter(Options{MemoryBudget: 256, TempDir: dir})
	for i := 0; i < 500; i++ {
		if err := s.Add([]byte(fmt.Sprintf("key-%04d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if s.Spills() == 0 {
		t.Fatal("expected spills")
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no spill files: %v", err)
	}
	path := filepath.Join(dir, ents[0].Name())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0xFF // middle of some block payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	runs, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	it, err := MergeRuns(nil, runs)
	if err == nil {
		for it.Next() {
		}
		err = it.Err()
		it.Close()
	}
	if err == nil || !errors.Is(err, ErrCorruptRun) {
		t.Fatalf("corrupted spill produced %v, want ErrCorruptRun", err)
	}
}

func TestRunFormatIOStatsAccounting(t *testing.T) {
	stats := &IOStats{}
	s := NewSorter(Options{MemoryBudget: 4 << 10, TempDir: t.TempDir(), Stats: stats})
	for i := 0; i < 2000; i++ {
		if err := s.Add([]byte(fmt.Sprintf("key-%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	written := stats.BytesWritten()
	if written == 0 {
		t.Fatal("no bytes written recorded")
	}
	var encoded int64
	for _, r := range runs {
		if r.InMemory() {
			encoded += int64(r.Bytes())
		} else {
			st, err := os.Stat(r.path)
			if err != nil {
				t.Fatal(err)
			}
			encoded += st.Size()
		}
	}
	if written != encoded {
		t.Fatalf("BytesWritten=%d but encoded runs total %d", written, encoded)
	}
	it, err := MergeRuns(nil, runs)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if n != 2000 {
		t.Fatalf("merged %d records", n)
	}
	if got := stats.BytesRead(); got != written {
		t.Fatalf("full drain read %d bytes, wrote %d", got, written)
	}
}

// TestRunFormatHugeCompressibleRecord: a single record far larger
// than the block target — highly compressible, so flate shrinks it —
// must round-trip; the reader's decompression-bomb guard scales with
// the payload and must not reject blocks the writer legitimately
// produced.
func TestRunFormatHugeCompressibleRecord(t *testing.T) {
	for _, codec := range []Codec{CodecRaw, CodecFlate} {
		t.Run(codec.String(), func(t *testing.T) {
			big := bytes.Repeat([]byte("compressible "), 1<<18) // ~3.4 MiB
			recs := []kv{{"a", "x"}, {"big", string(big)}, {"c", "y"}}
			data := encodeRun(t, codec, 0, recs)
			got, err := decodeRun(data, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(recs) || got[1].v != string(big) {
				t.Fatalf("huge record did not round-trip (%d records)", len(got))
			}
		})
	}
}

func TestRunFormatValueElision(t *testing.T) {
	// Alternating then constant values: elision must reproduce exactly.
	recs := []kv{
		{"a", "1"}, {"b", "1"}, {"c", "2"}, {"d", "2"}, {"e", "2"},
		{"f", ""}, {"g", ""}, {"h", "1"},
	}
	data := encodeRun(t, CodecRaw, 0, recs)
	got, err := decodeRun(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(recs) {
		t.Fatalf("got %v, want %v", got, recs)
	}
}
