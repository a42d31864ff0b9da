package index

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ngramstats/internal/extsort"
)

// testRecords returns n sorted (key, value) records.
func testRecords(n int) (keys, vals [][]byte) {
	for i := 0; i < n; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key-%06d", i)))
		vals = append(vals, []byte(fmt.Sprintf("val-%d", i*3)))
	}
	return keys, vals
}

// buildIndex writes a committed index with n records over the given
// shard count, including a tiny dictionary and ceil(n/10) top records.
func buildIndex(t *testing.T, dir string, n, shards int) (keys, vals [][]byte) {
	t.Helper()
	keys, vals = testRecords(n)
	w, err := NewWriter(dir, WriterOptions{
		Corpus:    "test-corpus",
		Kind:      0,
		Records:   int64(n),
		Shards:    shards,
		Jobs:      2,
		Wallclock: 5 * time.Second,
		Counters:  map[string]int64{"MAP_OUTPUT_RECORDS": int64(n) * 7},
	})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := w.SetDictionary(func(out io.Writer) error {
		_, err := io.WriteString(out, "the\t100\nquick\t50\nfox\t25\n")
		return err
	}); err != nil {
		t.Fatalf("SetDictionary: %v", err)
	}
	for i := range keys {
		if err := w.Append(keys[i], vals[i]); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	for i := 0; i < (n+9)/10; i++ {
		if err := w.AppendTop(keys[i], vals[i]); err != nil {
			t.Fatalf("AppendTop(%d): %v", i, err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return keys, vals
}

func TestIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const n, shards = 5000, 4
	keys, vals := buildIndex(t, dir, n, shards)

	ix, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer ix.Close()

	if ix.Records() != n || ix.Shards() != shards || ix.Corpus() != "test-corpus" {
		t.Fatalf("Records=%d Shards=%d Corpus=%q", ix.Records(), ix.Shards(), ix.Corpus())
	}
	if ix.Jobs() != 2 || ix.Wallclock() != 5*time.Second {
		t.Fatalf("Jobs=%d Wallclock=%v", ix.Jobs(), ix.Wallclock())
	}
	if c := ix.Counters(); c["MAP_OUTPUT_RECORDS"] != n*7 {
		t.Fatalf("Counters = %v", c)
	}
	if ix.Dictionary().Len() != 3 {
		t.Fatalf("dictionary has %d terms, want 3", ix.Dictionary().Len())
	}

	// Every key is found with its value; absent keys are not.
	for i := range keys {
		v, ok, err := ix.Get(keys[i])
		if err != nil || !ok || !bytes.Equal(v, vals[i]) {
			t.Fatalf("Get(%s) = %q,%v,%v; want %q", keys[i], v, ok, err, vals[i])
		}
	}
	for _, absent := range []string{"", "a", "key-", "key-0000000", "key-999999x", "zzz"} {
		if _, ok, err := ix.Get([]byte(absent)); ok || err != nil {
			t.Fatalf("Get(%q) = %v,%v; want not found", absent, ok, err)
		}
	}

	// Full scan reproduces every record in order.
	i := 0
	err = ix.Scan(nil, nil, func(k, v []byte) error {
		if !bytes.Equal(k, keys[i]) || !bytes.Equal(v, vals[i]) {
			return fmt.Errorf("record %d: got (%s,%s) want (%s,%s)", i, k, v, keys[i], vals[i])
		}
		i++
		return nil
	})
	if err != nil || i != n {
		t.Fatalf("full scan: %v after %d records", err, i)
	}

	// Range scan across a shard boundary.
	lo, hi := []byte("key-001200"), []byte("key-003700")
	i = 1200
	err = ix.Scan(lo, hi, func(k, v []byte) error {
		if !bytes.Equal(k, keys[i]) {
			return fmt.Errorf("range record: got %s want %s", k, keys[i])
		}
		i++
		return nil
	})
	if err != nil || i != 3700 {
		t.Fatalf("range scan: %v, stopped at %d", err, i)
	}

	// Early stop.
	count := 0
	err = ix.Scan(nil, nil, func(k, v []byte) error {
		count++
		if count == 10 {
			return StopScan()
		}
		return nil
	})
	if err != nil || count != 10 {
		t.Fatalf("early stop: err=%v count=%d", err, count)
	}

	// Prefix scan.
	var got []string
	prefix := []byte("key-00012")
	err = ix.Scan(prefix, PrefixSuccessor(prefix), func(k, v []byte) error {
		got = append(got, string(k))
		return nil
	})
	if err != nil || len(got) != 10 || got[0] != "key-000120" || got[9] != "key-000129" {
		t.Fatalf("prefix scan: err=%v got=%v", err, got)
	}

	// Precomputed top records.
	tk, tv, ok := ix.TopRecords(5)
	if !ok || len(tk) != 5 {
		t.Fatalf("TopRecords(5): ok=%v len=%d", ok, len(tk))
	}
	for j := range tk {
		if !bytes.Equal(tk[j], keys[j]) || !bytes.Equal(tv[j], vals[j]) {
			t.Fatalf("top record %d mismatch", j)
		}
	}
	if _, _, ok := ix.TopRecords(int(ix.TopStored()) + 1); ok {
		t.Fatal("TopRecords beyond stored depth must report false")
	}

	// Repeated Gets hit the block cache.
	h0, m0 := ix.CacheStats()
	for j := 0; j < 50; j++ {
		if _, ok, _ := ix.Get(keys[42]); !ok {
			t.Fatal("cached Get lost the key")
		}
	}
	h1, m1 := ix.CacheStats()
	if h1-h0 < 49 {
		t.Fatalf("cache hits %d -> %d; expected ~49 new hits (misses %d -> %d)", h0, h1, m0, m1)
	}
}

func TestIndexEmpty(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, WriterOptions{Corpus: "empty", Records: 0, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetDictionary(func(out io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	ix, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer ix.Close()
	if ix.Records() != 0 || ix.Shards() != 0 {
		t.Fatalf("Records=%d Shards=%d", ix.Records(), ix.Shards())
	}
	if _, ok, err := ix.Get([]byte("anything")); ok || err != nil {
		t.Fatalf("Get on empty index: %v %v", ok, err)
	}
	if err := ix.Scan(nil, nil, func(k, v []byte) error { return fmt.Errorf("unexpected record") }); err != nil {
		t.Fatal(err)
	}
}

func TestWriterEnforcesOrderAndCount(t *testing.T) {
	w, err := NewWriter(t.TempDir(), WriterOptions{Records: 10, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.Append([]byte("b"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("a"), []byte("2")); err == nil {
		t.Fatal("out-of-order Append accepted")
	}
	if err := w.Append([]byte("b"), []byte("2")); err == nil {
		t.Fatal("duplicate-key Append accepted")
	}

	w2, err := NewWriter(t.TempDir(), WriterOptions{Records: 10, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.SetDictionary(func(out io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := w2.Append([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(); err == nil {
		t.Fatal("Commit accepted 1 of 10 declared records")
	}
}

func TestWriterRefusesExistingIndex(t *testing.T) {
	dir := t.TempDir()
	buildIndex(t, dir, 10, 1)
	if _, err := NewWriter(dir, WriterOptions{Records: 1}); err == nil {
		t.Fatal("NewWriter over a committed index must fail")
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), Options{}); err == nil {
		t.Fatal("Open on a missing directory must fail")
	}
}

func TestPrefixSuccessor(t *testing.T) {
	cases := []struct {
		in, want []byte
	}{
		{[]byte{0x01}, []byte{0x02}},
		{[]byte{0x01, 0xFF}, []byte{0x02}},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte{0x00}, []byte{0x01}},
		{[]byte("abc"), []byte("abd")},
	}
	for _, c := range cases {
		if got := PrefixSuccessor(c.in); !bytes.Equal(got, c.want) {
			t.Fatalf("PrefixSuccessor(%x) = %x, want %x", c.in, got, c.want)
		}
	}
}

func TestScanPrefixAllFF(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, WriterOptions{Records: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetDictionary(func(out io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte{0xFE}, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte{0xFF, 0x01}, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var got int
	if err := ix.Scan([]byte{0xFF}, PrefixSuccessor([]byte{0xFF}), func(k, v []byte) error {
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("prefix scan of 0xFF saw %d records, want 1", got)
	}
}

// TestCodecFlateShards exercises the compressed-shard path end to end.
func TestCodecFlateShards(t *testing.T) {
	dir := t.TempDir()
	keys, vals := testRecords(3000)
	w, err := NewWriter(dir, WriterOptions{Records: 3000, Shards: 2, Codec: extsort.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetDictionary(func(out io.Writer) error {
		_, err := io.WriteString(out, "a\t1\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if err := w.Append(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, i := range []int{0, 1499, 2999} {
		v, ok, err := ix.Get(keys[i])
		if err != nil || !ok || !bytes.Equal(v, vals[i]) {
			t.Fatalf("Get(%s) = %q,%v,%v", keys[i], v, ok, err)
		}
	}
}

// TestManifestHumanReadable pins the manifest being JSON a human can
// inspect, with the files it names actually present.
func TestManifestHumanReadable(t *testing.T) {
	dir := t.TempDir()
	buildIndex(t, dir, 100, 2)
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\"version\": 1", "test-corpus", "shard-00000.run", "shard-00001.run", DictionaryFile} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("manifest missing %q:\n%s", want, data)
		}
	}
	for _, f := range []string{"shard-00000.run", "shard-00001.run", DictionaryFile, TopFile, ManifestCRCFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("expected file %s: %v", f, err)
		}
	}
}
