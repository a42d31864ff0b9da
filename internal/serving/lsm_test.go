package serving

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ngramstats"
	"ngramstats/internal/lsm"
)

// newIncrementalServer starts a live-ingest server in incremental
// (LSM) mode over an initially empty index directory, returning the
// directory so tests can inspect the chain on disk.
func newIncrementalServer(t testing.TB) (*Server, *httptest.Server, string) {
	t.Helper()
	si, err := ngramstats.NewStreamIngester(ngramstats.IngestOptions{
		Epsilon: 0.001, Delta: 0.02, MaxLength: 3, TopK: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "live-idx")
	srv, err := NewServer(ServerOptions{
		Indexes: map[string]IndexConfig{"live": {Dir: dir}},
		Live: &LiveConfig{
			Ingester:    si,
			Index:       "live",
			Count:       ngramstats.Options{MinFrequency: 1, TempDir: t.TempDir()},
			Save:        ngramstats.SaveOptions{Shards: 2, TopDepth: 32},
			Incremental: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, dir
}

// TestLiveRetryAfterBeforeMaterialization: the 503 served before the
// first reconciliation materializes a live index carries a Retry-After
// hint, so well-behaved clients back off instead of hammering.
func TestLiveRetryAfterBeforeMaterialization(t *testing.T) {
	_, ts, _ := newIncrementalServer(t)
	resp, err := ts.Client().Get(ts.URL + "/v1/lookup?q=the+rose")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-materialization lookup: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 before first reconciliation is missing the Retry-After header")
	}
}

// TestIncrementalReconcile: with LiveConfig.Incremental the first
// reconciliation materializes the base and every later one appends
// only the newly ingested documents as an LSM delta — asserted through
// the job's MAP_INPUT_RECORDS counter — while exact answers match a
// batch rebuild over the whole stream.
func TestIncrementalReconcile(t *testing.T) {
	_, ts, dir := newIncrementalServer(t)
	client := ts.Client()

	first, second := liveDocs(12), liveDocs(17)[12:]
	var ing IngestResponse
	if s := postJSON(t, client, ts.URL+"/v1/ingest", IngestRequest{Docs: first}, &ing); s != http.StatusOK {
		t.Fatalf("ingest: status %d", s)
	}

	// First reconcile: the full path, materializing the base.
	var rec ReconcileResponse
	if s := postJSON(t, client, ts.URL+"/v1/admin/reconcile", nil, &rec); s != http.StatusOK {
		t.Fatalf("reconcile: status %d", s)
	}
	if !rec.Applied || rec.Incremental || rec.Docs != int64(len(first)) {
		t.Fatalf("first reconcile = %+v, want full (non-incremental) over %d docs", rec, len(first))
	}
	if _, chain, _ := lsm.ManifestTime(dir); chain {
		t.Fatal("first reconciliation must save a plain base, not a chain")
	}

	// Second reconcile: incremental, appending exactly the new docs.
	if s := postJSON(t, client, ts.URL+"/v1/ingest", IngestRequest{Docs: second}, &ing); s != http.StatusOK {
		t.Fatalf("ingest: status %d", s)
	}
	if s := postJSON(t, client, ts.URL+"/v1/admin/reconcile", nil, &rec); s != http.StatusOK {
		t.Fatalf("reconcile: status %d", s)
	}
	if !rec.Applied || !rec.Incremental {
		t.Fatalf("second reconcile = %+v, want incremental", rec)
	}
	if rec.AppendedDocs != int64(len(second)) || rec.MapInputRecords != int64(len(second)) {
		t.Fatalf("second reconcile appended %d docs reading %d records, want %d of each (O(new documents))",
			rec.AppendedDocs, rec.MapInputRecords, len(second))
	}
	if rec.Docs != int64(len(first)+len(second)) {
		t.Fatalf("reconciled docs = %d, want %d", rec.Docs, len(first)+len(second))
	}
	if _, chain, _ := lsm.ManifestTime(dir); !chain {
		t.Fatal("incremental reconciliation must leave an LSM chain")
	}
	man, err := lsm.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Deltas) != 1 || man.Docs != int64(len(first)+len(second)) {
		t.Fatalf("chain manifest: %d deltas over %d docs", len(man.Deltas), man.Docs)
	}

	// The merged view answers exactly like a batch job over the stream.
	all := append(append([]WireDocument(nil), first...), second...)
	ndocs := make([]ngramstats.Document, len(all))
	for i, d := range all {
		ndocs[i] = ngramstats.Document{Text: d.Text, Year: d.Year}
	}
	oracleCorpus, err := ngramstats.FromDocuments(context.Background(), "live",
		func(yield func(ngramstats.Document, error) bool) {
			for _, d := range ndocs {
				if !yield(d, nil) {
					return
				}
			}
		}, ngramstats.BuilderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := ngramstats.Count(context.Background(), oracleCorpus,
		ngramstats.Options{MinFrequency: 1, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Release()
	for _, q := range []string{"the rose", "rose is red", "the rose w3", "never seen"} {
		wantNG, wantOK, err := oracle.Lookup(q)
		if err != nil {
			t.Fatal(err)
		}
		var lr LookupResponse
		if s := getStrict(t, client, ts.URL+"/v1/lookup?q="+url.QueryEscape(q), &lr); s != http.StatusOK {
			t.Fatalf("lookup %q: status %d", q, s)
		}
		if lr.Found != wantOK {
			t.Fatalf("lookup %q: found=%v, oracle %v", q, lr.Found, wantOK)
		}
		if wantOK && lr.NGram.Frequency != wantNG.Frequency {
			t.Fatalf("lookup %q: frequency %d, oracle %d", q, lr.NGram.Frequency, wantNG.Frequency)
		}
	}

	// With nothing pending, reconcile is a clean no-op.
	if s := postJSON(t, client, ts.URL+"/v1/admin/reconcile", nil, &rec); s != http.StatusOK {
		t.Fatalf("no-op reconcile: status %d", s)
	}
	if rec.Applied {
		t.Fatalf("no-op reconcile = %+v, want Applied false", rec)
	}
}

// TestCompactEndpoint: POST /v1/admin/compact merges a served chain
// into a single base, swaps it in, and reports the stats; compacting
// an already-compact index is a no-op, and a plain index 404s nothing.
func TestCompactEndpoint(t *testing.T) {
	_, ts, dir := newIncrementalServer(t)
	client := ts.Client()

	// Grow a chain: base + one delta.
	var rec ReconcileResponse
	if s := postJSON(t, client, ts.URL+"/v1/ingest", IngestRequest{Docs: liveDocs(8)}, nil); s != http.StatusOK {
		t.Fatalf("ingest: status %d", s)
	}
	if s := postJSON(t, client, ts.URL+"/v1/admin/reconcile", nil, &rec); s != http.StatusOK {
		t.Fatalf("reconcile: status %d", s)
	}
	if s := postJSON(t, client, ts.URL+"/v1/ingest", IngestRequest{Docs: liveDocs(12)[8:]}, nil); s != http.StatusOK {
		t.Fatalf("ingest: status %d", s)
	}
	if s := postJSON(t, client, ts.URL+"/v1/admin/reconcile", nil, &rec); s != http.StatusOK {
		t.Fatalf("reconcile: status %d", s)
	}
	if !rec.Incremental {
		t.Fatalf("second reconcile = %+v, want incremental", rec)
	}

	var before LookupResponse
	if s := getStrict(t, client, ts.URL+"/v1/lookup?q=the+rose", &before); s != http.StatusOK {
		t.Fatalf("lookup: status %d", s)
	}

	// The daemon says how it answered a chain top-k: by the threshold
	// merge over the generations' stored top records, not a scan. It
	// also counts the chain's prefix scans and the generation records
	// they read.
	var tk TopKResponse
	if s := getStrict(t, client, ts.URL+"/v1/topk?k=5", &tk); s != http.StatusOK || len(tk.NGrams) != 5 {
		t.Fatalf("topk on the chain: status %d, %d n-grams", s, len(tk.NGrams))
	}
	var pr PrefixResponse
	if s := getStrict(t, client, ts.URL+"/v1/prefix?q=the+rose&limit=1", &pr); s != http.StatusOK || pr.Count != 1 {
		t.Fatalf("prefix on the chain: status %d, %d n-grams", s, pr.Count)
	}
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`ngramsd_topk_merged_total{index="live"} 1`,
		`ngramsd_topk_scans_total{index="live"} 0`,
		`ngramsd_prefix_scans_total{index="live"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if folded := `ngramsd_prefix_records_folded_total{index="live"} `; !strings.Contains(string(body), folded) || strings.Contains(string(body), folded+"0\n") {
		t.Fatalf("metrics do not count the records the prefix scan read:\n%s", body)
	}

	var cr CompactResponse
	if s := postJSON(t, client, ts.URL+"/v1/admin/compact", nil, &cr); s != http.StatusOK {
		t.Fatalf("compact: status %d (%+v)", s, cr)
	}
	if !cr.Compacted || cr.Generations != 2 || cr.Generation <= before.Generation {
		t.Fatalf("compact response = %+v, want 2 generations merged into a newer index generation", cr)
	}
	man, err := lsm.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Deltas) != 0 || man.Base.Dir == "." {
		t.Fatalf("post-compaction chain: base %q, %d deltas", man.Base.Dir, len(man.Deltas))
	}

	// Identical answers from the compacted base.
	var after LookupResponse
	if s := getStrict(t, client, ts.URL+"/v1/lookup?q=the+rose", &after); s != http.StatusOK {
		t.Fatalf("lookup after compact: status %d", s)
	}
	if after.Found != before.Found || after.NGram.Frequency != before.NGram.Frequency {
		t.Fatalf("compaction changed the answer: %+v vs %+v", after, before)
	}

	// Compacting again is a successful no-op.
	if s := postJSON(t, client, ts.URL+"/v1/admin/compact", nil, &cr); s != http.StatusOK {
		t.Fatalf("no-op compact: status %d", s)
	}
	if cr.Compacted {
		t.Fatalf("no-op compact = %+v, want Compacted false", cr)
	}
}

// TestChainHotSwapUnderLoad is the swap drill: eight query clients
// hammer a chain-backed index while the writer appends delta after
// delta and compacts in between, every mutation hot-swapped in through
// Reload. Not a single request may fail.
func TestChainHotSwapUnderLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idx")
	docs := []string{
		"the rose is red. the rose is a rose.",
		"a rose by any other name. the red rose.",
	}
	years := []int{2020, 2021}
	c, err := ngramstats.FromText("drill", docs, years)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ngramstats.Count(context.Background(), c,
		ngramstats.Options{MinFrequency: 1, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.SaveWith(dir, ngramstats.SaveOptions{TempDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	res.Release()

	srv, ts := newTestServer(t, dir, nil)
	client := ts.Client()

	var (
		stop     atomic.Bool
		failures atomic.Int64
		queries  atomic.Int64
		wg       sync.WaitGroup
	)
	urls := []string{
		ts.URL + "/v1/lookup?q=the+rose&index=nyt",
		ts.URL + "/v1/topk?k=5&index=nyt",
		ts.URL + "/v1/prefix?q=rose&limit=10&index=nyt",
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for !stop.Load() {
				resp, err := client.Get(urls[i%len(urls)])
				if err != nil {
					failures.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				resp.Body.Close()
				queries.Add(1)
			}
		}(i)
	}

	// Every client completes at least one request before the first
	// mutation, so the drill genuinely overlaps queries with appends,
	// compactions, and swaps even on a loaded machine.
	for queries.Load() < 8 {
		time.Sleep(time.Millisecond)
	}

	// The writer: appends and compactions, each swapped in hot. All
	// mutations run from this one goroutine (single-writer contract);
	// the races under test are mutation-vs-query and swap-vs-query.
	for round := 0; round < 4; round++ {
		for d := 0; d < 2; d++ {
			batch := []ngramstats.Document{{
				Text: fmt.Sprintf("the rose round %d batch %d. a new rose blooms.", round, d),
				Year: 2022,
			}}
			if _, err := ngramstats.AppendDelta(context.Background(), dir, batch,
				ngramstats.AppendOptions{Count: ngramstats.Options{TempDir: t.TempDir()}}); err != nil {
				t.Fatalf("append round %d: %v", round, err)
			}
			if _, err := srv.Reload("nyt"); err != nil {
				t.Fatalf("reload round %d: %v", round, err)
			}
		}
		stats, _, err := srv.CompactNow("nyt")
		if err != nil {
			t.Fatalf("compact round %d: %v", round, err)
		}
		if !stats.Compacted {
			t.Fatalf("compact round %d did not run", round)
		}
	}
	stop.Store(true)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed during the swap drill", n, queries.Load())
	}
	if queries.Load() == 0 {
		t.Fatal("drill produced no queries")
	}

	// The final state answers every appended phrase.
	var lr LookupResponse
	if s := getStrict(t, client, ts.URL+"/v1/lookup?q=a+new+rose+blooms&index=nyt", &lr); s != http.StatusOK || !lr.Found {
		t.Fatalf("post-drill lookup: status %d found %v", s, lr.Found)
	}
	if lr.NGram.Frequency != 8 {
		t.Fatalf("post-drill frequency %d, want 8 (one per appended batch)", lr.NGram.Frequency)
	}
}
