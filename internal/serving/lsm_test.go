package serving

import (
	"context"
	"fmt"
	"io"
	"net/http"
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

// TestLiveRetryAfterBeforeMaterialization: the 503 served before the
// first reconciliation materializes a live index carries a Retry-After
// hint, so well-behaved clients back off instead of hammering.
func TestLiveRetryAfterBeforeMaterialization(t *testing.T) {
	_, ts, _ := newLiveServer(t, nil)
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

// TestIncrementalReconcile: a live server at τ = 2 appends each
// reconcile's new documents — and only those, asserted through the
// job's MAP_INPUT_RECORDS counter — to its directory, which is a chain
// from the first reconcile on and answers exactly as a batch Count at
// τ = 2 over the whole stream.
func TestIncrementalReconcile(t *testing.T) {
	srv, ts, _ := newLiveServer(t, func(o *ServerOptions) { o.Live.Count.MinFrequency = 2 })
	dir := srv.handles["live"].cfg.Dir
	client := ts.Client()

	// "a lone heron" occurs once in the stream: below τ.
	first := liveDocs(12)
	second := append(liveDocs(17)[12:], WireDocument{Text: "a lone heron."})
	for i, batch := range [][]WireDocument{first, second} {
		if s := postJSON(t, client, ts.URL+"/v1/ingest", IngestRequest{Docs: batch}, nil); s != http.StatusOK {
			t.Fatalf("ingest %d: status %d", i, s)
		}
		var rec ReconcileResponse
		if s := postJSON(t, client, ts.URL+"/v1/admin/reconcile", nil, &rec); s != http.StatusOK {
			t.Fatalf("reconcile %d: status %d", i, s)
		}
		if !rec.Applied || rec.AppendedDocs != int64(len(batch)) || rec.MapInputRecords != int64(len(batch)) {
			t.Fatalf("reconcile %d = %+v, want %d documents appended and read (O(new documents))", i, rec, len(batch))
		}
		man, err := lsm.ReadManifest(dir)
		if err != nil {
			t.Fatalf("reconcile %d must leave an LSM chain: %v", i, err)
		}
		if len(man.Deltas) != i || man.MinFrequency != 2 || man.Docs != rec.Docs {
			t.Fatalf("chain after reconcile %d: %d deltas at τ %d over %d docs", i, len(man.Deltas), man.MinFrequency, man.Docs)
		}
	}

	// The merged view answers exactly like a batch job over the stream.
	all := append(append([]WireDocument(nil), first...), second...)
	oracleCorpus, err := ngramstats.FromDocuments(context.Background(), "live",
		func(yield func(ngramstats.Document, error) bool) {
			for _, d := range all {
				if !yield(ngramstats.Document{Text: d.Text, Year: d.Year}, nil) {
					return
				}
			}
		}, ngramstats.BuilderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := ngramstats.Count(context.Background(), oracleCorpus,
		ngramstats.Options{MinFrequency: 2, MaxLength: 3, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Release()
	for _, q := range []string{"the rose", "rose is red", "the rose w3", "lone heron", "a lone", "never seen"} {
		wantNG, wantOK, err := oracle.Lookup(q)
		if err != nil {
			t.Fatal(err)
		}
		var lr LookupResponse
		if s := getStrict(t, client, ts.URL+"/v1/lookup?q="+url.QueryEscape(q), &lr); s != http.StatusOK {
			t.Fatalf("lookup %q: status %d", q, s)
		}
		if lr.Found != wantOK || wantOK && lr.NGram.Frequency != wantNG.Frequency {
			t.Fatalf("lookup %q: %+v, oracle found=%v %+v", q, lr, wantOK, wantNG)
		}
	}
	wantTop, err := oracle.TopK(int(oracle.Len()) + 5)
	if err != nil {
		t.Fatal(err)
	}
	var tk TopKResponse
	if s := getStrict(t, client, ts.URL+fmt.Sprintf("/v1/topk?k=%d", len(wantTop)+5), &tk); s != http.StatusOK {
		t.Fatalf("topk: status %d", s)
	}
	if len(tk.NGrams) != len(wantTop) {
		t.Fatalf("topk returned %d n-grams, oracle %d", len(tk.NGrams), len(wantTop))
	}
	for i, ng := range tk.NGrams {
		if ng.Text != wantTop[i].Text || ng.Frequency != wantTop[i].Frequency {
			t.Fatalf("topk[%d] = %s:%d, oracle %s:%d", i, ng.Text, ng.Frequency, wantTop[i].Text, wantTop[i].Frequency)
		}
	}

	// With nothing pending, reconcile is a clean no-op.
	var rec ReconcileResponse
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
	srv, ts, _ := newLiveServer(t, nil)
	dir := srv.handles["live"].cfg.Dir
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
	if rec.AppendedDocs != 4 {
		t.Fatalf("second reconcile = %+v, want 4 documents appended", rec)
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
	// The merge's point gets are counted once: the served view keeps the
	// list it proved, and a repeated or shallower top-k reads it.
	const getsSeries, mergedSeries = `ngramsd_topk_point_gets_total{index="live"}`, `ngramsd_topk_merged_total{index="live"}`
	gets := scrapeTotals(t, client, ts.URL)[getsSeries]
	if gets == 0 {
		t.Fatalf("%s is 0 after a chain top-k", getsSeries)
	}
	for _, k := range []int{5, 3} {
		if s := getStrict(t, client, fmt.Sprintf("%s/v1/topk?k=%d", ts.URL, k), &tk); s != http.StatusOK || len(tk.NGrams) != k {
			t.Fatalf("topk k=%d on the chain: status %d, %d n-grams", k, s, len(tk.NGrams))
		}
	}
	if totals := scrapeTotals(t, client, ts.URL); totals[getsSeries] != gets || totals[mergedSeries] != 3 {
		t.Fatalf("after two more top-k: %s = %v (was %v), %s = %v; want unchanged and 3",
			getsSeries, totals[getsSeries], gets, mergedSeries, totals[mergedSeries])
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
