package serving

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ngramstats"
	"ngramstats/internal/lsm"
)

// liveDocs is a small fixed stream with known exact counts.
func liveDocs(n int) []WireDocument {
	docs := make([]WireDocument, n)
	for i := range docs {
		docs[i] = WireDocument{
			Text: fmt.Sprintf("the rose is red. the rose w%d is a rose.", i%7),
			Year: 2020 + i%2,
		}
	}
	return docs
}

// newLiveServer starts a server in live-ingest mode over an initially
// empty index directory, at τ = 1 unless tweak says otherwise.
func newLiveServer(t testing.TB, tweak func(*ServerOptions)) (*Server, *httptest.Server, *ngramstats.StreamIngester) {
	t.Helper()
	si, err := ngramstats.NewStreamIngester(ngramstats.IngestOptions{
		Epsilon: 0.001, Delta: 0.02, MaxLength: 3, TopK: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "live-idx")
	opts := ServerOptions{
		Indexes: map[string]IndexConfig{"live": {Dir: dir}},
		Live: &LiveConfig{
			Ingester: si,
			Index:    "live",
			Count:    ngramstats.Options{MinFrequency: 1, TempDir: t.TempDir()},
		},
	}
	if tweak != nil {
		tweak(&opts)
	}
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, si
}

func TestLiveDisabled(t *testing.T) {
	_, dir := buildServedIndex(t)
	_, ts := newTestServer(t, dir, nil)
	var e ErrorResponse
	if s := getJSON(t, ts.Client(), ts.URL+"/v1/approx/lookup?q=the", &e); s != http.StatusNotImplemented {
		t.Fatalf("approx lookup without live mode: status %d", s)
	}
	if s := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", IngestRequest{Docs: liveDocs(1)}, &e); s != http.StatusNotImplemented {
		t.Fatalf("ingest without live mode: status %d", s)
	}
	if s := postJSON(t, ts.Client(), ts.URL+"/v1/admin/reconcile", nil, &e); s != http.StatusNotImplemented {
		t.Fatalf("reconcile without live mode: status %d", s)
	}
}

// TestLiveIngestApproxReconcileExact is the acceptance flow: ingest
// documents, serve approximate counts immediately with stated bounds,
// reconcile, and then serve exact counts identical to a batch Count
// over the same documents.
func TestLiveIngestApproxReconcileExact(t *testing.T) {
	_, ts, si := newLiveServer(t, nil)
	client := ts.Client()

	// Before any ingest: healthy, no generation, live flagged.
	var health HealthResponse
	if s := getStrict(t, client, ts.URL+"/healthz", &health); s != http.StatusOK {
		t.Fatalf("healthz on empty live server: status %d", s)
	}
	if health.Status != "ok" || !health.Indexes["live"].Live || health.Indexes["live"].Generation != 0 {
		t.Fatalf("empty live health = %+v", health)
	}
	if health.Live == nil || health.Live.Index != "live" || health.Live.Docs != 0 {
		t.Fatalf("live section = %+v", health.Live)
	}

	// Exact endpoints on the not-yet-materialized index are a clean 503.
	var e ErrorResponse
	if s := getJSON(t, client, ts.URL+"/v1/lookup?q=the+rose", &e); s != http.StatusServiceUnavailable {
		t.Fatalf("exact lookup before first reconcile: status %d", s)
	}

	docs := liveDocs(40)
	var ing IngestResponse
	if s := postJSON(t, client, ts.URL+"/v1/ingest", IngestRequest{Docs: docs}, &ing); s != http.StatusOK {
		t.Fatalf("ingest: status %d", s)
	}
	if ing.Ingested != len(docs) || ing.Docs != int64(len(docs)) || ing.Pending != int64(len(docs)) {
		t.Fatalf("ingest response = %+v", ing)
	}

	// Exact oracle: a pure batch run over the same documents.
	ndocs := make([]ngramstats.Document, len(docs))
	for i, d := range docs {
		ndocs[i] = ngramstats.Document{ID: d.ID, Text: d.Text, Year: d.Year, Web: d.Web}
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
	oracle, err := ngramstats.Count(context.Background(), oracleCorpus, ngramstats.Options{
		MinFrequency: 1, MaxLength: 3, TempDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Release()

	// Approximate answers immediately, with approx: true, one-sided
	// estimates, and stated bounds.
	checkApprox := func(phrase string, wantGen int64) ApproxLookupResponse {
		t.Helper()
		var al ApproxLookupResponse
		if s := getStrict(t, client, ts.URL+"/v1/approx/lookup?q="+strings.ReplaceAll(phrase, " ", "+"), &al); s != http.StatusOK {
			t.Fatalf("approx lookup %q: status %d", phrase, s)
		}
		if !al.Approx {
			t.Fatalf("approx lookup %q: approx flag not set", phrase)
		}
		if al.Generation != wantGen {
			t.Fatalf("approx lookup %q: generation %d, want %d", phrase, al.Generation, wantGen)
		}
		ng, found, err := oracle.Lookup(phrase)
		if err != nil {
			t.Fatal(err)
		}
		exact := int64(0)
		if found {
			exact = ng.Frequency
		}
		if al.Estimate < exact {
			t.Fatalf("approx lookup %q: estimate %d below exact %d", phrase, al.Estimate, exact)
		}
		if al.Estimate > exact+al.Bound {
			t.Fatalf("approx lookup %q: estimate %d exceeds exact %d + bound %d", phrase, al.Estimate, exact, al.Bound)
		}
		return al
	}
	pre := checkApprox("the rose", 0)
	if pre.Exact != 0 || pre.Delta != pre.Estimate {
		t.Fatalf("pre-reconcile split = %+v, want all-delta", pre)
	}
	checkApprox("rose", 0)
	checkApprox("is a rose", 0)

	var atk ApproxTopKResponse
	if s := getStrict(t, client, ts.URL+"/v1/approx/topk?k=5", &atk); s != http.StatusOK {
		t.Fatalf("approx topk: status %d", s)
	}
	if !atk.Approx || len(atk.NGrams) != 5 {
		t.Fatalf("approx topk = %+v", atk)
	}
	top1, err := oracle.TopK(1)
	if err != nil {
		t.Fatal(err)
	}
	if atk.NGrams[0].Phrase != top1[0].Text {
		t.Fatalf("approx top-1 = %q, exact top-1 = %q", atk.NGrams[0].Phrase, top1[0].Text)
	}

	// Reconcile: the exact job runs, the index materializes, the delta
	// resets.
	var rec ReconcileResponse
	if s := postJSON(t, client, ts.URL+"/v1/admin/reconcile", nil, &rec); s != http.StatusOK {
		t.Fatalf("reconcile: status %d", s)
	}
	if !rec.Applied || rec.Docs != int64(len(docs)) || rec.Generation != 1 {
		t.Fatalf("reconcile response = %+v", rec)
	}
	if si.Pending() != 0 {
		t.Fatalf("pending after reconcile = %d", si.Pending())
	}

	// Exact endpoints now serve, identical to the batch oracle.
	var lr LookupResponse
	if s := getStrict(t, client, ts.URL+"/v1/lookup?q=the+rose", &lr); s != http.StatusOK {
		t.Fatalf("exact lookup after reconcile: status %d", s)
	}
	ng, found, err := oracle.Lookup("the rose")
	if err != nil || !found {
		t.Fatalf("oracle lookup: %v %v", found, err)
	}
	if !lr.Found || lr.NGram.Frequency != ng.Frequency {
		t.Fatalf("exact lookup = %+v, oracle frequency %d", lr, ng.Frequency)
	}

	// Approximate answers are now exact + empty delta: the same counts,
	// bound 0.
	post := checkApprox("the rose", 1)
	if post.Delta != 0 || post.Bound != 0 || post.Exact != ng.Frequency || post.Estimate != ng.Frequency {
		t.Fatalf("post-reconcile approx = %+v, want pure exact %d", post, ng.Frequency)
	}

	// Reconcile with nothing pending is a clean no-op.
	if s := postJSON(t, client, ts.URL+"/v1/admin/reconcile", nil, &rec); s != http.StatusOK {
		t.Fatalf("no-op reconcile: status %d", s)
	}
	if rec.Applied || rec.Generation != 1 {
		t.Fatalf("no-op reconcile response = %+v", rec)
	}

	// Health now reports the reconciled generation and live counters.
	if s := getStrict(t, client, ts.URL+"/healthz", &health); s != http.StatusOK {
		t.Fatalf("healthz: status %d", s)
	}
	ih := health.Indexes["live"]
	if !ih.Live || ih.Generation != 1 || ih.Records == 0 {
		t.Fatalf("post-reconcile index health = %+v", ih)
	}
	if health.Live.Reconciles != 1 || health.Live.Covered != int64(len(docs)) {
		t.Fatalf("post-reconcile live section = %+v", health.Live)
	}

	// Metrics carry the live gauges and the per-reason shed counters.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(b)
	for _, want := range []string{
		"ngramsd_live_docs_total 40",
		"ngramsd_live_pending_docs 0",
		"ngramsd_reconciles_total 1",
		"ngramsd_live_sketch_bytes",
		`ngramsd_shed_total{endpoint="ingest"} 0`,
		`ngramsd_shed_reason_total{endpoint="ingest",reason="queue_full"} 0`,
		`ngramsd_shed_reason_total{endpoint="approx_lookup",reason="timeout"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestLiveIngestValidation(t *testing.T) {
	_, ts, _ := newLiveServer(t, func(o *ServerOptions) {
		o.Live.MaxBatch = 4
	})
	client := ts.Client()
	var e ErrorResponse
	if s := postJSON(t, client, ts.URL+"/v1/ingest", IngestRequest{}, &e); s != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", s)
	}
	if s := postJSON(t, client, ts.URL+"/v1/ingest", IngestRequest{Docs: liveDocs(5)}, &e); s != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, err %q", s, e.Error)
	}
	if s := getJSON(t, client, ts.URL+"/v1/approx/lookup?q=a+b+c+d", &e); s != http.StatusBadRequest {
		t.Fatalf("over-length phrase: status %d", s)
	}
	if s := getJSON(t, client, ts.URL+"/v1/approx/lookup", &e); s != http.StatusBadRequest {
		t.Fatalf("missing q: status %d", s)
	}
}

func TestHealthzWatchInterval(t *testing.T) {
	_, dir := buildServedIndex(t)
	_, ts := newTestServer(t, dir, func(o *ServerOptions) {
		o.WatchInterval = 250 * time.Millisecond
	})
	var health HealthResponse
	if s := getStrict(t, ts.Client(), ts.URL+"/healthz", &health); s != http.StatusOK {
		t.Fatalf("healthz: status %d", s)
	}
	if health.WatchInterval != "250ms" {
		t.Fatalf("watch_interval = %q, want 250ms", health.WatchInterval)
	}
}

// TestApproxSketchBeforeGeneration forces the interleaving that made
// the approximate endpoints under-count: a reconciliation reloads and
// commits between the moment a query reads the sketch delta and the
// moment it pins the exact generation. Whichever generation the query
// then pins, exact + delta must not fall below the true count.
func TestApproxSketchBeforeGeneration(t *testing.T) {
	srv, ts, _ := newLiveServer(t, nil)
	client := ts.Client()
	ingest := func(n int) {
		t.Helper()
		if s := postJSON(t, client, ts.URL+"/v1/ingest", IngestRequest{Docs: liveDocs(n)}, nil); s != http.StatusOK {
			t.Fatalf("ingest: status %d", s)
		}
	}
	reconcile := func() {
		t.Helper()
		if rec, err := srv.ReconcileNow(context.Background()); err != nil || !rec.Applied {
			t.Fatalf("reconcile: %+v, %v", rec, err)
		}
	}
	// Every query below runs one reconciliation inside the window.
	testHookSketchCaptured = func() {
		if rec, err := srv.ReconcileNow(context.Background()); err != nil || !rec.Applied {
			t.Errorf("reconcile inside the query: %+v, %v", rec, err)
		}
	}
	t.Cleanup(func() { testHookSketchCaptured = nil })

	docs := int64(0)
	for _, endpoint := range []string{"lookup", "topk"} {
		// A generation to pin and a pending delta for the forced
		// reconciliation to drain.
		ingest(10)
		reconcile()
		ingest(5)
		docs += 15
		// "rose" occurs three times in every document, more often than
		// any other n-gram.
		want := 3 * docs
		var got ApproxNGram
		if endpoint == "lookup" {
			var al ApproxLookupResponse
			if s := getStrict(t, client, ts.URL+"/v1/approx/lookup?q=rose", &al); s != http.StatusOK {
				t.Fatalf("approx lookup: status %d", s)
			}
			got = al.ApproxNGram
		} else {
			var at ApproxTopKResponse
			if s := getStrict(t, client, ts.URL+"/v1/approx/topk?k=1", &at); s != http.StatusOK {
				t.Fatalf("approx topk: status %d", s)
			}
			if len(at.NGrams) != 1 || at.NGrams[0].Phrase != "rose" {
				t.Fatalf("approx topk = %+v, want rose first", at.NGrams)
			}
			got = at.NGrams[0]
		}
		if got.Estimate < want {
			t.Errorf("approx %s: estimate %d (exact %d + delta %d) below the true count %d",
				endpoint, got.Estimate, got.Exact, got.Delta, want)
		}
	}
}

// TestReconcileRetriesOnlyTheReload: a reload that fails after the
// append leaves the documents in the chain, so the reconciliation stays
// open — its delta still counting them, estimates one-sided — and the
// next one reloads without appending them a second time.
func TestReconcileRetriesOnlyTheReload(t *testing.T) {
	srv, ts, si := newLiveServer(t, nil)
	dir := srv.handles["live"].cfg.Dir
	client := ts.Client()
	ctx := context.Background()
	for _, n := range []int{5, 3} {
		if s := postJSON(t, client, ts.URL+"/v1/ingest", IngestRequest{Docs: liveDocs(n)}, nil); s != http.StatusOK {
			t.Fatalf("ingest: status %d", s)
		}
		if n == 5 {
			if _, err := srv.ReconcileNow(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Hide the chain manifest between the append and the reload.
	chain, hidden := filepath.Join(dir, lsm.ChainFile), dir+".chain"
	testHookAppended = func() {
		if err := os.Rename(chain, hidden); err != nil {
			t.Error(err)
		}
	}
	_, err := srv.ReconcileNow(ctx)
	testHookAppended = nil
	if err == nil {
		t.Fatal("reconcile with a failing reload succeeded")
	}
	if err := os.Rename(hidden, chain); err != nil {
		t.Fatal(err)
	}
	var al ApproxLookupResponse
	if s := getStrict(t, client, ts.URL+"/v1/approx/lookup?q=the+rose", &al); s != http.StatusOK || al.Estimate < 16 {
		t.Fatalf("approx lookup after the failed reload: status %d, %+v; want an estimate of at least 16", s, al)
	}
	if si.Pending() != 3 {
		t.Fatalf("after the failed reload %d documents pending, want 3", si.Pending())
	}

	rec, err := srv.ReconcileNow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Applied || rec.AppendedDocs != 0 || rec.Docs != 8 || si.Pending() != 0 {
		t.Fatalf("retried reconcile = %+v with %d pending; want the reload alone, covering 8 documents", rec, si.Pending())
	}
	man, err := lsm.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Deltas) != 1 || man.Docs != 8 {
		t.Fatalf("chain of %d deltas over %d documents, want 1 delta over 8", len(man.Deltas), man.Docs)
	}
	var lr LookupResponse
	if s := getStrict(t, client, ts.URL+"/v1/lookup?q=the+rose", &lr); s != http.StatusOK || lr.NGram == nil || lr.NGram.Frequency != 16 {
		t.Fatalf("lookup after the retry: status %d, %+v; want frequency 16", s, lr)
	}
}

// TestLiveSwapDrill extends the PR 7 hot-swap drill: clients hammer the
// approximate endpoints and keep ingesting while reconcile cycles swap
// fresh exact generations in. Every request must succeed — zero 5xx,
// zero connection errors — and estimates must never drop below the
// exact counts of what had been ingested when the query started.
func TestLiveSwapDrill(t *testing.T) {
	srv, ts, _ := newLiveServer(t, nil)
	client := ts.Client()

	if s := postJSON(t, client, ts.URL+"/v1/ingest", IngestRequest{Docs: liveDocs(10)}, nil); s != http.StatusOK {
		t.Fatalf("seed ingest: status %d", s)
	}

	// "the rose" appears twice per document; with D documents ingested
	// at request time the estimate must be >= 2*D_committed_before.
	var ingested atomic.Int64
	ingested.Store(10)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Ingester: keeps feeding batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := client.Post(ts.URL+"/v1/ingest", "application/json",
				strings.NewReader(`{"docs":[{"text":"the rose is red. the rose is a rose."}]}`))
			if err != nil {
				report("ingest: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				report("ingest: status %d", resp.StatusCode)
				return
			}
			ingested.Add(1)
		}
	}()

	// Queriers: hammer the approximate endpoints through the swaps.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := 2 * ingested.Load()
				var al ApproxLookupResponse
				resp, err := client.Get(ts.URL + "/v1/approx/lookup?q=the+rose")
				if err != nil {
					report("approx lookup: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					report("approx lookup: status %d (%s)", resp.StatusCode, body)
					return
				}
				if err := json.Unmarshal(body, &al); err != nil {
					report("approx lookup decode: %v", err)
					return
				}
				if al.Estimate < floor {
					report("approx lookup: estimate %d below floor %d across swap", al.Estimate, floor)
					return
				}
				resp, err = client.Get(ts.URL + "/v1/approx/topk?k=3")
				if err != nil {
					report("approx topk: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					report("approx topk: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	// Reconciler: three full cycles while the hammering runs.
	var lastGen int64
	for cycle := 0; cycle < 3; cycle++ {
		time.Sleep(50 * time.Millisecond)
		rec, err := srv.ReconcileNow(context.Background())
		if err != nil {
			t.Fatalf("reconcile cycle %d: %v", cycle, err)
		}
		if rec.Applied && rec.Generation <= lastGen {
			t.Fatalf("cycle %d: generation %d did not advance past %d", cycle, rec.Generation, lastGen)
		}
		if rec.Applied {
			lastGen = rec.Generation
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if lastGen == 0 {
		t.Fatal("no reconcile cycle applied")
	}

	// After the dust settles: one more reconcile, then the exact lookup
	// must equal 2 × total documents ingested.
	rec, err := srv.ReconcileNow(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_ = rec
	var lr LookupResponse
	if s := getStrict(t, client, ts.URL+"/v1/lookup?q=the+rose", &lr); s != http.StatusOK {
		t.Fatalf("final exact lookup: status %d", s)
	}
	if want := 2 * ingested.Load(); !lr.Found || lr.NGram.Frequency != want {
		t.Fatalf("final exact count = %+v, want %d", lr.NGram, want)
	}
}
