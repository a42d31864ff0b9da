package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ngramstats"
)

// buildServedIndex computes statistics over a synthetic corpus, saves
// them, and returns the live Result (the oracle) plus the saved index
// directory. Re-saving the Result into the directory with Replace
// produces a fresh generation with identical answers — the fixture of
// every hot-swap test.
func buildServedIndex(t testing.TB) (*ngramstats.Result, string) {
	t.Helper()
	corpus := ngramstats.SyntheticNYT(60, 7)
	res, err := ngramstats.Count(context.Background(), corpus, ngramstats.Options{
		MinFrequency: 3, MaxLength: 4, Combiner: true, TempDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { res.Release() })
	if res.Len() == 0 {
		t.Fatal("synthetic corpus produced no n-grams")
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := res.SaveWith(dir, saveOpts(false)); err != nil {
		t.Fatal(err)
	}
	return res, dir
}

func saveOpts(replace bool) ngramstats.SaveOptions {
	return ngramstats.SaveOptions{Shards: 3, TopDepth: 64, Replace: replace}
}

// newTestServer serves the directory as index "nyt" with the given
// option tweaks applied on top of the test defaults.
func newTestServer(t testing.TB, dir string, tweak func(*ServerOptions)) (*Server, *httptest.Server) {
	t.Helper()
	opts := ServerOptions{Indexes: map[string]IndexConfig{"nyt": {Dir: dir}}}
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
	return srv, ts
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s: %v (body %q)", url, err, body)
		}
	}
	return resp.StatusCode
}

// getStrict fetches url and decodes the body with unknown JSON fields
// disallowed — the golden check that a /v1 response carries exactly
// its documented wire schema.
func getStrict(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		t.Fatalf("strict decode %s into %T: %v (body %q)", url, out, err, body)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, client *http.Client, url string, req, out any) int {
	t.Helper()
	var body io.Reader
	if req != nil {
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(data)
	}
	resp, err := client.Post(url, "application/json", body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if out != nil {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(out); err != nil {
			t.Fatalf("strict decode %s into %T: %v (body %q)", url, out, err, data)
		}
	}
	return resp.StatusCode
}

// TestServingEndToEnd is the serving oracle test: concurrent HTTP
// clients query a saved index and every response must match the
// in-process Result's answer. CI's race job runs it under -race.
func TestServingEndToEnd(t *testing.T) {
	res, dir := buildServedIndex(t)
	_, ts := newTestServer(t, dir, nil)

	// Oracle answers, computed once from the live Result.
	top, err := res.TopK(20)
	if err != nil {
		t.Fatal(err)
	}
	type oracleEntry struct {
		ng    ngramstats.NGram
		found bool
	}
	oracle := make(map[string]oracleEntry)
	for ng, oerr := range res.NGrams() {
		if oerr != nil {
			t.Fatal(oerr)
		}
		oracle[ng.Text] = oracleEntry{ng: ng, found: true}
	}
	// A few guaranteed misses.
	for _, miss := range []string{"zzz qqq xyzzy", "no such phrase whatsoever"} {
		oracle[miss] = oracleEntry{}
	}
	phrases := make([]string, 0, len(oracle))
	for p := range oracle {
		phrases = append(phrases, p)
	}

	const clients = 32
	const perClient = 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < perClient; i++ {
				p := phrases[(c*perClient+i*13)%len(phrases)]
				want := oracle[p]
				var got LookupResponse
				status := getJSON(t, client, ts.URL+"/v1/lookup?q="+urlQuery(p), &got)
				if status != http.StatusOK {
					t.Errorf("client %d: /v1/lookup status %d", c, status)
					return
				}
				if got.Found != want.found || got.Generation != 1 {
					t.Errorf("client %d: /v1/lookup(%q) = %+v, oracle found=%v", c, p, got, want.found)
					return
				}
				if want.found && !reflect.DeepEqual(*got.NGram, toWire(want.ng)) {
					t.Errorf("client %d: /v1/lookup(%q) = %+v, oracle %+v", c, p, *got.NGram, toWire(want.ng))
					return
				}
				// Every few requests, cross-check /topk against the oracle.
				if i%10 == 0 {
					var tr TopKResponse
					if s := getJSON(t, client, ts.URL+"/v1/topk?k=20", &tr); s != http.StatusOK {
						t.Errorf("client %d: /v1/topk status %d", c, s)
						return
					}
					if len(tr.NGrams) != len(top) {
						t.Errorf("client %d: /v1/topk returned %d, oracle %d", c, len(tr.NGrams), len(top))
						return
					}
					for j := range top {
						if !reflect.DeepEqual(tr.NGrams[j], toWire(top[j])) {
							t.Errorf("client %d: /v1/topk[%d] = %+v, oracle %+v", c, j, tr.NGrams[j], toWire(top[j]))
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// After the storm, metrics reflect the traffic and cache activity.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		`ngramsd_requests_total{endpoint="lookup"}`,
		`ngramsd_block_cache_hits_total{index="nyt"}`,
		`ngramsd_index_records{index="nyt"}`,
		`ngramsd_index_generation{index="nyt"} 1`,
		`ngramsd_index_swaps_total{index="nyt"} 0`,
		`ngramsd_inflight{endpoint="lookup"} 0`,
		`ngramsd_shed_total{endpoint="lookup"} 0`,
		`ngramsd_latency_bucket{endpoint="lookup",le="+Inf"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	var lookups int64
	fmt.Sscanf(findLine(metrics, `ngramsd_requests_total{endpoint="lookup"}`), "%d", &lookups)
	if lookups < clients*perClient {
		t.Fatalf("metrics count %d lookups, expected >= %d", lookups, clients*perClient)
	}
}

// urlQuery escapes a phrase for use as a query parameter.
func urlQuery(p string) string {
	return strings.ReplaceAll(p, " ", "+")
}

// findLine returns the remainder of the first metrics line starting
// with prefix.
func findLine(metrics, prefix string) string {
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, prefix) {
			return strings.TrimSpace(strings.TrimPrefix(line, prefix))
		}
	}
	return ""
}

func TestServingPrefixEndpoint(t *testing.T) {
	res, dir := buildServedIndex(t)
	_, ts := newTestServer(t, dir, nil)

	// Pick the most frequent unigram as a prefix with extensions.
	top, err := res.TopK(1)
	if err != nil || len(top) == 0 {
		t.Fatalf("TopK: %v", err)
	}
	word := strings.Fields(top[0].Text)[0]

	var pr PrefixResponse
	if s := getStrict(t, ts.Client(), ts.URL+"/v1/prefix?q="+urlQuery(word)+"&limit=50", &pr); s != http.StatusOK {
		t.Fatalf("/v1/prefix status %d", s)
	}
	if pr.Count == 0 {
		t.Fatalf("no extensions of %q", word)
	}
	for _, ng := range pr.NGrams {
		if ng.Text != word && !strings.HasPrefix(ng.Text, word+" ") {
			t.Fatalf("/v1/prefix returned non-extension %q of %q", ng.Text, word)
		}
		// Oracle agreement per phrase.
		want, ok, err := res.Lookup(ng.Text)
		if err != nil || !ok {
			t.Fatalf("oracle Lookup(%q): ok=%v err=%v", ng.Text, ok, err)
		}
		if !reflect.DeepEqual(ng, toWire(want)) {
			t.Fatalf("/v1/prefix %q = %+v, oracle %+v", ng.Text, ng, toWire(want))
		}
	}
	// The batch endpoint's prefix op answers with the same n-grams.
	var batch BatchResponse
	req := BatchRequest{Ops: []BatchOp{{Op: "prefix", Q: word, Limit: 50}}}
	if s := postJSON(t, ts.Client(), ts.URL+"/v1/query", req, &batch); s != http.StatusOK || len(batch.Results) != 1 {
		t.Fatalf("/v1/query status %d, %d results", s, len(batch.Results))
	}
	if got := batch.Results[0]; got.Count != pr.Count || !reflect.DeepEqual(got.NGrams, pr.NGrams) {
		t.Fatalf("/v1/query prefix op diverged from /v1/prefix: %d vs %d n-grams", got.Count, pr.Count)
	}
}

// TestServingWireSchemas pins the exact /v1 wire schema: every
// response must decode into its typed struct with unknown fields
// disallowed, with the documented values.
func TestServingWireSchemas(t *testing.T) {
	res, dir := buildServedIndex(t)
	_, ts := newTestServer(t, dir, func(o *ServerOptions) { o.LMOrder = 3 })
	client := ts.Client()

	top, err := res.TopK(3)
	if err != nil || len(top) == 0 {
		t.Fatalf("TopK: %v", err)
	}
	hit := top[0].Text

	var lr LookupResponse
	if s := getStrict(t, client, ts.URL+"/v1/lookup?q="+urlQuery(hit), &lr); s != http.StatusOK {
		t.Fatalf("/v1/lookup status %d", s)
	}
	if lr.Index != "nyt" || lr.Generation != 1 || lr.Query != hit || !lr.Found || lr.NGram == nil {
		t.Fatalf("/v1/lookup = %+v", lr)
	}
	var miss LookupResponse
	if s := getStrict(t, client, ts.URL+"/v1/lookup?q=xyzzy+qqq", &miss); s != http.StatusOK {
		t.Fatalf("/v1/lookup miss status %d", s)
	}
	if miss.Found || miss.NGram != nil {
		t.Fatalf("/v1/lookup miss = %+v", miss)
	}

	var pr PrefixResponse
	word := strings.Fields(hit)[0]
	if s := getStrict(t, client, ts.URL+"/v1/prefix?q="+urlQuery(word)+"&limit=5", &pr); s != http.StatusOK {
		t.Fatalf("/v1/prefix status %d", s)
	}
	if pr.Index != "nyt" || pr.Generation != 1 || pr.Count != len(pr.NGrams) || pr.Count == 0 {
		t.Fatalf("/v1/prefix = %+v", pr)
	}

	var tr TopKResponse
	if s := getStrict(t, client, ts.URL+"/v1/topk?k=3", &tr); s != http.StatusOK {
		t.Fatalf("/v1/topk status %d", s)
	}
	if tr.Index != "nyt" || tr.Generation != 1 || tr.K != 3 || len(tr.NGrams) != 3 {
		t.Fatalf("/v1/topk = %+v", tr)
	}

	var br BatchResponse
	req := BatchRequest{Ops: []BatchOp{{Op: "lookup", Q: hit}, {Op: "topk", K: 2}}}
	if s := postJSON(t, client, ts.URL+"/v1/query", req, &br); s != http.StatusOK {
		t.Fatalf("/v1/query status %d", s)
	}
	if br.Index != "nyt" || br.Generation != 1 || len(br.Results) != 2 {
		t.Fatalf("/v1/query = %+v", br)
	}

	var sr LMScoreResponse
	if s := getStrict(t, client, ts.URL+"/v1/lm/score?q="+urlQuery(hit), &sr); s != http.StatusOK {
		t.Fatalf("/v1/lm/score status %d", s)
	}
	if sr.Words != len(strings.Fields(hit)) || sr.LogProb >= 0 || math.IsNaN(sr.LogProb) {
		t.Fatalf("/v1/lm/score = %+v", sr)
	}

	var predr LMPredictResponse
	if s := getStrict(t, client, ts.URL+"/v1/lm/predict?q="+urlQuery(word)+"&k=3", &predr); s != http.StatusOK {
		t.Fatalf("/v1/lm/predict status %d", s)
	}
	if predr.Context != word || predr.K != 3 || len(predr.Predictions) == 0 {
		t.Fatalf("/v1/lm/predict = %+v", predr)
	}

	var hr HealthResponse
	if s := getStrict(t, client, ts.URL+"/v1/healthz", &hr); s != http.StatusOK {
		t.Fatalf("/v1/healthz status %d", s)
	}
	ih, ok := hr.Indexes["nyt"]
	if hr.Status != "ok" || !ok || ih.Generation != 1 || ih.Records != res.Len() || !ih.LM {
		t.Fatalf("/v1/healthz = %+v", hr)
	}
	if _, err := time.Parse(time.RFC3339Nano, ih.ManifestTime); err != nil {
		t.Fatalf("manifest_mtime %q not RFC 3339: %v", ih.ManifestTime, err)
	}

	var rr ReloadResponse
	if s := postJSON(t, client, ts.URL+"/v1/admin/reload", nil, &rr); s != http.StatusOK {
		t.Fatalf("/v1/admin/reload status %d", s)
	}
	if rr.Reloaded["nyt"] != 2 {
		t.Fatalf("/v1/admin/reload = %+v, want generation 2", rr)
	}

	var er ErrorResponse
	if s := getStrict(t, client, ts.URL+"/v1/lookup", &er); s != http.StatusBadRequest {
		t.Fatalf("/v1/lookup without q: status %d", s)
	}
	if er.Error == "" {
		t.Fatalf("error response carries no error text")
	}
}

// TestServingBatchQuery checks POST /v1/query against the oracle: op
// results in request order, per-op errors, and the batch size cap.
func TestServingBatchQuery(t *testing.T) {
	res, dir := buildServedIndex(t)
	_, ts := newTestServer(t, dir, func(o *ServerOptions) { o.MaxBatch = 8 })
	client := ts.Client()

	top, err := res.TopK(5)
	if err != nil || len(top) < 2 {
		t.Fatalf("TopK: %v", err)
	}
	word := strings.Fields(top[0].Text)[0]
	oix, err := ngramstats.OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer oix.Close()
	oraclePrefix, err := oix.Prefix(word, 7)
	if err != nil {
		t.Fatal(err)
	}

	req := BatchRequest{Ops: []BatchOp{
		{Op: "lookup", Q: top[1].Text},
		{Op: "lookup", Q: "xyzzy qqq never indexed"},
		{Op: "prefix", Q: word, Limit: 7},
		{Op: "topk", K: 5},
		{Op: "frobnicate"},
		{Op: "prefix", Q: word, Limit: -3},
		{Op: "lookup"},
	}}
	var br BatchResponse
	if s := postJSON(t, client, ts.URL+"/v1/query", req, &br); s != http.StatusOK {
		t.Fatalf("/v1/query status %d", s)
	}
	if len(br.Results) != len(req.Ops) {
		t.Fatalf("batch returned %d results for %d ops", len(br.Results), len(req.Ops))
	}
	r := br.Results
	if !r[0].Found || r[0].NGram == nil || !reflect.DeepEqual(*r[0].NGram, toWire(top[1])) {
		t.Fatalf("batch lookup hit = %+v, oracle %+v", r[0], toWire(top[1]))
	}
	if r[1].Found || r[1].Error != "" {
		t.Fatalf("batch lookup miss = %+v", r[1])
	}
	if r[2].Count != len(oraclePrefix) || len(r[2].NGrams) != len(oraclePrefix) {
		t.Fatalf("batch prefix count %d, oracle %d", r[2].Count, len(oraclePrefix))
	}
	for i := range oraclePrefix {
		if !reflect.DeepEqual(r[2].NGrams[i], toWire(oraclePrefix[i])) {
			t.Fatalf("batch prefix[%d] = %+v, oracle %+v", i, r[2].NGrams[i], toWire(oraclePrefix[i]))
		}
	}
	if len(r[3].NGrams) != 5 {
		t.Fatalf("batch topk returned %d", len(r[3].NGrams))
	}
	for i := range top {
		if !reflect.DeepEqual(r[3].NGrams[i], toWire(top[i])) {
			t.Fatalf("batch topk[%d] = %+v, oracle %+v", i, r[3].NGrams[i], toWire(top[i]))
		}
	}
	for i, wantFrag := range map[int]string{4: "unknown op", 5: "bad limit", 6: "missing q"} {
		if !strings.Contains(r[i].Error, wantFrag) {
			t.Fatalf("batch op %d error = %q, want %q", i, r[i].Error, wantFrag)
		}
	}

	// Caps and malformed batches.
	if s := postJSON(t, client, ts.URL+"/v1/query", BatchRequest{}, nil); s != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", s)
	}
	big := BatchRequest{Ops: make([]BatchOp, 9)}
	for i := range big.Ops {
		big.Ops[i] = BatchOp{Op: "topk", K: 1}
	}
	if s := postJSON(t, client, ts.URL+"/v1/query", big, nil); s != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", s)
	}
}

// TestServingLMEndpoints checks the language-model front end against a
// model built directly from the same index.
func TestServingLMEndpoints(t *testing.T) {
	res, dir := buildServedIndex(t)
	_, ts := newTestServer(t, dir, func(o *ServerOptions) { o.LMOrder = 3 })
	client := ts.Client()

	ix, err := ngramstats.OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	oracle, err := ngramstats.NewLanguageModelFromIndex(ix, 3)
	if err != nil {
		t.Fatal(err)
	}

	top, err := res.TopK(3)
	if err != nil || len(top) == 0 {
		t.Fatalf("TopK: %v", err)
	}
	phrase := top[len(top)-1].Text
	words := strings.Fields(phrase)

	var sr LMScoreResponse
	if s := getStrict(t, client, ts.URL+"/v1/lm/score?q="+urlQuery(phrase), &sr); s != http.StatusOK {
		t.Fatalf("/v1/lm/score status %d", s)
	}
	want := oracle.LogProb(words)
	if math.Abs(sr.LogProb-want) > 1e-9*math.Abs(want) {
		t.Fatalf("/v1/lm/score(%q) = %v, oracle %v", phrase, sr.LogProb, want)
	}

	ctxWord := strings.Fields(top[0].Text)[0]
	var pr LMPredictResponse
	if s := getStrict(t, client, ts.URL+"/v1/lm/predict?q="+urlQuery(ctxWord)+"&k=4", &pr); s != http.StatusOK {
		t.Fatalf("/v1/lm/predict status %d", s)
	}
	wantPred := oracle.Predict([]string{ctxWord}, 4)
	if len(pr.Predictions) != len(wantPred) {
		t.Fatalf("/v1/lm/predict returned %d, oracle %d", len(pr.Predictions), len(wantPred))
	}
	for i, p := range pr.Predictions {
		w := wantPred[i]
		if p.Word != w.Word || p.Frequency != w.Frequency || math.Abs(p.Score-w.Score) > 1e-12 {
			t.Fatalf("/v1/lm/predict[%d] = %+v, oracle %+v", i, p, w)
		}
	}

	// Without -lm the endpoints answer 501, not 404.
	_, tsNoLM := newTestServer(t, dir, nil)
	if s := getJSON(t, tsNoLM.Client(), tsNoLM.URL+"/v1/lm/score?q=x", nil); s != http.StatusNotImplemented {
		t.Fatalf("lm disabled: status %d, want 501", s)
	}
}

// TestServingHotSwapUnderLoad is the zero-downtime drill: clients
// hammer the server while the index directory is rewritten and
// reloaded several times. Every request must succeed, generations must
// advance, and each retired generation's files must close once its
// last in-flight request drains. Run under -race in CI.
func TestServingHotSwapUnderLoad(t *testing.T) {
	res, dir := buildServedIndex(t)
	srv, ts := newTestServer(t, dir, nil)

	top, err := res.TopK(10)
	if err != nil || len(top) == 0 {
		t.Fatalf("TopK: %v", err)
	}
	phrases := make([]string, len(top))
	for i, ng := range top {
		phrases[i] = ng.Text
	}

	stop := make(chan struct{})
	var requests, failures atomic.Int64
	var firstFailure atomic.Value
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := ts.URL + "/v1/lookup?q=" + urlQuery(phrases[(c+i)%len(phrases)])
				if i%5 == 0 {
					url = ts.URL + "/v1/topk?k=10"
				}
				resp, err := client.Get(url)
				if err != nil {
					failures.Add(1)
					firstFailure.CompareAndSwap(nil, fmt.Sprintf("GET %s: %v", url, err))
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				requests.Add(1)
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					firstFailure.CompareAndSwap(nil, fmt.Sprintf("GET %s: status %d body %s", url, resp.StatusCode, body))
					return
				}
			}
		}(c)
	}

	const flips = 5
	gens := []*generation{srv.handles["nyt"].gen.Load()}
	for flip := 0; flip < flips; flip++ {
		if err := res.SaveWith(dir, saveOpts(true)); err != nil {
			t.Fatalf("flip %d: rewrite index: %v", flip, err)
		}
		var rr ReloadResponse
		if s := postJSON(t, ts.Client(), ts.URL+"/v1/admin/reload", nil, &rr); s != http.StatusOK {
			t.Fatalf("flip %d: reload status %d", flip, s)
		}
		if want := int64(flip + 2); rr.Reloaded["nyt"] != want {
			t.Fatalf("flip %d: reloaded to generation %d, want %d", flip, rr.Reloaded["nyt"], want)
		}
		gens = append(gens, srv.handles["nyt"].gen.Load())
		time.Sleep(20 * time.Millisecond) // let traffic land on the new generation
	}
	close(stop)
	wg.Wait()

	if n := failures.Load(); n > 0 {
		t.Fatalf("%d of %d requests failed across %d hot swaps; first: %v",
			n, requests.Load()+n, flips, firstFailure.Load())
	}
	if requests.Load() < flips*8 {
		t.Fatalf("only %d requests completed — the drill exercised nothing", requests.Load())
	}

	// Every retired generation drains to zero references and closes its
	// files; the active one keeps its base reference.
	for i, g := range gens[:len(gens)-1] {
		deadline := time.Now().Add(2 * time.Second)
		for g.refs.Load() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if r := g.refs.Load(); r != 0 {
			t.Fatalf("generation %d still has %d references after drain", i+1, r)
		}
		if _, _, err := g.ix.Lookup(phrases[0]); !errors.Is(err, ngramstats.ErrIndexClosed) {
			t.Fatalf("generation %d still answers queries after retirement (err=%v)", i+1, err)
		}
	}
	last := gens[len(gens)-1]
	if r := last.refs.Load(); r != 1 {
		t.Fatalf("active generation has %d references, want 1", r)
	}
	if _, _, err := last.ix.Lookup(phrases[0]); err != nil {
		t.Fatalf("active generation refused a query: %v", err)
	}

	var metrics string
	{
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		metrics = string(b)
	}
	if got := findLine(metrics, `ngramsd_index_swaps_total{index="nyt"}`); got != fmt.Sprint(flips) {
		t.Fatalf("swap counter = %q, want %d", got, flips)
	}
	if got := findLine(metrics, `ngramsd_index_generation{index="nyt"}`); got != fmt.Sprint(flips+1) {
		t.Fatalf("generation gauge = %q, want %d", got, flips+1)
	}
}

// TestServingWatchReload checks the manifest watcher: rewriting the
// index directory is picked up without any admin call, and health
// stays green throughout.
func TestServingWatchReload(t *testing.T) {
	res, dir := buildServedIndex(t)
	srv, ts := newTestServer(t, dir, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Watch(ctx, 5*time.Millisecond)

	if err := res.SaveWith(dir, saveOpts(true)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var hr HealthResponse
		if s := getJSON(t, ts.Client(), ts.URL+"/healthz", &hr); s != http.StatusOK {
			t.Fatalf("/healthz status %d during watch reload", s)
		}
		if hr.Indexes["nyt"].Generation >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watcher never swapped: still at generation %d", hr.Indexes["nyt"].Generation)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServingLoadShedding saturates a 1-slot lookup gate and checks
// that excess requests are shed with 429 + Retry-After while the
// occupying request still succeeds.
func TestServingLoadShedding(t *testing.T) {
	_, dir := buildServedIndex(t)
	release := make(chan struct{})
	testHookQueryStart = func() { <-release }
	t.Cleanup(func() { testHookQueryStart = nil })
	srv, ts := newTestServer(t, dir, func(o *ServerOptions) {
		o.MaxInflight = 1
		o.MaxQueue = 1
		o.QueueTimeout = 50 * time.Millisecond
		o.RetryAfter = 2 * time.Second
	})

	// Request 1 takes the only slot and parks in the test hook.
	r1 := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/v1/lookup?q=x")
		if err != nil {
			r1 <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		r1 <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.epLookup.gate.inflight.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never occupied the gate")
		}
		time.Sleep(time.Millisecond)
	}

	// Requests 2 and 3: one fills the queue and times out, the other is
	// shed instantly. Both must get 429 with the Retry-After hint.
	type shedResult struct {
		status     int
		retryAfter string
	}
	results := make(chan shedResult, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := ts.Client().Get(ts.URL + "/v1/lookup?q=y")
			if err != nil {
				results <- shedResult{status: -1}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- shedResult{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
		}()
	}
	for i := 0; i < 2; i++ {
		got := <-results
		if got.status != http.StatusTooManyRequests {
			t.Fatalf("saturated request %d: status %d, want 429", i, got.status)
		}
		if got.retryAfter != "2" {
			t.Fatalf("saturated request %d: Retry-After %q, want \"2\"", i, got.retryAfter)
		}
	}

	close(release)
	if s := <-r1; s != http.StatusOK {
		t.Fatalf("occupying request finished with %d, want 200", s)
	}
	// The gate is free again and sheds are counted.
	if s := getJSON(t, ts.Client(), ts.URL+"/v1/lookup?q=z", nil); s != http.StatusOK {
		t.Fatalf("post-shed request: status %d", s)
	}
	var metrics string
	{
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		metrics = string(b)
	}
	if got := findLine(metrics, `ngramsd_shed_total{endpoint="lookup"}`); got != "2" {
		t.Fatalf("ngramsd_shed_total = %q, want 2", got)
	}
}

func TestServingValidationAndHealth(t *testing.T) {
	_, dir := buildServedIndex(t)
	srv, err := NewServer(ServerOptions{
		Indexes:  map[string]IndexConfig{"a": {Dir: dir}, "b": {Dir: dir}},
		MaxLimit: 50,
		MaxK:     50,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/lookup?q=x", http.StatusBadRequest},         // ambiguous index with two served
		{"/v1/lookup?q=x&index=zzz", http.StatusNotFound}, // unknown index
		{"/v1/lookup?index=a", http.StatusBadRequest},     // missing q
		{"/v1/topk?k=-1&index=a", http.StatusBadRequest},  // bad k
		{"/v1/topk?k=0&index=a", http.StatusBadRequest},   // k is 1..MaxK everywhere
		{"/v1/topk?k=51&index=a", http.StatusBadRequest},  // k beyond MaxK
		{"/v1/prefix?q=x&limit=bogus&index=a", http.StatusBadRequest},
		{"/v1/prefix?q=x&limit=0&index=a", http.StatusBadRequest},  // limit=0 does not mean unbounded
		{"/v1/prefix?q=x&limit=51&index=a", http.StatusBadRequest}, // limit beyond MaxLimit
		{"/v1/lm/score?q=x&index=a", http.StatusNotImplemented},    // LM not enabled
		// The pre-/v1 paths are gone, not redirected.
		{"/lookup?q=x&index=a", http.StatusNotFound},
		{"/prefix?q=x&index=a", http.StatusNotFound},
		{"/topk?k=3&index=a", http.StatusNotFound},
	} {
		if s := getJSON(t, client, ts.URL+tc.url, nil); s != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.url, s, tc.want)
		}
	}

	// Health reports both indexes with generations and manifest times.
	var hz HealthResponse
	if s := getStrict(t, client, ts.URL+"/healthz", &hz); s != http.StatusOK {
		t.Fatalf("/healthz status %d", s)
	}
	if hz.Status != "ok" || len(hz.Indexes) != 2 {
		t.Fatalf("/healthz = %+v", hz)
	}
	for name, ih := range hz.Indexes {
		if ih.Generation != 1 || ih.Records == 0 || ih.ManifestTime == "" {
			t.Fatalf("/healthz index %q = %+v", name, ih)
		}
	}
	// Errors were counted.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var errs int64
	fmt.Sscanf(findLine(string(body), `ngramsd_errors_total{endpoint="lookup"}`), "%d", &errs)
	if errs < 3 {
		t.Fatalf("lookup errors counted %d, want >= 3", errs)
	}
	// The metrics endpoint now instruments itself (a request lands in
	// the counters once it finishes, so the next scrape shows it).
	resp, err = client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var metricsReqs int64
	fmt.Sscanf(findLine(string(body), `ngramsd_requests_total{endpoint="metrics"}`), "%d", &metricsReqs)
	if metricsReqs < 1 {
		t.Fatalf("metrics endpoint not instrumented: %d requests", metricsReqs)
	}
}

// TestServeShutdown pins the graceful-shutdown path of ListenAndServe
// and the post-Close 503 behavior.
func TestServeShutdown(t *testing.T) {
	_, dir := buildServedIndex(t)
	srv, err := NewServer(ServerOptions{Indexes: map[string]IndexConfig{"nyt": {Dir: dir}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- ListenAndServe(ctx, "127.0.0.1:0", srv, ready) }()
	addr := <-ready
	var hz HealthResponse
	if s := getJSON(t, http.DefaultClient, "http://"+addr+"/healthz", &hz); s != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz over real listener: status %d, %+v", s, hz)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("shutdown returned %v", err)
	}
	// After Close, queries get 503 rather than hanging or crashing.
	srv.Close()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/lookup?q=x", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-Close query: status %d, want 503", rec.Code)
	}
}
