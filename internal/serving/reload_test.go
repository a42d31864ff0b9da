package serving

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ngramstats"
	"ngramstats/internal/lsm"
)

// saveRoseBase saves a two-document appendable index (τ = 1) at dir.
func saveRoseBase(t *testing.T, dir string) {
	t.Helper()
	c, err := ngramstats.FromText("drill", []string{
		"the rose is red. the rose is a rose.",
		"a rose by any other name. the red rose.",
	}, []int{2020, 2021})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ngramstats.Count(context.Background(), c, ngramstats.Options{MinFrequency: 1, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	if err := res.SaveWith(dir, ngramstats.SaveOptions{TempDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
}

// appendRose appends one document, distinct per n, to the chain at dir.
func appendRose(t *testing.T, dir string, n int) {
	t.Helper()
	batch := []ngramstats.Document{{Text: fmt.Sprintf("the rose number%d blooms. a new rose.", n), Year: 2022}}
	if _, err := ngramstats.AppendDelta(context.Background(), dir, batch,
		ngramstats.AppendOptions{Count: ngramstats.Options{TempDir: t.TempDir()}}); err != nil {
		t.Fatalf("append %d: %v", n, err)
	}
}

// scrapeTotals reads /metrics and returns every counter — every series
// whose name ends in _total — by its full series name.
func scrapeTotals(t *testing.T, client *http.Client, base string) map[string]float64 {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series := line[:sp]
		name, _, _ := strings.Cut(series, "{")
		if !strings.HasSuffix(name, "_total") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// mustNotDecrease fails if any counter of before is missing from or
// lower in after.
func mustNotDecrease(t *testing.T, what string, before, after map[string]float64) {
	t.Helper()
	for series, b := range before {
		if a, ok := after[series]; !ok || a < b {
			t.Errorf("%s: counter %s went from %v to %v (present: %v)", what, series, b, a, ok)
		}
	}
}

// indexFDs counts the process's open descriptors on files under dir,
// unlinked ones included.
func indexFDs(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count descriptors in: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// TestCountersSurviveReloads: the per-index counters are Prometheus
// counters, so a swap must neither restart them (they used to be read
// off the active generation alone) nor count a generation two views
// share twice. With no traffic between scrapes they are exactly
// continuous across a reload that shares everything, one that opens a
// delta and one after a compaction; under traffic every _total of
// /metrics is non-decreasing across three more.
func TestCountersSurviveReloads(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idx")
	saveRoseBase(t, dir)
	appendRose(t, dir, 0)
	srv, ts := newTestServer(t, dir, nil)
	client := ts.Client()
	urls := []string{
		ts.URL + "/v1/lookup?q=the+rose",
		ts.URL + "/v1/topk?k=5",
		ts.URL + "/v1/prefix?q=rose&limit=10",
	}
	query := func(i int) bool {
		resp, err := client.Get(urls[i%len(urls)])
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	for i := 0; i < 30; i++ {
		if !query(i) {
			t.Fatalf("query %d failed", i)
		}
	}
	perIndex := func(m map[string]float64) map[string]float64 {
		out := map[string]float64{}
		for _, name := range indexCounterNames {
			series := fmt.Sprintf("ngramsd_%s_total{index=%q}", name, "nyt")
			v, ok := m[series]
			if !ok {
				t.Fatalf("/metrics has no %s", series)
			}
			out[series] = v
		}
		return out
	}
	quiet := perIndex(scrapeTotals(t, client, ts.URL))
	for _, series := range []string{`ngramsd_block_cache_hits_total{index="nyt"}`, `ngramsd_topk_merged_total{index="nyt"}`, `ngramsd_prefix_scans_total{index="nyt"}`} {
		if quiet[series] == 0 {
			t.Fatalf("%s is 0 after 30 queries: nothing to carry", series)
		}
	}
	for _, step := range []struct {
		what   string
		mutate func()
	}{
		{"reload of an unchanged chain", func() {}},
		{"reload after an append", func() { appendRose(t, dir, 1) }},
		{"reload after a compaction", func() {
			if _, err := ngramstats.CompactIndex(dir, ngramstats.CompactOptions{TempDir: t.TempDir()}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		step.mutate()
		if _, err := srv.Reload("nyt"); err != nil {
			t.Fatal(err)
		}
		got := perIndex(scrapeTotals(t, client, ts.URL))
		for series, want := range quiet {
			if got[series] != want {
				t.Errorf("%s: %s = %v, was %v with no query in between", step.what, series, got[series], want)
			}
		}
	}

	var stop atomic.Bool
	var failures atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := i; !stop.Load(); n++ {
				if !query(n) {
					failures.Add(1)
				}
			}
		}()
	}
	before := scrapeTotals(t, client, ts.URL)
	for n := 2; n < 5; n++ {
		appendRose(t, dir, n)
		if _, err := srv.Reload("nyt"); err != nil {
			t.Fatal(err)
		}
		after := scrapeTotals(t, client, ts.URL)
		mustNotDecrease(t, fmt.Sprintf("reload %d under traffic", n-1), before, after)
		before = after
	}
	stop.Store(true)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d queries failed across the reloads", n)
	}
	mustNotDecrease(t, "after the traffic", before, scrapeTotals(t, client, ts.URL))
}

// TestReloadWorkMetrics pins the work counts of a reload as ngramsd
// exports them: one append onto a served chain of 1 base + 4 deltas
// opens one generation, shares five and parses one dictionary's terms;
// reloading the unchanged chain then shares all six and parses nothing. The
// Reload log line carries the same counts.
func TestReloadWorkMetrics(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idx")
	saveRoseBase(t, dir)
	for n := 0; n < 4; n++ {
		appendRose(t, dir, n)
	}
	var logMu sync.Mutex
	var logged []string
	srv, ts := newTestServer(t, dir, func(o *ServerOptions) {
		o.Logf = func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		}
	})
	appendRose(t, dir, 4)
	if _, err := srv.Reload("nyt"); err != nil {
		t.Fatal(err)
	}
	man, err := lsm.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	dict, err := os.ReadFile(filepath.Join(dir, man.Deltas[4].Dir, "dictionary.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	vocab := float64(bytes.Count(dict, []byte("\n")))
	check := func(what string, want map[string]float64) {
		t.Helper()
		got := scrapeTotals(t, ts.Client(), ts.URL)
		for name, w := range want {
			if g := got[fmt.Sprintf("ngramsd_reload_%s_total{index=%q}", name, "nyt")]; g != w {
				t.Errorf("%s: ngramsd_reload_%s_total = %v, want %v", what, name, g, w)
			}
		}
	}
	check("one append onto 1 + 4", map[string]float64{"generations_opened": 1, "generations_shared": 5, "dictionary_terms": vocab})
	if _, err := srv.Reload("nyt"); err != nil {
		t.Fatal(err)
	}
	check("then an unchanged manifest", map[string]float64{"generations_opened": 1, "generations_shared": 11, "dictionary_terms": vocab})

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := findLine(string(body), `ngramsd_reload_seconds_count{index="nyt"}`); got != "2" {
		t.Fatalf("ngramsd_reload_seconds_count = %q, want 2", got)
	}
	if sum, err := strconv.ParseFloat(findLine(string(body), `ngramsd_reload_seconds_sum{index="nyt"}`), 64); err != nil || sum <= 0 {
		t.Fatalf("ngramsd_reload_seconds_sum = %v (%v), want > 0", sum, err)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if len(logged) != 2 || !strings.Contains(logged[0], "1 generations opened, 5 shared") || !strings.Contains(logged[1], "0 generations opened, 6 shared") {
		t.Fatalf("reload log lines: %q", logged)
	}
}

// TestReloadsLeakNoDescriptors: 20 append → Reload cycles and two
// compactions under query traffic, each reload sharing the generations
// the chain kept, leave no descriptor open under the index directory
// once the server is closed and the last request has drained — and not
// one request fails on the way.
func TestReloadsLeakNoDescriptors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idx")
	saveRoseBase(t, dir)
	srv, ts := newTestServer(t, dir, nil)
	client := ts.Client()
	var stop atomic.Bool
	var failures, queries atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := client.Get(ts.URL + "/v1/lookup?q=the+rose")
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
		}()
	}
	for n := 1; n <= 20; n++ {
		appendRose(t, dir, n)
		if n%8 == 0 {
			if stats, _, err := srv.CompactNow("nyt"); err != nil || !stats.Compacted {
				t.Fatalf("compaction at cycle %d: %+v, %v", n, stats, err)
			}
			continue
		}
		if _, err := srv.Reload("nyt"); err != nil {
			t.Fatalf("reload %d: %v", n, err)
		}
	}
	if held := indexFDs(t, dir); held == 0 {
		t.Fatal("no descriptor open under the served directory: the count measures nothing")
	}
	stop.Store(true)
	wg.Wait()
	if failures.Load() != 0 || queries.Load() == 0 {
		t.Fatalf("%d of %d requests failed", failures.Load(), queries.Load())
	}
	var lr LookupResponse
	if s := getStrict(t, client, ts.URL+"/v1/lookup?q=a+new+rose", &lr); s != http.StatusOK || !lr.Found || lr.NGram.Frequency != 20 {
		t.Fatalf("after 20 appends: status %d, %+v", s, lr)
	}
	srv.Close()
	if left := indexFDs(t, dir); left != 0 {
		t.Fatalf("%d descriptors still open under the index directory after Close", left)
	}
}
