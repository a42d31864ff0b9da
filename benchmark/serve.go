package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ngramstats"
	"ngramstats/internal/serving"
)

const (
	prefixLimit = 20
	topK        = 100
	batchSize   = 64
	p99Segments = 5
)

// entry is one n-gram of the truth.
type entry struct {
	text string
	freq int64
}

// phrases maps n-grams to their counts and holds them in the order they were
// added. It is built without a pointer in it — one byte slice of texts, offsets
// into it, a map from hash to position — because the daemon under test shares
// this process: a million strings in a map would make every collection walk
// the benchmark's truth, and charge the program for it.
type phrases struct {
	text  []byte
	off   []uint32 // phrase i is text[off[i]:off[i+1]]
	freq  []int64
	index map[uint64]int32
}

func newPhrases(n int) *phrases {
	return &phrases{off: make([]uint32, 1, n+1), freq: make([]int64, 0, n), index: make(map[uint64]int32, n)}
}

func hashPhrase(s string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

func (t *phrases) len() int { return len(t.freq) }

func (t *phrases) at(i int) string { return string(t.text[t.off[i]:t.off[i+1]]) }

// add appends one n-gram. Two different texts with one 64-bit hash would make
// the truth wrong, so that is an error and not a silent overwrite.
func (t *phrases) add(text string, freq int64) error {
	h := hashPhrase(text)
	if i, dup := t.index[h]; dup {
		return fmt.Errorf("truth: %q and %q share a hash (or one n-gram came twice)", t.at(int(i)), text)
	}
	t.index[h] = int32(len(t.freq))
	t.text = append(t.text, text...)
	t.off = append(t.off, uint32(len(t.text)))
	t.freq = append(t.freq, freq)
	return nil
}

// count is the n-gram's count, 0 when it is not there.
func (t *phrases) count(text string) int64 {
	if i, ok := t.index[hashPhrase(text)]; ok && string(t.text[t.off[i]:t.off[i+1]]) == text {
		return t.freq[i]
	}
	return 0
}

// keyset is the in-memory truth about one served index and the population the
// read operations are drawn from.
type keyset struct {
	*phrases                    // every n-gram, in index order
	byRank   []int32            // positions, most frequent first
	prefixes []string           // prefix queries: leading words of the most frequent n-grams
	extends  map[string][]entry // prefix query → its first prefixLimit answers, in index order
	words    []string           // distinct words, for lookups that should miss
}

// ranked is the i-th most frequent n-gram.
func (ks *keyset) ranked(i int) entry {
	at := int(ks.byRank[i])
	return entry{ks.at(at), ks.freq[at]}
}

// newKeyset builds the truth from n n-grams that each yields in index order.
func newKeyset(n int, each func(add func(text string, freq int64) error) error) (*keyset, error) {
	ks := &keyset{phrases: newPhrases(n), extends: make(map[string][]entry)}
	err := each(func(text string, freq int64) error {
		if !strings.Contains(text, " ") {
			ks.words = append(ks.words, text)
		}
		return ks.add(text, freq)
	})
	if err != nil {
		return nil, err
	}
	if ks.len() == 0 {
		return nil, errors.New("the main index is empty: nothing to query")
	}
	ks.byRank = make([]int32, ks.len())
	for i := range ks.byRank {
		ks.byRank[i] = int32(i)
	}
	sort.Slice(ks.byRank, func(i, j int) bool {
		a, c := int(ks.byRank[i]), int(ks.byRank[j])
		if ks.freq[a] != ks.freq[c] {
			return ks.freq[a] > ks.freq[c]
		}
		return bytes.Compare(ks.text[ks.off[a]:ks.off[a+1]], ks.text[ks.off[c]:ks.off[c+1]]) < 0
	})
	for i := 0; i < min(2000, ks.len()); i++ {
		for _, p := range leadingWords(ks.ranked(i).text) {
			if _, ok := ks.extends[p]; !ok {
				ks.extends[p] = nil
				ks.prefixes = append(ks.prefixes, p)
			}
		}
	}
	for i := 0; i < ks.len(); i++ {
		text := ks.at(i)
		for _, p := range leadingWords(text) {
			if got, ok := ks.extends[p]; ok && len(got) < prefixLimit {
				ks.extends[p] = append(got, entry{text, ks.freq[i]})
			}
		}
	}
	return ks, nil
}

// indexKeyset reads every n-gram of the index at dir into a keyset.
func indexKeyset(dir string) (*keyset, error) {
	ix, err := ngramstats.OpenIndex(dir)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	return newKeyset(int(ix.Len()), func(add func(string, int64) error) error {
		for ng, err := range ix.NGrams() {
			if err != nil {
				return err
			}
			if err := add(ng.Text, ng.Frequency); err != nil {
				return err
			}
		}
		return nil
	})
}

// leadingWords returns the one-word and the two-word prefix of a phrase.
func leadingWords(text string) []string {
	i := strings.IndexByte(text, ' ')
	if i < 0 {
		return []string{text}
	}
	j := strings.IndexByte(text[i+1:], ' ')
	if j < 0 {
		return []string{text[:i], text}
	}
	return []string{text[:i], text[:i+1+j]}
}

type opKind int

const (
	opLookup opKind = iota
	opPrefix
	opBatch
)

// op is one client operation of the mixed read phase.
type op struct {
	kind opKind
	keys []string // one query, or the batchSize lookups of a batch
}

// opGen draws the mixed read phase of one client: 90 % lookups (keys skewed
// towards the frequent n-grams, one in ten a pair of random words that almost
// surely misses), 8 % prefix scans, 2 % batches of 64 lookups. The sequence is
// a function of the seed and the keyset alone.
type opGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	ks   *keyset
}

func newOpGen(seed int64, ks *keyset) *opGen {
	rng := rand.New(rand.NewSource(seed))
	return &opGen{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(ks.len()-1)), ks: ks}
}

func (g *opGen) lookupKey() string {
	if g.rng.Intn(10) == 0 {
		w := g.ks.words
		return w[g.rng.Intn(len(w))] + " " + w[g.rng.Intn(len(w))]
	}
	return g.ks.ranked(int(g.zipf.Uint64())).text
}

func (g *opGen) next() op {
	switch u := g.rng.Float64(); {
	case u < 0.90:
		return op{opLookup, []string{g.lookupKey()}}
	case u < 0.98:
		return op{opPrefix, []string{g.ks.prefixes[g.rng.Intn(len(g.ks.prefixes))]}}
	default:
		keys := make([]string, batchSize)
		for i := range keys {
			keys[i] = g.lookupKey()
		}
		return op{opBatch, keys}
	}
}

// client is one closed-loop caller: one goroutine, one keep-alive connection,
// the next request only after the previous answer was read and checked.
type client struct {
	b    *bench
	base string
	http *http.Client
}

func (b *bench) newClient(addr string) *client {
	return &client{b: b, base: "http://" + addr, http: &http.Client{
		Timeout:   failedMicros * time.Microsecond,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// call sends one request and decodes a 200 answer into out. Any other status,
// a timeout and an undecodable body are errors.
func (c *client) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// lookup asks for one phrase; found=false is frequency 0.
func (c *client) lookup(index, q string) (int64, error) {
	var r serving.LookupResponse
	if err := c.call("GET", "/v1/lookup?index="+index+"&q="+url.QueryEscape(q), nil, &r); err != nil {
		return 0, err
	}
	if !r.Found || r.NGram == nil {
		return 0, nil
	}
	return r.NGram.Frequency, nil
}

// do runs one operation against the main index and checks the answer against
// the truth. It returns whether every part of the answer was right.
func (c *client) do(o op, ks *keyset) bool {
	switch o.kind {
	case opLookup:
		f, err := c.lookup("main", o.keys[0])
		return err == nil && f == ks.count(o.keys[0])
	case opPrefix:
		var r serving.PrefixResponse
		err := c.call("GET", "/v1/prefix?index=main&limit="+strconv.Itoa(prefixLimit)+"&q="+url.QueryEscape(o.keys[0]), nil, &r)
		return err == nil && sameNGrams(r.NGrams, ks.extends[o.keys[0]])
	default:
		req := serving.BatchRequest{Index: "main", Ops: make([]serving.BatchOp, len(o.keys))}
		for i, k := range o.keys {
			req.Ops[i] = serving.BatchOp{Op: "lookup", Q: k}
		}
		body, _ := json.Marshal(req) // a struct of strings always marshals
		var r serving.BatchResponse
		if err := c.call("POST", "/v1/query", body, &r); err != nil || len(r.Results) != len(o.keys) {
			return false
		}
		for i, res := range r.Results {
			var f int64
			if res.Found && res.NGram != nil {
				f = res.NGram.Frequency
			}
			if res.Error != "" || f != ks.count(o.keys[i]) {
				return false
			}
		}
		return true
	}
}

func sameNGrams(got []serving.WireNGram, want []entry) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Text != want[i].text || got[i].Frequency != want[i].freq {
			return false
		}
	}
	return true
}

// topk asks for the topK most frequent n-grams. Ties may come in any order, so
// the check is on the frequency sequence and on each n-gram's own frequency.
func (c *client) topk(ks *keyset) bool {
	var r serving.TopKResponse
	if err := c.call("GET", "/v1/topk?index=main&k="+strconv.Itoa(topK), nil, &r); err != nil {
		return false
	}
	if len(r.NGrams) != min(topK, ks.len()) {
		return false
	}
	for i, ng := range r.NGrams {
		if ng.Frequency != ks.freq[ks.byRank[i]] || ks.count(ng.Text) != ng.Frequency {
			return false
		}
	}
	return true
}

// server is the daemon under test, in this process, on a loopback port.
type server struct {
	srv  *serving.Server
	addr string
	stop func() error // shuts down and waits for the listener to return
}

func (b *bench) startServer(mainDir, liveDir string) (*server, error) {
	sp := b.tr.begin(nil, "serving.start", 0)
	defer sp.finish()
	srv, err := serving.NewServer(serving.ServerOptions{Indexes: map[string]serving.IndexConfig{
		"main": {Dir: mainDir}, "live": {Dir: liveDir},
	}})
	if err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- serving.ListenAndServe(ctx, "127.0.0.1:0", srv, ready) }()
	stop := func() error {
		cancel()
		err := <-done
		srv.Close()
		return err
	}
	select {
	case addr := <-ready:
		return &server{srv: srv, addr: addr, stop: stop}, nil
	case err := <-done:
		cancel()
		srv.Close()
		return nil, fmt.Errorf("serving: listen: %w", err)
	}
}

// scrape reads the daemon's own /metrics into name{labels} → value.
func (s *server) scrape(c *client) (map[string]float64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(text), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && line[0] != '#' {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, nil
}

// served is the served half of the pipeline: the daemon on the main index
// and on the write-phase chain, the truth about both, and the clients.
type served struct {
	server  *server
	ks      *keyset    // truth about the main index
	lt      *liveTruth // truth about the write-phase chain
	liveDir string

	clients []*client // the read phase's; the write phase borrows the first and the last
	gens    []*opGen

	// Lookup and batch latencies, pooled over the slices in the order made.
	lookups, batches []float64

	// A reader's answer may come from any state between the one committed
	// when it sent the request and the newest one a reload had begun to
	// publish when the answer arrived.
	committed, publishing atomic.Int64
	during                []float64 // the write-phase reader's latencies
	sketch                *ngramstats.StreamIngester
}

func (sv *served) close() error {
	for _, c := range sv.clients {
		c.close()
	}
	if sv.server == nil {
		return nil
	}
	return sv.server.stop()
}

// prepareServing turns the built index into what is served: appends the
// deltas when the main index is a chain, reads the truth back, builds the
// write-phase chain's base, starts the daemon on both, and warms it.
func (b *bench) prepareServing(p *pipeline) error {
	sp := b.tr.begin(nil, "bench.prepare_serving", 0)
	defer sp.finish()
	for i, delta := range p.in.deltas {
		if _, err := b.appendDelta(sp, -i-1, p.dir, delta); err != nil {
			return err
		}
	}
	ks, err := indexKeyset(p.dir)
	if err != nil {
		return err
	}
	if len(p.in.deltas) > 0 {
		// A chain is counted at τ = 1, so brute force over all its documents
		// is its whole truth: the merge-on-read view must equal it.
		truth := make(map[string]int64)
		bruteForce(truth, p.in.main, b.w.sigma)
		for _, delta := range p.in.deltas {
			bruteForce(truth, delta, b.w.sigma)
		}
		b.check(ks.len() == len(truth), "chain: %d n-grams served, brute force has %d", ks.len(), len(truth))
		for i := 0; i < ks.len(); i++ {
			text := ks.at(i)
			b.check(truth[text] == ks.freq[i], "chain: %q served as %d, brute force %d", text, ks.freq[i], truth[text])
		}
	}
	p.ks, p.lt, p.liveDir = ks, newLiveTruth(p.in), filepath.Join(b.dir, "live")

	c, _, _, err := b.ingest(sp, 0, p.in.liveBase)
	if err != nil {
		return err
	}
	base, err := b.count(sp, "core.count_live_base", 0, c, b.options(ngramstats.MethodSuffixSigma, 1, liveSigma))
	if err != nil {
		return err
	}
	err = base.res.SaveWith(p.liveDir, ngramstats.SaveOptions{TempDir: b.dir})
	base.res.Release()
	if err != nil {
		return err
	}
	if p.server, err = b.startServer(p.dir, p.liveDir); err != nil {
		return err
	}
	for i := 0; i < b.clients; i++ {
		p.clients = append(p.clients, b.newClient(p.server.addr))
		p.gens = append(p.gens, newOpGen(b.seed*1000+int64(i), p.ks))
	}
	if b.tracing() {
		if p.sketch, err = ngramstats.NewStreamIngester(ngramstats.IngestOptions{MaxLength: liveSigma}); err != nil {
			return err
		}
	}
	b.mixed(p, min(0.3, b.w.readSecs), nil) // fills the block cache
	return nil
}

// timed is one read operation's outcome.
type timed struct {
	kind   opKind
	micros float64
}

// mixed runs the mixed read phase on every client for d seconds. A nil sink
// records nothing: a warm-up.
func (b *bench) mixed(p *pipeline, d float64, sink [][]timed) {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < b.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t0 := time.Since(start).Seconds()
				if t0 >= d {
					return
				}
				o := p.gens[i].next()
				ok := p.clients[i].do(o, p.ks)
				end := time.Since(start).Seconds()
				if sink == nil {
					continue
				}
				b.check(ok, "read: operation %d %q answered wrongly", o.kind, o.keys[0])
				us := (end - t0) * 1e6
				if !ok {
					us = failedMicros
				}
				sink[i] = append(sink[i], timed{o.kind, us})
			}
		}()
	}
	wg.Wait()
}

// readSlice is one round's share of the mixed read phase: b.clients closed-loop
// clients for readSecs after a short unrecorded lead-in, then topKs top-k calls
// on each. Rate and median latencies are taken per slice, one sample a round
// like every other metric, so a slow stretch of the machine moves one slice's
// values and not the result; the tail needs more lookups than a slice has, and
// finishReads takes it from the pool.
func (b *bench) readSlice(p *pipeline, rep int) error {
	sp := b.tr.begin(nil, "serving.read_slice", rep)
	defer sp.finish()
	b.mixed(p, 0.05, nil)
	before, err := p.server.scrape(p.clients[0])
	if err != nil {
		return err
	}
	sink := make([][]timed, b.clients)
	t0 := time.Now()
	b.mixed(p, b.w.readSecs, sink)
	wall := time.Since(t0).Seconds()

	var ops int
	var lookups, prefixes []float64
	for _, rs := range sink {
		ops += len(rs)
		for _, r := range rs {
			switch r.kind {
			case opLookup:
				lookups = append(lookups, r.micros)
			case opPrefix:
				prefixes = append(prefixes, r.micros)
			default:
				p.batches = append(p.batches, r.micros)
			}
		}
	}
	p.lookups = append(p.lookups, lookups...)
	b.add("query_qps", float64(ops)/wall)
	b.add("lookup_p50_us", percentile(lookups, 0.5))
	b.add("prefix_p50_us", percentile(prefixes, 0.5))

	// The daemon's own counters are read in every run, traced or not: the
	// cache hit ratio says what the latencies of this run were measured under.
	after, err := p.server.scrape(p.clients[0])
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	b.add("serving.server_lookup_mean_us",
		delta(`ngramsd_latency_micros_sum{endpoint="lookup"}`)/max(delta(`ngramsd_requests_total{endpoint="lookup"}`), 1))
	hits, misses := delta(`ngramsd_block_cache_hits_total{index="main"}`), delta(`ngramsd_block_cache_misses_total{index="main"}`)
	b.add("index.cache_hit_ratio", hits/max(hits+misses, 1))

	// Top-k on every client at once: a lone closed-loop client leaves the
	// processors idle between requests, and what it then measures is how long
	// the machine takes to wake them.
	tsp := b.tr.begin(sp, "serving.topk", rep)
	defer tsp.finish()
	var wg sync.WaitGroup
	topks := make([][]float64, b.clients)
	for i := 0; i < b.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < b.w.topKs; n++ {
				t0 := time.Now()
				ok := p.clients[i].topk(p.ks)
				us := float64(time.Since(t0).Microseconds())
				b.check(ok, "read: top-%d answered wrongly", topK)
				if !ok {
					us = failedMicros
				}
				topks[i] = append(topks[i], us)
			}
		}()
	}
	wg.Wait()
	b.add("topk_p50_us", percentile(slices.Concat(topks...), 0.5))
	return nil
}

// finishReads reduces the pooled read samples once the rounds are over. The
// lookups of all slices, in the order they were made, are cut into p99Segments
// equal segments, and each segment's 99th percentile is one sample of
// serving.lookup_p99_us, so a stall in one stretch of the run moves one of them.
func (b *bench) finishReads(p *pipeline) {
	for _, seg := range segments(p.lookups, p99Segments) {
		b.add("serving.lookup_p99_us", percentile(seg, 0.99))
	}
	b.set("serving.batch64_us_per_key", percentile(p.batches, 0.5)/batchSize)
	b.set("lsm.lookup_during_write_p99_us", percentile(p.during, 0.99))
}

// liveTruth is the brute-force truth about the write-phase chain: the counts of
// the probe phrases after the base and after each appended batch.
type liveTruth struct {
	probes []string
	counts [][]int64 // counts[v][i]: probe i once v batches are appended
}

func newLiveTruth(in *inputs) *liveTruth {
	base := make(map[string]int64)
	bruteForce(base, in.liveBase, liveSigma)
	per := make([]map[string]int64, len(in.batches))
	total := make(map[string]int64, len(base))
	for k, v := range base {
		total[k] = v
	}
	for i, batch := range in.batches {
		per[i] = make(map[string]int64)
		bruteForce(per[i], batch, liveSigma)
		for k, v := range per[i] {
			total[k] += v
		}
	}
	all := make([]entry, 0, len(total))
	for k, v := range total {
		all = append(all, entry{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].freq != all[j].freq {
			return all[i].freq > all[j].freq
		}
		return all[i].text < all[j].text
	})
	lt := &liveTruth{counts: make([][]int64, len(in.batches)+1)}
	for _, e := range all[:min(512, len(all))] {
		lt.probes = append(lt.probes, e.text)
	}
	for v := range lt.counts {
		lt.counts[v] = make([]int64, len(lt.probes))
		for i, p := range lt.probes {
			if v == 0 {
				lt.counts[0][i] = base[p]
			} else {
				lt.counts[v][i] = lt.counts[v-1][i] + per[v-1][p]
			}
		}
	}
	return lt
}

// changed returns a probe whose count batch v (1-based) changes, so a lookup
// of it tells the state before the append from the state after.
func (lt *liveTruth) changed(v int) int {
	for i := range lt.probes {
		if lt.counts[v][i] != lt.counts[v-1][i] {
			return i
		}
	}
	return 0
}

// writeCycle appends beside reads: chainDepth appends (each followed by a
// reload and a lookup that must show the new count) and one compaction, while
// one client looks probes up and checks each answer against the brute-force
// count of the documents appended so far.
func (b *bench) writeCycle(p *pipeline, cycle int) error {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sp := b.tr.begin(nil, "serving.reader", cycle)
		defer sp.finish()
		reader, lt := p.clients[0], p.lt
		rng := rand.New(rand.NewSource(b.seed*1000 + 7 + int64(cycle)))
		for {
			select {
			case <-stop:
				return
			default:
			}
			i := rng.Intn(len(lt.probes))
			lo := p.committed.Load()
			t0 := time.Now()
			f, err := reader.lookup("live", lt.probes[i])
			us := float64(time.Since(t0).Microseconds())
			ok := false
			for v := lo; err == nil && v <= p.publishing.Load(); v++ {
				ok = ok || f == lt.counts[v][i]
			}
			b.check(ok, "write: reader saw %q = %d at state %d", lt.probes[i], f, lo)
			if !ok {
				us = failedMicros
			}
			p.during = append(p.during, us)
		}
	}()
	err := b.appendsAndCompaction(p, cycle)
	close(stop)
	wg.Wait()
	return err
}

// visible reloads the write-phase chain as state v and looks one probe up over
// HTTP: the answer must be the brute-force count at v.
func (b *bench) visible(p *pipeline, parent *span, v int) error {
	probe := p.lt.changed(v)
	p.publishing.Store(int64(v))
	sp := b.tr.begin(parent, "serving.reload", v)
	t0 := time.Now()
	_, err := p.server.srv.Reload("live")
	b.add("serving.reload_s", time.Since(t0).Seconds())
	sp.finish()
	if err != nil {
		return fmt.Errorf("reload: %w", err)
	}
	p.committed.Store(int64(v))
	// The last client: the reader holds the first. With one client the two
	// share its one connection, and this lookup waits for the reader's turn.
	f, err := p.clients[len(p.clients)-1].lookup("live", p.lt.probes[probe])
	b.check(err == nil && f == p.lt.counts[v][probe],
		"write: %q = %d after %d appends, brute force %d (%v)", p.lt.probes[probe], f, v, p.lt.counts[v][probe], err)
	return nil
}

func (b *bench) appendsAndCompaction(p *pipeline, cycle int) error {
	csp := b.tr.begin(nil, "bench.write_cycle", cycle)
	defer csp.finish()
	for i := 0; i < chainDepth; i++ {
		v := cycle*chainDepth + i + 1
		batch := p.in.batches[v-1]
		if p.sketch != nil {
			ssp := b.tr.begin(csp, "sketch.ingest", v)
			t0 := time.Now()
			err := p.sketch.Ingest(batch...)
			b.add("sketch.ingest_us_per_doc", float64(time.Since(t0).Microseconds())/float64(len(batch)))
			ssp.finish()
			if err != nil {
				return fmt.Errorf("sketch ingest: %w", err)
			}
		}
		t0 := time.Now()
		wall, err := b.appendDelta(csp, v, p.liveDir, batch)
		if err != nil {
			return err
		}
		b.add("lsm.append_s", wall)
		b.add("lsm.append_docs_per_s", float64(len(batch))/wall)
		if err := b.visible(p, csp, v); err != nil {
			return err
		}
		b.add("append_visible_s", time.Since(t0).Seconds())
	}
	chainBytes, err := dirBytes(p.liveDir)
	if err != nil {
		return err
	}
	probes := p.lt.probes
	var view directTimes
	if b.tracing() {
		if view, err = b.directCalls(p.liveDir, probes, probes[:min(64, len(probes))]); err != nil {
			return err
		}
	}
	sp := b.tr.begin(csp, "lsm.compact", cycle)
	t0 := time.Now()
	st, err := ngramstats.CompactIndex(p.liveDir, ngramstats.CompactOptions{TempDir: b.dir})
	wall := time.Since(t0).Seconds()
	sp.finish()
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	b.check(st.Compacted && st.Generations == chainDepth+1, "write: compaction merged %d generations", st.Generations)
	b.add("compact_s", wall)
	b.add("lsm.compact_records_per_s", float64(st.Records)/wall)
	// Compaction retires the old generations, so what the directory holds
	// now is the base it wrote.
	baseBytes, err := dirBytes(p.liveDir)
	if err != nil {
		return err
	}
	b.add("lsm.compact_bytes_written", float64(baseBytes))
	b.add("lsm.space_amplification", float64(chainBytes)/float64(baseBytes))
	if b.tracing() {
		flat, err := b.directCalls(p.liveDir, probes, probes[:min(64, len(probes))])
		if err != nil {
			return err
		}
		b.add("lsm.view_lookup_us", view.lookup)
		b.add("lsm.view_prefix_us", view.prefix)
		b.add("lsm.view_topk_us", view.topk)
		b.add("lsm.lookup_amplification", view.lookup/flat.lookup)
		b.add("lsm.topk_amplification", view.topk/flat.topk)
	}
	return b.visible(p, csp, (cycle+1)*chainDepth)
}

// appendDelta counts one batch into a delta generation of the chain at dir and
// returns how long that took.
func (b *bench) appendDelta(parent *span, rep int, dir string, batch []ngramstats.Document) (float64, error) {
	sp := b.tr.begin(parent, "lsm.append", rep)
	defer sp.finish()
	t0 := time.Now()
	st, err := ngramstats.AppendDelta(context.Background(), dir, batch, ngramstats.AppendOptions{
		Count:   b.options(ngramstats.MethodSuffixSigma, 1, 0),
		Builder: ngramstats.BuilderOptions{TempDir: b.dir},
	})
	if err != nil {
		return 0, fmt.Errorf("append: %w", err)
	}
	wall := time.Since(t0).Seconds()
	b.check(st.Docs == int64(len(batch)), "append: counted %d of %d documents", st.Docs, len(batch))
	return wall, nil
}
