// Package serving implements the HTTP query surface of the n-gram
// index daemon (cmd/ngramsd): a versioned /v1 API over one or more
// persistent index directories, with zero-downtime index reloads,
// batched queries, per-endpoint load shedding, and a language-model
// front end.
//
// # Versioned API
//
//	GET  /v1/lookup?q=phrase[&index=name]        one phrase's statistics
//	GET  /v1/prefix?q=phrase[&limit=n][&index=]  phrases extending q
//	GET  /v1/topk?k=n[&index=name]               most frequent n-grams
//	POST /v1/query                               batch of ops, one round trip
//	GET  /v1/lm/score?q=phrase[&index=name]      Katz log-probability
//	GET  /v1/lm/predict?q=context[&k=n][&index=] next-word candidates
//	POST /v1/ingest                              fold a document batch into the live sketch
//	GET  /v1/approx/lookup?q=phrase              approximate count with error bound
//	GET  /v1/approx/topk?k=n                     approximate heavy hitters
//	POST /v1/admin/reload[?index=name]           swap to the on-disk index
//	POST /v1/admin/reconcile                     run the exact job over ingested documents now
//	POST /v1/admin/compact[?index=name]          merge an LSM chain's deltas into one base now
//	GET  /v1/healthz (alias /healthz)            liveness + generations
//	GET  /metrics                                Prometheus-style text
//
// Every /v1 response decodes into a typed struct from wire.go and
// carries the index generation it was answered from.
//
// # Generations and hot swap
//
// Each served index is a sequence of generations. A generation is an
// open ngramstats.Index (plus its derived language model, if enabled);
// the active one is published through an atomic pointer, and every
// request pins its generation with a reference count for the duration
// of the request. Reload — triggered by POST /v1/admin/reload or the
// manifest Watch loop — reopens the index directory (Index.Reopen: an
// LSM chain opens only the generation directories its manifest added
// and shares the rest, open files and warm block caches included, with
// the retiring generation), swaps the pointer, and drops the retiring
// generation's base reference: files no newer generation shares close
// when the last in-flight request drains. Requests never observe a
// half-swapped index and never fail because of a swap.
//
// # Load shedding
//
// Query endpoints admit at most MaxInflight concurrent requests each;
// up to MaxQueue more wait up to QueueTimeout for a slot. Beyond that
// the request is shed with 429 and a Retry-After header — the server
// degrades by refusing excess work early instead of queueing without
// bound. /healthz, /metrics, and the admin endpoints are never shed.
// /v1/ingest has its own gate, so write pressure shedding is visible
// separately from query shedding; ngramsd_shed_reason_total further
// splits sheds into queue_full versus timeout.
//
// # Live ingestion
//
// With ServerOptions.Live, the daemon additionally accepts a live
// document stream: POST /v1/ingest folds batches into a one-pass
// count-min sketch (ngramstats.StreamIngester), and /v1/approx/lookup
// and /v1/approx/topk answer immediately with one-sided estimates plus
// a stated ε·N error bound — every response carries approx: true. A
// reconciliation loop (or POST /v1/admin/reconcile) periodically runs
// the exact MapReduce job over the documents ingested since the last
// one, appends the result to the live index directory as an LSM delta
// generation, hot-swaps it in through the generation machinery, and
// resets the sketch delta: approximate answers degrade gracefully to
// exact + a delta covering only the documents ingested since the last
// reconcile.
//
// # Incremental indexes
//
// A served directory may be an LSM chain (ngramstats.AppendDelta): a
// base index plus delta generations behind one chain manifest. Queries
// are answered from the chain's merge-on-read view exactly as from a
// plain index; the Watch loop follows the chain manifest instead of
// the index manifest, so appends and compactions hot-swap in like any
// other reload. The live reconciliation loop appends only the
// documents ingested since the previous reconcile as a delta
// generation — O(new documents), never a full rebuild — and
// CompactLoop (policy: delta count or delta/base record ratio,
// ServerOptions.Compact) merges chains back into a single base in the
// background, swapping through the generation machinery with zero
// failed requests.
package serving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ngramstats"
	"ngramstats/internal/lsm"
)

// Defaults for the corresponding ServerOptions fields.
const (
	DefaultMaxInflight  = 64
	DefaultQueueTimeout = 100 * time.Millisecond
	DefaultRetryAfter   = time.Second
	DefaultMaxLimit     = 1000
	DefaultMaxK         = 1000
	DefaultMaxBatch     = 256

	defaultPrefixLimit = 100
	defaultTopK        = 10
	defaultPredictK    = 5
)

// IndexConfig locates one served index.
type IndexConfig struct {
	// Dir is the index directory (Result.Save).
	Dir string
	// CacheBlocks bounds the decoded-block cache of each generation
	// opened from Dir (ngramstats.IndexOptions.CacheBlocks).
	CacheBlocks int
}

// ServerOptions configures NewServer. Zero fields select the defaults
// noted; Indexes is required.
type ServerOptions struct {
	// Indexes maps the served index names to their directories. The map
	// is read once by NewServer.
	Indexes map[string]IndexConfig

	// MaxInflight caps concurrently executing requests per query
	// endpoint (default DefaultMaxInflight).
	MaxInflight int
	// MaxQueue caps requests waiting for an execution slot per query
	// endpoint (default 2×MaxInflight; negative disables waiting).
	MaxQueue int
	// QueueTimeout bounds how long a queued request waits for a slot
	// before being shed (default DefaultQueueTimeout).
	QueueTimeout time.Duration
	// RetryAfter is the Retry-After hint sent with 429 responses
	// (default DefaultRetryAfter).
	RetryAfter time.Duration

	// MaxLimit caps the prefix-scan limit parameter (default
	// DefaultMaxLimit). Requests beyond it get 400, not a clamp.
	MaxLimit int
	// MaxK caps the k parameter of topk and lm/predict (default
	// DefaultMaxK). Requests beyond it get 400, not a clamp.
	MaxK int
	// MaxBatch caps the operations per POST /v1/query request (default
	// DefaultMaxBatch).
	MaxBatch int

	// LMOrder, if positive, trains an order-LMOrder language model from
	// every generation as it opens and enables the /v1/lm endpoints.
	// Zero leaves them returning 501.
	LMOrder int

	// WatchInterval is the manifest poll interval the daemon watches
	// with; it is reported in /healthz. Zero means the daemon is not
	// watching (Watch called with an explicit interval still works).
	WatchInterval time.Duration

	// Live enables the live-ingestion endpoints (POST /v1/ingest,
	// GET /v1/approx/*, POST /v1/admin/reconcile) and the exact
	// reconciliation loop. Nil leaves them returning 501.
	Live *LiveConfig

	// Compact configures the background compaction policy applied by
	// CompactLoop to served LSM chains. Nil disables automatic
	// compaction; POST /v1/admin/compact works regardless.
	Compact *CompactConfig

	// Logf, if non-nil, receives operational log lines (reloads, watch
	// errors).
	Logf func(format string, args ...any)
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxInflight <= 0 {
		o.MaxInflight = DefaultMaxInflight
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 2 * o.MaxInflight
	}
	if o.MaxQueue < 0 {
		o.MaxQueue = 0
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = DefaultQueueTimeout
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = DefaultRetryAfter
	}
	if o.MaxLimit <= 0 {
		o.MaxLimit = DefaultMaxLimit
	}
	if o.MaxK <= 0 {
		o.MaxK = DefaultMaxK
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.Compact != nil {
		c := *o.Compact
		if c.MaxDeltas <= 0 && c.MaxRatio <= 0 {
			c.MaxDeltas = DefaultCompactDeltas
		}
		if c.Interval <= 0 {
			c.Interval = DefaultCompactInterval
		}
		o.Compact = &c
	}
	return o
}

// generation is one open instance of a served index. Its lifetime is
// reference-counted: it starts with one base reference (held by the
// handle publishing it), every request that queries it holds one more
// for the request's duration, and the underlying files close when the
// count reaches zero — after the handle retires it AND the last
// in-flight request drains.
type generation struct {
	ix  *ngramstats.Index
	lm  *ngramstats.LanguageModel // nil unless ServerOptions.LMOrder > 0
	num int64                     // 1, 2, ... per index

	refs atomic.Int64
}

// tryAcquire takes a reference unless the generation is already
// retired and drained.
func (g *generation) tryAcquire() bool {
	for {
		r := g.refs.Load()
		if r <= 0 {
			return false
		}
		if g.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

func (g *generation) release() {
	if g.refs.Add(-1) == 0 {
		g.ix.Close()
	}
}

// handle is the mutable slot of one served index: the active
// generation, swapped atomically by Reload. A live-fed handle may hold
// no generation before the first reconciliation materializes its
// directory; closed distinguishes that state from a shut-down server.
type handle struct {
	name string
	cfg  IndexConfig
	live bool

	mu     sync.Mutex // serializes Reload
	closed bool       // set by Close, under mu
	gen    atomic.Pointer[generation]

	// statsMu orders swaps against metric scrapes, so that the counters
	// below and the active generation are read as of one moment.
	statsMu sync.Mutex
	// retired holds what the retired generations counted that the active
	// one cannot see: per-index counters never restart at a swap.
	retired indexCounters
	// reloads counts the swaps and accumulates what they cost.
	reloads struct {
		count, opened, shared, terms int64
		seconds                      float64
	}

	// chainMu serializes chain mutations on the directory — delta
	// appends (live reconciliation) and compactions — which
	// assume a single writer per chain. Readers never take it.
	chainMu sync.Mutex
	// compacting guards against overlapping compactions of one handle
	// without making admin requests wait behind a running one.
	compacting atomic.Bool
}

// indexCounters are the cumulative per-index counters an open index
// keeps, in the order of indexCounterNames.
type indexCounters [7]int64

// indexCounterNames are the counters' metric names, less the ngramsd_
// prefix and the _total suffix: block-cache hits and misses, how chain
// top-k queries were answered and the point gets their merges issued,
// and the work of chain prefix scans.
var indexCounterNames = [7]string{
	"block_cache_hits", "block_cache_misses", "topk_merged", "topk_scans", "topk_point_gets", "prefix_scans", "prefix_records_folded",
}

func countersOf(ix *ngramstats.Index) (c indexCounters) {
	c[0], c[1] = ix.CacheStats()
	c[2], c[3] = ix.TopKStats()
	c[4] = ix.TopKPointGets()
	c[5], c[6] = ix.PrefixStats()
	return c
}

// plus returns c + sign·d.
func (c indexCounters) plus(d indexCounters, sign int64) indexCounters {
	for i := range c {
		c[i] += sign * d[i]
	}
	return c
}

// swap publishes g as the active generation and returns the one it
// replaces. What old counted moves into retired, less what g already
// counts — a chain generation both share keeps counting in one block
// cache that both report — so that retired + the active generation's
// counters is continuous across the swap and monotonic ever after.
func (h *handle) swap(g *generation, took time.Duration) (old *generation) {
	opened, shared, terms := g.ix.OpenStats()
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	old = h.gen.Load()
	if old != nil {
		h.retired = h.retired.plus(countersOf(old.ix), 1).plus(countersOf(g.ix), -1)
	}
	h.reloads.opened += int64(opened)
	h.reloads.shared += int64(shared)
	h.reloads.terms += terms
	h.reloads.seconds += took.Seconds()
	h.reloads.count++
	h.gen.Store(g)
	return old
}

// acquire pins the active generation, or returns nil after Close.
func (h *handle) acquire() *generation {
	for {
		g := h.gen.Load()
		if g == nil {
			return nil
		}
		if g.tryAcquire() {
			return g
		}
		// The generation retired between Load and tryAcquire; the
		// pointer already holds (or is about to hold) its successor.
	}
}

// gate is one endpoint's admission control: a semaphore of MaxInflight
// slots with a bounded, timeout-limited wait queue. Sheds are counted
// in total and split by reason: the queue being full (instant refusal)
// versus a queued request timing out.
type gate struct {
	sem      chan struct{}
	maxQueue int64
	timeout  time.Duration

	waiting       atomic.Int64
	inflight      atomic.Int64
	shed          atomic.Int64
	shedQueueFull atomic.Int64
	shedTimeout   atomic.Int64
}

func newGate(maxInflight, maxQueue int, timeout time.Duration) *gate {
	return &gate{
		sem:      make(chan struct{}, maxInflight),
		maxQueue: int64(maxQueue),
		timeout:  timeout,
	}
}

// enter admits the request, waiting up to the queue timeout if the
// endpoint is saturated. It reports false — and counts a shed — when
// the queue is full or the wait times out.
func (g *gate) enter() bool {
	select {
	case g.sem <- struct{}{}:
		g.inflight.Add(1)
		return true
	default:
	}
	if g.waiting.Add(1) > g.maxQueue {
		g.waiting.Add(-1)
		g.shed.Add(1)
		g.shedQueueFull.Add(1)
		return false
	}
	defer g.waiting.Add(-1)
	t := time.NewTimer(g.timeout)
	defer t.Stop()
	select {
	case g.sem <- struct{}{}:
		g.inflight.Add(1)
		return true
	case <-t.C:
		g.shed.Add(1)
		g.shedTimeout.Add(1)
		return false
	}
}

func (g *gate) exit() {
	g.inflight.Add(-1)
	<-g.sem
}

// latencyBuckets are the upper bounds of the fixed latency histogram.
var latencyBuckets = []time.Duration{
	time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, time.Second,
}

var bucketLabels = []string{"1ms", "10ms", "100ms", "1s", "+Inf"}

// endpointMetrics tracks one endpoint's traffic: request and error
// counts, total latency, and a fixed-bucket latency histogram. All
// fields are atomics; recording takes no locks.
type endpointMetrics struct {
	requests  atomic.Int64
	errors    atomic.Int64
	sumMicros atomic.Int64
	maxMicros atomic.Int64
	buckets   [5]atomic.Int64 // cumulative counts per latencyBucket, +Inf last
}

func (m *endpointMetrics) record(d time.Duration, status int, encodeFailed bool) {
	m.requests.Add(1)
	if status >= 400 || encodeFailed {
		m.errors.Add(1)
	}
	us := d.Microseconds()
	m.sumMicros.Add(us)
	for {
		old := m.maxMicros.Load()
		if us <= old || m.maxMicros.CompareAndSwap(old, us) {
			break
		}
	}
	b := len(latencyBuckets)
	for i, ub := range latencyBuckets {
		if d <= ub {
			b = i
			break
		}
	}
	m.buckets[b].Add(1)
}

// endpoint is one logical endpoint's shared state: one gate, one
// metrics row.
type endpoint struct {
	name    string // metrics label; /v1/<name> is the canonical path
	metrics endpointMetrics
	gate    *gate // nil: never shed (healthz, metrics, admin)
}

// testHookQueryStart, when non-nil, runs at the start of every gated
// request while its gate slot is held — the test seam for saturating a
// concurrency gate.
var testHookQueryStart func()

// Server serves one or more named indexes. Create with NewServer; it
// implements http.Handler.
type Server struct {
	opts       ServerOptions
	handles    map[string]*handle
	names      []string // sorted
	start      time.Time
	mux        *http.ServeMux
	retryAfter string // precomputed Retry-After header value, seconds

	// live is the live-ingestion state; nil unless ServerOptions.Live
	// was set.
	live *liveState

	// eps lists every endpoint in metrics-rendering order; the named
	// fields alias into it.
	eps            []*endpoint
	epLookup       *endpoint
	epPrefix       *endpoint
	epTopK         *endpoint
	epQuery        *endpoint
	epScore        *endpoint
	epPredict      *endpoint
	epIngest       *endpoint
	epApproxLookup *endpoint
	epApproxTopK   *endpoint
	epHealthz      *endpoint
	epMetrics      *endpoint
	epReload       *endpoint
	epReconcile    *endpoint
	epCompact      *endpoint
}

// NewServer opens every configured index at its current generation and
// returns the serving handler. On error, indexes opened so far are
// closed.
func NewServer(opts ServerOptions) (*Server, error) {
	opts = opts.withDefaults()
	if len(opts.Indexes) == 0 {
		return nil, fmt.Errorf("serving: no indexes configured")
	}
	retry := int64((opts.RetryAfter + time.Second - 1) / time.Second)
	if retry < 1 {
		retry = 1
	}
	s := &Server{
		opts:       opts,
		handles:    make(map[string]*handle, len(opts.Indexes)),
		start:      time.Now(),
		mux:        http.NewServeMux(),
		retryAfter: strconv.FormatInt(retry, 10),
	}
	if opts.Live != nil {
		ls, err := newLiveState(opts.Live)
		if err != nil {
			return nil, err
		}
		if _, ok := opts.Indexes[ls.cfg.Index]; !ok {
			return nil, fmt.Errorf("serving: live index %q not among served indexes", ls.cfg.Index)
		}
		s.live = ls
	}
	for name := range opts.Indexes {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	for _, name := range s.names {
		h := &handle{name: name, cfg: opts.Indexes[name]}
		h.live = s.live != nil && s.live.cfg.Index == name
		g, err := s.openGeneration(h.cfg, nil)
		switch {
		case err == nil:
			h.gen.Store(g)
		case h.live && errors.Is(err, fs.ErrNotExist):
			// The live index materializes at the first reconciliation;
			// until then the handle serves without a generation.
		default:
			s.Close()
			return nil, fmt.Errorf("serving: open index %q: %w", name, err)
		}
		s.handles[name] = h
	}

	gated := func(name string) *endpoint {
		return &endpoint{
			name: name,
			gate: newGate(opts.MaxInflight, opts.MaxQueue, opts.QueueTimeout),
		}
	}
	s.epLookup = gated("lookup")
	s.epPrefix = gated("prefix")
	s.epTopK = gated("topk")
	s.epQuery = gated("query")
	s.epScore = gated("lm_score")
	s.epPredict = gated("lm_predict")
	s.epIngest = gated("ingest")
	s.epApproxLookup = gated("approx_lookup")
	s.epApproxTopK = gated("approx_topk")
	s.epHealthz = &endpoint{name: "healthz"}
	s.epMetrics = &endpoint{name: "metrics"}
	s.epReload = &endpoint{name: "reload"}
	s.epReconcile = &endpoint{name: "reconcile"}
	s.epCompact = &endpoint{name: "compact"}
	s.eps = []*endpoint{
		s.epLookup, s.epPrefix, s.epTopK, s.epQuery,
		s.epScore, s.epPredict, s.epIngest, s.epApproxLookup, s.epApproxTopK,
		s.epHealthz, s.epMetrics, s.epReload, s.epReconcile, s.epCompact,
	}

	s.mux.HandleFunc("GET /v1/lookup", s.handler(s.epLookup, s.handleLookupV1))
	s.mux.HandleFunc("GET /v1/prefix", s.handler(s.epPrefix, s.handlePrefixV1))
	s.mux.HandleFunc("GET /v1/topk", s.handler(s.epTopK, s.handleTopKV1))
	s.mux.HandleFunc("POST /v1/query", s.handler(s.epQuery, s.handleBatch))
	s.mux.HandleFunc("GET /v1/lm/score", s.handler(s.epScore, s.handleLMScore))
	s.mux.HandleFunc("GET /v1/lm/predict", s.handler(s.epPredict, s.handleLMPredict))
	s.mux.HandleFunc("POST /v1/ingest", s.handler(s.epIngest, s.handleIngest))
	s.mux.HandleFunc("GET /v1/approx/lookup", s.handler(s.epApproxLookup, s.handleApproxLookup))
	s.mux.HandleFunc("GET /v1/approx/topk", s.handler(s.epApproxTopK, s.handleApproxTopK))
	s.mux.HandleFunc("POST /v1/admin/reload", s.handler(s.epReload, s.handleReload))
	s.mux.HandleFunc("POST /v1/admin/reconcile", s.handler(s.epReconcile, s.handleReconcile))
	s.mux.HandleFunc("POST /v1/admin/compact", s.handler(s.epCompact, s.handleCompact))
	s.mux.HandleFunc("GET /v1/healthz", s.handler(s.epHealthz, s.handleHealthz))
	s.mux.HandleFunc("/healthz", s.handler(s.epHealthz, s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.handler(s.epMetrics, s.handleMetrics))
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// openGeneration opens the successor of prev — reopening prev's index,
// so that an LSM chain opens only what its manifest added — or the first
// generation when prev is nil.
func (s *Server) openGeneration(cfg IndexConfig, prev *generation) (*generation, error) {
	var ix *ngramstats.Index
	var err error
	num := int64(1)
	if prev != nil {
		num = prev.num + 1
		ix, err = prev.ix.Reopen()
	} else {
		ix, err = ngramstats.OpenIndexWith(cfg.Dir, ngramstats.IndexOptions{CacheBlocks: cfg.CacheBlocks})
	}
	if err != nil {
		return nil, err
	}
	g := &generation{ix: ix, num: num}
	g.refs.Store(1)
	if s.opts.LMOrder > 0 {
		m, err := ngramstats.NewLanguageModelFromIndex(ix, s.opts.LMOrder)
		if err != nil {
			ix.Close()
			return nil, err
		}
		g.lm = m
	}
	return g, nil
}

// Reload reopens the index directory and atomically swaps the fresh
// generation in. In-flight requests finish on the generation they
// started on; the files it does not share with the new one close when
// the last of them drains. Returns the new generation number.
func (s *Server) Reload(name string) (int64, error) {
	h, ok := s.handles[name]
	if !ok {
		return 0, fmt.Errorf("serving: unknown index %q", name)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, fmt.Errorf("serving: server closed")
	}
	start := time.Now()
	g, err := s.openGeneration(h.cfg, h.gen.Load())
	if err != nil {
		return 0, fmt.Errorf("serving: reload %q: %w", name, err)
	}
	took := time.Since(start)
	if old := h.swap(g, took); old != nil {
		old.release()
	}
	opened, shared, _ := g.ix.OpenStats()
	s.logf("serving: index %q swapped to generation %d (manifest %s; %d generations opened, %d shared, %s)",
		name, g.num, g.ix.ManifestTime().UTC().Format(time.RFC3339), opened, shared, took.Round(time.Microsecond))
	return g.num, nil
}

// ReloadAll reloads every served index, returning the new generation
// numbers and the first error (the rest are still attempted).
func (s *Server) ReloadAll() (map[string]int64, error) {
	out := make(map[string]int64, len(s.names))
	var firstErr error
	for _, name := range s.names {
		gen, err := s.Reload(name)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out[name] = gen
	}
	return out, firstErr
}

// Watch polls every index's on-disk manifest at the given interval
// (default 1s) and reloads when its modification time departs from the
// active generation's — the push-free path to zero-downtime serving:
// rewrite the directory with SaveOptions.Replace and the daemon picks
// it up. Transient stat or open errors (a replacement mid-commit) are
// retried next tick. Watch blocks until ctx is done; run it in its own
// goroutine.
func (s *Server) Watch(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, name := range s.names {
			s.checkReload(s.handles[name])
		}
	}
}

func (s *Server) checkReload(h *handle) {
	g := h.gen.Load()
	if g == nil && !h.live {
		return // shut down
	}
	mtime, err := lsm.ManifestTime(h.cfg.Dir)
	if err != nil {
		return // not yet materialized, mid-replacement, or transient
	}
	if g != nil && mtime.Equal(g.ix.ManifestTime()) {
		return
	}
	if _, err := s.Reload(h.name); err != nil {
		s.logf("serving: watch reload %q: %v", h.name, err)
	}
}

// Close retires every index's active generation; their files close as
// in-flight requests drain. Requests arriving after Close get 503.
// Close is idempotent.
func (s *Server) Close() error {
	for _, name := range s.names {
		h := s.handles[name]
		if h == nil {
			continue
		}
		h.mu.Lock()
		h.closed = true
		g := h.gen.Swap(nil)
		h.mu.Unlock()
		if g != nil {
			g.release()
		}
	}
	return nil
}

// Names returns the served index names, sorted.
func (s *Server) Names() []string { return append([]string(nil), s.names...) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusWriter captures the status code a handler wrote, and any
// response-encoding failure writeJSON hit after the header went out.
type statusWriter struct {
	http.ResponseWriter
	status    int
	encodeErr error
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// handler wraps an endpoint handler with instrumentation and — for
// gated endpoints — admission control.
func (s *Server) handler(ep *endpoint, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if ep.gate != nil {
			if !ep.gate.enter() {
				sw.Header().Set("Retry-After", s.retryAfter)
				writeError(sw, http.StatusTooManyRequests,
					"%s: saturated (inflight limit %d, queue %d), request shed",
					ep.name, s.opts.MaxInflight, s.opts.MaxQueue)
				ep.metrics.record(time.Since(t0), sw.status, sw.encodeErr != nil)
				return
			}
			defer ep.gate.exit()
			if hook := testHookQueryStart; hook != nil {
				hook()
			}
		}
		h(sw, r)
		ep.metrics.record(time.Since(t0), sw.status, sw.encodeErr != nil)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The header is already out; all we can do is count it. The
		// instrumentation wrapper reads encodeErr into the endpoint's
		// error counter.
		if sw, ok := w.(*statusWriter); ok {
			sw.encodeErr = err
		}
	}
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// resolveName pins the generation of the named index — or of the only
// served index when name is empty. The caller must release the
// returned generation.
func (s *Server) resolveName(w http.ResponseWriter, name string) (*generation, string, bool) {
	if name == "" {
		if len(s.names) == 1 {
			name = s.names[0]
		} else {
			writeError(w, http.StatusBadRequest,
				"index parameter required (serving %d indexes: %v)", len(s.names), s.names)
			return nil, "", false
		}
	}
	h, ok := s.handles[name]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown index %q (serving %v)", name, s.names)
		return nil, "", false
	}
	g := h.acquire()
	if g == nil {
		h.mu.Lock()
		closed := h.closed
		h.mu.Unlock()
		if h.live && !closed {
			// Awaiting its first materialization: the index exists once
			// the first reconciliation (or delta append) lands, so the
			// condition is transient — tell the client when to retry.
			w.Header().Set("Retry-After", s.retryAfter)
			writeError(w, http.StatusServiceUnavailable,
				"index %q has no generation yet (awaiting first reconciliation)", name)
			return nil, "", false
		}
		writeError(w, http.StatusServiceUnavailable, "index %q is shut down", name)
		return nil, "", false
	}
	return g, name, true
}

func (s *Server) resolve(w http.ResponseWriter, r *http.Request) (*generation, string, bool) {
	return s.resolveName(w, r.URL.Query().Get("index"))
}

// parseLimit validates the prefix-scan limit parameter: absent selects
// the default, explicit values must be 1..MaxLimit.
func (s *Server) parseLimit(w http.ResponseWriter, r *http.Request) (int, bool) {
	ls := r.URL.Query().Get("limit")
	if ls == "" {
		return defaultPrefixLimit, true
	}
	v, err := strconv.Atoi(ls)
	if err != nil || v < 1 || v > s.opts.MaxLimit {
		writeError(w, http.StatusBadRequest, "bad limit %q (want 1..%d)", ls, s.opts.MaxLimit)
		return 0, false
	}
	return v, true
}

// parseK validates a k parameter: absent selects def, explicit values
// must be 1..MaxK.
func (s *Server) parseK(w http.ResponseWriter, r *http.Request, def int) (int, bool) {
	ks := r.URL.Query().Get("k")
	if ks == "" {
		return def, true
	}
	v, err := strconv.Atoi(ks)
	if err != nil || v < 1 || v > s.opts.MaxK {
		writeError(w, http.StatusBadRequest, "bad k %q (want 1..%d)", ks, s.opts.MaxK)
		return 0, false
	}
	return v, true
}

func requireQ(w http.ResponseWriter, r *http.Request) (string, bool) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return "", false
	}
	return q, true
}

// ---- /v1 query handlers ----

func (s *Server) handleLookupV1(w http.ResponseWriter, r *http.Request) {
	g, name, ok := s.resolve(w, r)
	if !ok {
		return
	}
	defer g.release()
	q, ok := requireQ(w, r)
	if !ok {
		return
	}
	ng, found, err := g.ix.Lookup(q)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "lookup: %v", err)
		return
	}
	resp := LookupResponse{Index: name, Generation: g.num, Query: q, Found: found}
	if found {
		wng := toWire(ng)
		resp.NGram = &wng
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePrefixV1(w http.ResponseWriter, r *http.Request) {
	g, name, ok := s.resolve(w, r)
	if !ok {
		return
	}
	defer g.release()
	q, ok := requireQ(w, r)
	if !ok {
		return
	}
	limit, ok := s.parseLimit(w, r)
	if !ok {
		return
	}
	ngs, err := g.ix.Prefix(q, limit)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "prefix: %v", err)
		return
	}
	out := make([]WireNGram, len(ngs))
	for i, ng := range ngs {
		out[i] = toWire(ng)
	}
	writeJSON(w, http.StatusOK, PrefixResponse{
		Index: name, Generation: g.num, Query: q, Count: len(out), NGrams: out,
	})
}

func (s *Server) handleTopKV1(w http.ResponseWriter, r *http.Request) {
	g, name, ok := s.resolve(w, r)
	if !ok {
		return
	}
	defer g.release()
	k, ok := s.parseK(w, r, defaultTopK)
	if !ok {
		return
	}
	ngs, err := g.ix.TopK(k)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "topk: %v", err)
		return
	}
	out := make([]WireNGram, len(ngs))
	for i, ng := range ngs {
		out[i] = toWire(ng)
	}
	writeJSON(w, http.StatusOK, TopKResponse{
		Index: name, Generation: g.num, K: k, NGrams: out,
	})
}

// handleBatch answers POST /v1/query: a JSON batch of lookup/prefix/
// topk operations, all served from one pinned index generation.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	body := http.MaxBytesReader(w, r.Body, 4<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad batch request: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Ops) > s.opts.MaxBatch {
		writeError(w, http.StatusBadRequest,
			"batch of %d ops exceeds limit %d", len(req.Ops), s.opts.MaxBatch)
		return
	}
	g, name, ok := s.resolveName(w, req.Index)
	if !ok {
		return
	}
	defer g.release()
	results := make([]BatchResult, len(req.Ops))
	for i, op := range req.Ops {
		results[i] = s.runOp(g, op)
	}
	writeJSON(w, http.StatusOK, BatchResponse{Index: name, Generation: g.num, Results: results})
}

func (s *Server) runOp(g *generation, op BatchOp) BatchResult {
	res := BatchResult{Op: op.Op}
	fail := func(format string, args ...any) BatchResult {
		res.Error = fmt.Sprintf(format, args...)
		return res
	}
	switch op.Op {
	case "lookup":
		if op.Q == "" {
			return fail("lookup: missing q")
		}
		ng, found, err := g.ix.Lookup(op.Q)
		if err != nil {
			return fail("lookup: %v", err)
		}
		res.Found = found
		if found {
			wng := toWire(ng)
			res.NGram = &wng
		}
	case "prefix":
		if op.Q == "" {
			return fail("prefix: missing q")
		}
		limit := op.Limit
		if limit == 0 {
			limit = defaultPrefixLimit
		}
		if limit < 1 || limit > s.opts.MaxLimit {
			return fail("prefix: bad limit %d (want 1..%d)", op.Limit, s.opts.MaxLimit)
		}
		ngs, err := g.ix.Prefix(op.Q, limit)
		if err != nil {
			return fail("prefix: %v", err)
		}
		res.Count = len(ngs)
		res.NGrams = make([]WireNGram, len(ngs))
		for i, ng := range ngs {
			res.NGrams[i] = toWire(ng)
		}
	case "topk":
		k := op.K
		if k == 0 {
			k = defaultTopK
		}
		if k < 1 || k > s.opts.MaxK {
			return fail("topk: bad k %d (want 1..%d)", op.K, s.opts.MaxK)
		}
		ngs, err := g.ix.TopK(k)
		if err != nil {
			return fail("topk: %v", err)
		}
		res.NGrams = make([]WireNGram, len(ngs))
		for i, ng := range ngs {
			res.NGrams[i] = toWire(ng)
		}
	default:
		return fail("unknown op %q (want lookup, prefix, or topk)", op.Op)
	}
	return res
}

// ---- /v1/lm handlers ----

func (s *Server) lmFor(w http.ResponseWriter, r *http.Request) (*generation, string, bool) {
	g, name, ok := s.resolve(w, r)
	if !ok {
		return nil, "", false
	}
	if g.lm == nil {
		g.release()
		writeError(w, http.StatusNotImplemented,
			"language model not enabled for index %q (start ngramsd with -lm)", name)
		return nil, "", false
	}
	return g, name, true
}

func (s *Server) handleLMScore(w http.ResponseWriter, r *http.Request) {
	g, name, ok := s.lmFor(w, r)
	if !ok {
		return
	}
	defer g.release()
	q, ok := requireQ(w, r)
	if !ok {
		return
	}
	words := strings.Fields(q)
	writeJSON(w, http.StatusOK, LMScoreResponse{
		Index: name, Generation: g.num, Query: q,
		Words: len(words), LogProb: g.lm.LogProb(words),
	})
}

func (s *Server) handleLMPredict(w http.ResponseWriter, r *http.Request) {
	g, name, ok := s.lmFor(w, r)
	if !ok {
		return
	}
	defer g.release()
	k, ok := s.parseK(w, r, defaultPredictK)
	if !ok {
		return
	}
	q := r.URL.Query().Get("q") // optional: empty context predicts unigrams
	ps := g.lm.Predict(strings.Fields(q), k)
	out := make([]WirePrediction, len(ps))
	for i, p := range ps {
		out[i] = WirePrediction{Word: p.Word, Frequency: p.Frequency, Score: p.Score}
	}
	writeJSON(w, http.StatusOK, LMPredictResponse{
		Index: name, Generation: g.num, Context: q, K: k, Predictions: out,
	})
}

// ---- admin, health, metrics ----

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("index"); name != "" {
		if _, ok := s.handles[name]; !ok {
			writeError(w, http.StatusNotFound, "unknown index %q (serving %v)", name, s.names)
			return
		}
		gen, err := s.Reload(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, ReloadResponse{Reloaded: map[string]int64{name: gen}})
		return
	}
	out, err := s.ReloadAll()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Reloaded: out})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	inv := make(map[string]IndexHealth, len(s.names))
	for _, name := range s.names {
		h := s.handles[name]
		g := h.acquire()
		if g == nil {
			h.mu.Lock()
			closed := h.closed
			h.mu.Unlock()
			if h.live && !closed {
				// Awaiting its first reconciliation; healthy.
				inv[name] = IndexHealth{Live: true}
				continue
			}
			status = "shutdown"
			continue
		}
		inv[name] = IndexHealth{
			Records:      g.ix.Len(),
			Shards:       g.ix.Shards(),
			Generation:   g.num,
			ManifestTime: g.ix.ManifestTime().UTC().Format(time.RFC3339Nano),
			Corpus:       g.ix.Corpus(),
			LM:           g.lm != nil,
			Live:         h.live,
		}
		g.release()
	}
	code := http.StatusOK
	if status != "ok" {
		code = http.StatusServiceUnavailable
	}
	resp := HealthResponse{
		Status:  status,
		Uptime:  time.Since(s.start).String(),
		Indexes: inv,
	}
	if s.opts.WatchInterval > 0 {
		resp.WatchInterval = s.opts.WatchInterval.String()
	}
	if s.live != nil {
		resp.Live = s.live.health()
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "ngramsd_uptime_seconds %.3f\n", time.Since(s.start).Seconds())
	for _, ep := range s.eps {
		fmt.Fprintf(w, "ngramsd_requests_total{endpoint=%q} %d\n", ep.name, ep.metrics.requests.Load())
		fmt.Fprintf(w, "ngramsd_errors_total{endpoint=%q} %d\n", ep.name, ep.metrics.errors.Load())
		fmt.Fprintf(w, "ngramsd_latency_micros_sum{endpoint=%q} %d\n", ep.name, ep.metrics.sumMicros.Load())
		fmt.Fprintf(w, "ngramsd_latency_micros_max{endpoint=%q} %d\n", ep.name, ep.metrics.maxMicros.Load())
		cum := int64(0)
		for i := range ep.metrics.buckets {
			cum += ep.metrics.buckets[i].Load()
			fmt.Fprintf(w, "ngramsd_latency_bucket{endpoint=%q,le=%q} %d\n", ep.name, bucketLabels[i], cum)
		}
		if ep.gate != nil {
			fmt.Fprintf(w, "ngramsd_inflight{endpoint=%q} %d\n", ep.name, ep.gate.inflight.Load())
			fmt.Fprintf(w, "ngramsd_shed_total{endpoint=%q} %d\n", ep.name, ep.gate.shed.Load())
			fmt.Fprintf(w, "ngramsd_shed_reason_total{endpoint=%q,reason=\"queue_full\"} %d\n",
				ep.name, ep.gate.shedQueueFull.Load())
			fmt.Fprintf(w, "ngramsd_shed_reason_total{endpoint=%q,reason=\"timeout\"} %d\n",
				ep.name, ep.gate.shedTimeout.Load())
		}
	}
	if s.live != nil {
		si := s.live.cfg.Ingester
		fmt.Fprintf(w, "ngramsd_live_docs_total %d\n", si.Docs())
		fmt.Fprintf(w, "ngramsd_live_pending_docs %d\n", si.Pending())
		fmt.Fprintf(w, "ngramsd_live_sketch_bytes %d\n", si.Bytes())
		fmt.Fprintf(w, "ngramsd_reconciles_total %d\n", s.live.reconciles.Load())
	}
	for _, name := range s.names {
		h := s.handles[name]
		// Under statsMu the active generation cannot be swapped out, so it
		// and the retired counts are of one moment.
		h.statsMu.Lock()
		reloads, c := h.reloads, h.retired
		g := h.acquire()
		if g != nil {
			c = c.plus(countersOf(g.ix), 1)
		}
		h.statsMu.Unlock()
		fmt.Fprintf(w, "ngramsd_index_swaps_total{index=%q} %d\n", name, reloads.count)
		fmt.Fprintf(w, "ngramsd_reload_generations_opened_total{index=%q} %d\n", name, reloads.opened)
		fmt.Fprintf(w, "ngramsd_reload_generations_shared_total{index=%q} %d\n", name, reloads.shared)
		fmt.Fprintf(w, "ngramsd_reload_dictionary_terms_total{index=%q} %d\n", name, reloads.terms)
		fmt.Fprintf(w, "ngramsd_reload_seconds_sum{index=%q} %.6f\n", name, reloads.seconds)
		fmt.Fprintf(w, "ngramsd_reload_seconds_count{index=%q} %d\n", name, reloads.count)
		if g == nil {
			continue
		}
		fmt.Fprintf(w, "ngramsd_index_generation{index=%q} %d\n", name, g.num)
		fmt.Fprintf(w, "ngramsd_index_records{index=%q} %d\n", name, g.ix.Len())
		fmt.Fprintf(w, "ngramsd_index_shards{index=%q} %d\n", name, g.ix.Shards())
		for i, metric := range indexCounterNames {
			fmt.Fprintf(w, "ngramsd_%s_total{index=%q} %d\n", metric, name, c[i])
		}
		g.release()
	}
}

// ListenAndServe runs srv on addr until ctx is cancelled, then shuts
// down gracefully (in-flight requests get up to five seconds). ready,
// if non-nil, receives the bound address once listening — tests and
// callers using addr ":0" learn the real port from it.
func ListenAndServe(ctx context.Context, addr string, srv *Server, ready chan<- string) error {
	hs := &http.Server{Addr: addr, Handler: srv}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(shutCtx)
	case err := <-errc:
		return err
	}
}
