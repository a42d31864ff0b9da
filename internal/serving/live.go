package serving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ngramstats"
)

// LiveConfig wires a StreamIngester into the server: the live-ingest
// endpoints feed it, the approximate endpoints query it, and the
// reconciliation loop periodically appends its accumulated documents
// to the named served index — an LSM chain — and hot-swaps the result
// in.
type LiveConfig struct {
	// Ingester is the stream ingester behind POST /v1/ingest. Required.
	Ingester *ngramstats.StreamIngester
	// Index names the served index (a key of ServerOptions.Indexes) the
	// reconciliation loop appends to. Its directory may start empty: the
	// first reconcile creates the chain. Required.
	Index string
	// Count configures the exact job of each reconcile's append
	// (AppendOptions.Count), whose cost is O(new documents); pair with
	// ServerOptions.Compact. MinFrequency is the τ the chain answers at
	// when the first reconcile creates it. A zero MaxLength is replaced
	// by the ingester's, so the exact index covers the same orders the
	// sketch does. Maximal/closed selection, a property of the whole
	// fold, is refused.
	Count ngramstats.Options
	// Interval is how often the reconciliation loop checks whether
	// enough documents accumulated (IngestOptions.ReconcileEvery).
	// Default 1s.
	Interval time.Duration
	// MaxBatch caps the documents accepted per POST /v1/ingest request
	// (default DefaultMaxBatch).
	MaxBatch int
	// MaxBody caps the request body of POST /v1/ingest in bytes
	// (default 16 MiB).
	MaxBody int64
}

// liveState is the server side of live ingestion.
type liveState struct {
	cfg LiveConfig

	// mu serializes reconciliations (the loop and the admin endpoint).
	mu         sync.Mutex
	reconciles atomic.Int64 // committed reconciliations
	// appended is a reconciliation whose documents are in the chain but
	// whose reload failed: it stays open, its drained delta still
	// counting them, and the next reconciliation retries only the reload
	// rather than append them twice. Guarded by mu.
	appended *ngramstats.Reconcile
}

func newLiveState(cfg *LiveConfig) (*liveState, error) {
	c := *cfg
	if c.Ingester == nil {
		return nil, fmt.Errorf("serving: LiveConfig.Ingester is required")
	}
	if c.Index == "" {
		return nil, fmt.Errorf("serving: LiveConfig.Index is required")
	}
	if c.Count.MaxLength == 0 {
		c.Count.MaxLength = c.Ingester.Options().MaxLength
	}
	if c.Count.Selection != ngramstats.SelectAll {
		return nil, fmt.Errorf("serving: live reconciliation requires SelectAll (maximal/closed selection does not merge across appends)")
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 16 << 20
	}
	return &liveState{cfg: c}, nil
}

func (ls *liveState) health() *LiveHealth {
	si := ls.cfg.Ingester
	io := si.Options()
	return &LiveHealth{
		Index:       ls.cfg.Index,
		Docs:        si.Docs(),
		Covered:     si.Covered(),
		Pending:     si.Pending(),
		Reconciles:  ls.reconciles.Load(),
		Epsilon:     io.Epsilon,
		Delta:       io.Delta,
		MaxLength:   io.MaxLength,
		SketchBytes: si.Bytes(),
	}
}

// requireLive rejects live endpoints with 501 unless live ingestion is
// configured.
func (s *Server) requireLive(w http.ResponseWriter) (*liveState, bool) {
	if s.live == nil {
		writeError(w, http.StatusNotImplemented,
			"live ingestion not enabled (start ngramsd with -ingest)")
		return nil, false
	}
	return s.live, true
}

// testHookSketchCaptured, when non-nil, runs in the approximate
// endpoints between capturing the sketch delta and pinning the exact
// generation — the test seam for a reconciliation landing in between.
var testHookSketchCaptured func()

// testHookAppended, when non-nil, runs in ReconcileNow between the
// append and the reload — the test seam for a reload that fails.
var testHookAppended func()

// approxSources captures the sketch delta and then pins the reconciled
// generation of the live index, in that order; before the first
// reconciliation lands it pins none, and the approximate endpoints
// answer from the sketch alone.
// ReconcileNow swaps the new generation in before it commits, which
// drops the drained delta: reload before commit, delta before
// generation. A generation pinned after the capture therefore covers
// every document the captured delta lost, and an estimate can count a
// document twice but never miss one. The caller releases g.
func (s *Server) approxSources(ls *liveState) (ngramstats.SketchSnapshot, *generation, int64) {
	sk := ls.cfg.Ingester.Sketch()
	if hook := testHookSketchCaptured; hook != nil {
		hook()
	}
	g := s.handles[ls.cfg.Index].acquire()
	if g == nil {
		return sk, nil, 0
	}
	return sk, g, g.num
}

// approxFor combines the exact component of one phrase (from a pinned
// generation, which may be nil) with the sketch delta.
func approxFor(sk ngramstats.SketchSnapshot, g *generation, phrase string) (ApproxNGram, bool, error) {
	ac, ok := sk.Estimate(phrase)
	if !ok {
		return ApproxNGram{}, false, nil
	}
	out := ApproxNGram{
		Phrase:   ac.Phrase,
		Order:    ac.Order,
		Delta:    ac.Estimate,
		Bound:    ac.Bound,
		Estimate: ac.Estimate,
	}
	if g != nil {
		ng, found, err := g.ix.Lookup(ac.Phrase)
		if err != nil {
			return ApproxNGram{}, false, err
		}
		if found {
			out.Exact = ng.Frequency
			out.Estimate += ng.Frequency
		}
	}
	return out, true, nil
}

// handleIngest answers POST /v1/ingest: fold a batch of documents into
// the live sketch delta.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.requireLive(w)
	if !ok {
		return
	}
	var req IngestRequest
	body := http.MaxBytesReader(w, r.Body, ls.cfg.MaxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad ingest request: %v", err)
		return
	}
	if len(req.Docs) == 0 {
		writeError(w, http.StatusBadRequest, "empty document batch")
		return
	}
	if len(req.Docs) > ls.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest,
			"batch of %d documents exceeds limit %d", len(req.Docs), ls.cfg.MaxBatch)
		return
	}
	docs := make([]ngramstats.Document, len(req.Docs))
	for i, d := range req.Docs {
		docs[i] = ngramstats.Document{ID: d.ID, Text: d.Text, Year: d.Year, Web: d.Web}
	}
	si := ls.cfg.Ingester
	if err := si.Ingest(docs...); err != nil {
		writeError(w, http.StatusInternalServerError, "ingest: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{
		Ingested: len(docs),
		Docs:     si.Docs(),
		Covered:  si.Covered(),
		Pending:  si.Pending(),
	})
}

// handleApproxLookup answers GET /v1/approx/lookup: exact count from
// the reconciled generation plus the one-sided sketch estimate of
// everything newer, with the error bound stated.
func (s *Server) handleApproxLookup(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.requireLive(w)
	if !ok {
		return
	}
	q, ok := requireQ(w, r)
	if !ok {
		return
	}
	sk, g, gen := s.approxSources(ls)
	if g != nil {
		defer g.release()
	}
	ng, ok, err := approxFor(sk, g, q)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "approx lookup: %v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusBadRequest,
			"phrase %q outside sketched lengths 1..%d", q, ls.cfg.Ingester.Options().MaxLength)
		return
	}
	writeJSON(w, http.StatusOK, ApproxLookupResponse{
		Index:       ls.cfg.Index,
		Generation:  gen,
		Query:       q,
		Approx:      true,
		ApproxNGram: ng,
	})
}

// handleApproxTopK answers GET /v1/approx/topk: the union of the
// reconciled index's top records and the sketch's heavy hitters, each
// rescored as exact + delta.
func (s *Server) handleApproxTopK(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.requireLive(w)
	if !ok {
		return
	}
	k, ok := s.parseK(w, r, defaultTopK)
	if !ok {
		return
	}
	sk, g, gen := s.approxSources(ls)
	if g != nil {
		defer g.release()
	}
	cands := make(map[string]ApproxNGram)
	add := func(phrase string) error {
		if _, dup := cands[phrase]; dup {
			return nil
		}
		ng, ok, err := approxFor(sk, g, phrase)
		if err != nil || !ok {
			return err // out-of-range candidates are skipped silently
		}
		cands[ng.Phrase] = ng
		return nil
	}
	for _, hh := range sk.TopK(k) {
		if err := add(hh.Phrase); err != nil {
			writeError(w, http.StatusInternalServerError, "approx topk: %v", err)
			return
		}
	}
	if g != nil {
		ngs, err := g.ix.TopK(k)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "approx topk: %v", err)
			return
		}
		for _, ng := range ngs {
			if err := add(ng.Text); err != nil {
				writeError(w, http.StatusInternalServerError, "approx topk: %v", err)
				return
			}
		}
	}
	out := make([]ApproxNGram, 0, len(cands))
	for _, ng := range cands {
		out = append(out, ng)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Estimate != out[j].Estimate {
			return out[i].Estimate > out[j].Estimate
		}
		return out[i].Phrase < out[j].Phrase
	})
	if len(out) > k {
		out = out[:k]
	}
	writeJSON(w, http.StatusOK, ApproxTopKResponse{
		Index:      ls.cfg.Index,
		Generation: gen,
		K:          k,
		Approx:     true,
		NGrams:     out,
	})
}

// handleReconcile answers POST /v1/admin/reconcile: append the
// documents ingested since the last reconcile, swap the result in, and
// reset the delta.
func (s *Server) handleReconcile(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.requireLive(w); !ok {
		return
	}
	resp, err := s.ReconcileNow(r.Context())
	switch {
	case errors.Is(err, ngramstats.ErrReconcileActive):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "reconcile: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// ReconcileNow runs one exact reconciliation synchronously: freeze the
// documents ingested since the last reconcile, append them to the live
// index directory as a delta generation (ngramstats.AppendDelta, which
// creates the chain on the first reconcile), hot-swap the new
// generation in, and release the documents with the drained sketch
// delta. If the append fails, the delta is folded back and queries
// keep answering approximately; if the reload fails, the documents are
// already in the chain, and the next call retries only the reload.
func (s *Server) ReconcileNow(ctx context.Context) (ReconcileResponse, error) {
	ls := s.live
	if ls == nil {
		return ReconcileResponse{}, fmt.Errorf("serving: live ingestion not enabled")
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()

	si := ls.cfg.Ingester
	h := s.handles[ls.cfg.Index]
	resp := ReconcileResponse{Index: ls.cfg.Index}
	rc := ls.appended
	if rc == nil {
		var err error
		if rc, err = si.BeginReconcile(); err != nil {
			return resp, err
		}
		docs := rc.NewDocuments()
		if len(docs) == 0 {
			if err := rc.Abort(); err != nil {
				return resp, err
			}
			if g := h.acquire(); g != nil {
				resp.Generation = g.num
				g.release()
			}
			return resp, nil
		}
		h.chainMu.Lock()
		stats, err := ngramstats.AppendDelta(ctx, h.cfg.Dir, docs, ngramstats.AppendOptions{
			Count:   ls.cfg.Count,
			Builder: si.Options().Builder,
		})
		h.chainMu.Unlock()
		if err != nil {
			if aerr := rc.Abort(); aerr != nil {
				s.logf("serving: reconcile abort after %v: %v", err, aerr)
			}
			return resp, fmt.Errorf("append delta: %w", err)
		}
		resp.AppendedDocs = stats.Docs
		resp.MapInputRecords = stats.Counters["MAP_INPUT_RECORDS"]
	}
	if hook := testHookAppended; hook != nil {
		hook()
	}
	gen, err := s.Reload(ls.cfg.Index)
	if err != nil {
		ls.appended = rc
		return resp, err
	}
	ls.appended = nil
	resp.Generation = gen
	// Commit after the swap: between Reload and Commit both the new
	// generation and the draining delta cover the reconciled documents,
	// so estimates stay one-sided (briefly doubled) rather than ever
	// dropping below the true count — provided the approximate
	// endpoints read the delta before they pin the generation
	// (approxSources): reload before commit, delta before generation.
	// The documents are persisted in the chain, so the ingester
	// releases them.
	rc.Commit()
	ls.reconciles.Add(1)
	resp.Applied = true
	resp.Docs = si.Covered()
	s.logf("serving: reconciled %d documents into index %q generation %d",
		resp.Docs, ls.cfg.Index, resp.Generation)
	return resp, nil
}

// ReconcileLoop runs exact reconciliations whenever at least
// IngestOptions.ReconcileEvery documents accumulated since the last
// one, checking every LiveConfig.Interval. With ReconcileEvery zero it
// idles: reconciliation happens only through POST /v1/admin/reconcile.
// Blocks until ctx is done; run it in its own goroutine.
func (s *Server) ReconcileLoop(ctx context.Context) {
	ls := s.live
	if ls == nil {
		return
	}
	every := int64(ls.cfg.Ingester.Options().ReconcileEvery)
	t := time.NewTicker(ls.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if every <= 0 || ls.cfg.Ingester.Pending() < every {
			continue
		}
		if _, err := s.ReconcileNow(ctx); err != nil {
			s.logf("serving: reconcile loop: %v", err)
		}
	}
}
