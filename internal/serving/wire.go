package serving

import "ngramstats"

// This file is the versioned wire schema of the /v1 API: every /v1
// response decodes into exactly one of these types, and the golden
// wire tests round-trip each endpoint through them.

// WireNGram is the JSON shape of one n-gram.
type WireNGram struct {
	Text      string          `json:"text"`
	IDs       []uint32        `json:"ids,omitempty"`
	Frequency int64           `json:"frequency"`
	Years     map[int]int64   `json:"years,omitempty"`
	Documents map[int64]int64 `json:"documents,omitempty"`
}

func toWire(ng ngramstats.NGram) WireNGram {
	return WireNGram{
		Text:      ng.Text,
		IDs:       ng.IDs,
		Frequency: ng.Frequency,
		Years:     ng.Years,
		Documents: ng.Documents,
	}
}

// ErrorResponse is the body of every non-2xx JSON response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// LookupResponse is the body of GET /v1/lookup.
type LookupResponse struct {
	Index      string     `json:"index"`
	Generation int64      `json:"generation"`
	Query      string     `json:"query"`
	Found      bool       `json:"found"`
	NGram      *WireNGram `json:"ngram,omitempty"`
}

// PrefixResponse is the body of GET /v1/prefix.
type PrefixResponse struct {
	Index      string      `json:"index"`
	Generation int64       `json:"generation"`
	Query      string      `json:"query"`
	Count      int         `json:"count"`
	NGrams     []WireNGram `json:"ngrams"`
}

// TopKResponse is the body of GET /v1/topk.
type TopKResponse struct {
	Index      string      `json:"index"`
	Generation int64       `json:"generation"`
	K          int         `json:"k"`
	NGrams     []WireNGram `json:"ngrams"`
}

// BatchOp is one operation of a POST /v1/query batch.
type BatchOp struct {
	// Op is "lookup", "prefix", or "topk".
	Op string `json:"op"`
	// Q is the phrase (lookup, prefix).
	Q string `json:"q,omitempty"`
	// Limit bounds a prefix scan; 0 selects the server default.
	Limit int `json:"limit,omitempty"`
	// K bounds a topk selection; 0 selects the server default.
	K int `json:"k,omitempty"`
}

// BatchRequest is the body of POST /v1/query: a batch of operations
// answered from one index generation in one round trip.
type BatchRequest struct {
	// Index names the index to query; optional while exactly one index
	// is served.
	Index string    `json:"index,omitempty"`
	Ops   []BatchOp `json:"ops"`
}

// BatchResult is the outcome of one BatchOp, in request order. Either
// Error is set, or the fields of the op's kind are.
type BatchResult struct {
	Op     string      `json:"op"`
	Error  string      `json:"error,omitempty"`
	Found  bool        `json:"found,omitempty"`
	NGram  *WireNGram  `json:"ngram,omitempty"`
	Count  int         `json:"count,omitempty"`
	NGrams []WireNGram `json:"ngrams,omitempty"`
}

// BatchResponse is the body of POST /v1/query. Generation is the index
// generation every result was answered from: a batch never straddles a
// hot swap.
type BatchResponse struct {
	Index      string        `json:"index"`
	Generation int64         `json:"generation"`
	Results    []BatchResult `json:"results"`
}

// LMScoreResponse is the body of GET /v1/lm/score: the Katz back-off
// log-probability of the queried phrase.
type LMScoreResponse struct {
	Index      string  `json:"index"`
	Generation int64   `json:"generation"`
	Query      string  `json:"query"`
	Words      int     `json:"words"`
	LogProb    float64 `json:"logprob"`
}

// WirePrediction is one next-word candidate of GET /v1/lm/predict.
type WirePrediction struct {
	Word      string  `json:"word"`
	Frequency int64   `json:"frequency"`
	Score     float64 `json:"score"`
}

// LMPredictResponse is the body of GET /v1/lm/predict.
type LMPredictResponse struct {
	Index       string           `json:"index"`
	Generation  int64            `json:"generation"`
	Context     string           `json:"context"`
	K           int              `json:"k"`
	Predictions []WirePrediction `json:"predictions"`
}

// WireDocument is one document of a POST /v1/ingest batch.
type WireDocument struct {
	// ID identifies the document; 0 auto-assigns ingestion order.
	ID int64 `json:"id,omitempty"`
	// Text is the raw document text.
	Text string `json:"text"`
	// Year is the publication year (0 = unknown).
	Year int `json:"year,omitempty"`
	// Web marks web-page text for boilerplate filtering.
	Web bool `json:"web,omitempty"`
}

// IngestRequest is the body of POST /v1/ingest.
type IngestRequest struct {
	Docs []WireDocument `json:"docs"`
}

// IngestResponse is the body of POST /v1/ingest: the stream position
// after the batch.
type IngestResponse struct {
	// Ingested is the number of documents this request folded in.
	Ingested int `json:"ingested"`
	// Docs is the total number of documents ingested so far.
	Docs int64 `json:"docs"`
	// Covered is how many leading documents the last committed
	// reconciliation serves exactly.
	Covered int64 `json:"covered"`
	// Pending is Docs − Covered: documents currently answered from the
	// approximate sketch delta.
	Pending int64 `json:"pending"`
}

// ApproxNGram is one approximate n-gram statistic: the exact component
// (from the last reconciled index generation) plus the one-sided sketch
// estimate of everything newer.
type ApproxNGram struct {
	Phrase string `json:"phrase"`
	Order  int    `json:"order"`
	// Estimate = Exact + Delta: one-sided, never below the true count
	// over everything ingested.
	Estimate int64 `json:"estimate"`
	// Exact is the reconciled component.
	Exact int64 `json:"exact"`
	// Delta is the sketch component covering unreconciled documents.
	Delta int64 `json:"delta"`
	// Bound is the one-sided error bound of Delta (ceil of ε·N at this
	// order): with probability 1−δ, Estimate exceeds the true count by
	// no more.
	Bound int64 `json:"bound"`
}

// ApproxLookupResponse is the body of GET /v1/approx/lookup. Approx is
// always true: the estimate is one-sided with a stated error bound,
// unlike the exact /v1/lookup answer.
type ApproxLookupResponse struct {
	Index string `json:"index"`
	// Generation is the reconciled index generation the exact component
	// was answered from; 0 before the first reconciliation lands.
	Generation int64  `json:"generation"`
	Query      string `json:"query"`
	Approx     bool   `json:"approx"`
	ApproxNGram
}

// ApproxTopKResponse is the body of GET /v1/approx/topk.
type ApproxTopKResponse struct {
	Index      string        `json:"index"`
	Generation int64         `json:"generation"`
	K          int           `json:"k"`
	Approx     bool          `json:"approx"`
	NGrams     []ApproxNGram `json:"ngrams"`
}

// ReconcileResponse is the body of POST /v1/admin/reconcile.
type ReconcileResponse struct {
	Index string `json:"index"`
	// Applied reports whether an exact job ran; false when no documents
	// were ingested yet.
	Applied bool `json:"applied"`
	// Docs is how many documents the reconciled index now covers.
	Docs int64 `json:"docs"`
	// Generation is the index generation serving the reconciled
	// results.
	Generation int64 `json:"generation"`
	// AppendedDocs is how many new documents the appended generation
	// covered — exactly the documents ingested since the previous
	// reconcile.
	AppendedDocs int64 `json:"appended_docs,omitempty"`
	// MapInputRecords is the MAP_INPUT_RECORDS counter of the append's
	// job: the records it actually read, evidence the append was O(new
	// documents).
	MapInputRecords int64 `json:"map_input_records,omitempty"`
}

// CompactResponse is the body of POST /v1/admin/compact.
type CompactResponse struct {
	Index string `json:"index"`
	// Compacted is false when there was nothing to do: a plain index,
	// or a chain with no deltas.
	Compacted bool `json:"compacted"`
	// Generations is how many chain generations were merged.
	Generations int `json:"generations,omitempty"`
	// Records is the record count of the compacted base.
	Records int64 `json:"records,omitempty"`
	// WallclockMS is the compaction's elapsed time in milliseconds.
	WallclockMS int64 `json:"wallclock_ms,omitempty"`
	// Generation is the index generation now serving.
	Generation int64 `json:"generation"`
}

// IndexHealth is one index's entry in HealthResponse.
type IndexHealth struct {
	Records      int64  `json:"records"`
	Shards       int    `json:"shards"`
	Generation   int64  `json:"generation"`
	ManifestTime string `json:"manifest_mtime"` // RFC 3339
	Corpus       string `json:"corpus,omitempty"`
	LM           bool   `json:"lm,omitempty"`
	// Live marks the index fed by the live reconciliation loop; a live
	// index may not have a generation yet (Generation 0, zero Records)
	// before the first reconcile lands, without making the server
	// unhealthy.
	Live bool `json:"live,omitempty"`
}

// LiveHealth is the live-ingestion section of HealthResponse.
type LiveHealth struct {
	// Index is the served index the reconciliation loop feeds.
	Index   string `json:"index"`
	Docs    int64  `json:"docs"`
	Covered int64  `json:"covered"`
	Pending int64  `json:"pending"`
	// Reconciles counts committed reconciliations.
	Reconciles int64 `json:"reconciles"`
	// Epsilon and Delta state the sketch's ε·N error bound and its
	// failure probability.
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	// MaxLength is the longest sketched (and reconciled) n-gram.
	MaxLength int `json:"max_length"`
	// SketchBytes is the resident counter memory of the sketches.
	SketchBytes int64 `json:"sketch_bytes"`
}

// HealthResponse is the body of GET /healthz and GET /v1/healthz.
type HealthResponse struct {
	Status string `json:"status"`
	Uptime string `json:"uptime"`
	// WatchInterval is the manifest poll interval when the daemon runs
	// with -watch; empty otherwise.
	WatchInterval string                 `json:"watch_interval,omitempty"`
	Indexes       map[string]IndexHealth `json:"indexes"`
	// Live reports the live-ingestion state when the daemon runs with
	// -ingest; absent otherwise.
	Live *LiveHealth `json:"live,omitempty"`
}

// ReloadResponse is the body of POST /v1/admin/reload: the new
// generation number per reloaded index.
type ReloadResponse struct {
	Reloaded map[string]int64 `json:"reloaded"`
}
