// Command ngramsd serves persistent n-gram indexes over HTTP: the
// query daemon downstream of a computation saved with ngrams -save or
// Result.Save.
//
// Usage:
//
//	ngramsd -index /data/books-idx
//	ngramsd -addr :8091 -index nyt=/data/nyt-idx -index web=/data/web-idx
//	ngramsd -index /data/books-idx -watch -lm 3
//
// Each -index flag names one index directory, optionally as
// name=path; without a name the directory's base name is used. With a
// single index the name may be omitted from queries:
//
//	curl 'localhost:8091/v1/lookup?q=new+york'
//	curl 'localhost:8091/v1/prefix?q=new&limit=10'
//	curl 'localhost:8091/v1/topk?k=25&index=nyt'
//	curl -d '{"ops":[{"op":"lookup","q":"new york"},{"op":"topk","k":5}]}' localhost:8091/v1/query
//	curl 'localhost:8091/v1/lm/score?q=the+new+york+times'   (with -lm)
//	curl 'localhost:8091/v1/lm/predict?q=new&k=5'            (with -lm)
//	curl -X POST 'localhost:8091/v1/admin/reload'
//	curl 'localhost:8091/healthz'
//	curl 'localhost:8091/metrics'
//
// Indexes reload without downtime: -watch polls each index's manifest
// and swaps to the rewritten index (Result.Save with Replace) as soon
// as it lands; POST /v1/admin/reload triggers the same swap on demand.
// In-flight queries finish on the generation they started on.
//
// With -ingest NAME the named index additionally accepts live
// documents and answers approximate queries between reconciliations:
//
//	ngramsd -index live=/data/live-idx -ingest live -reconcile-every 10000
//	curl -d '{"docs":[{"text":"the quick brown fox."}]}' localhost:8091/v1/ingest
//	curl 'localhost:8091/v1/approx/lookup?q=quick+brown'
//	curl 'localhost:8091/v1/approx/topk?k=10'
//	curl -X POST 'localhost:8091/v1/admin/reconcile'
//
// The index directory may start empty; the first reconciliation
// creates it as an LSM chain. Every reconciliation appends only the
// newly ingested documents as a delta generation (cost proportional to
// the new documents, not the stream), and the daemon serves the
// chain's merged view at -min-frequency, which the chain records when
// it is created. -eps and -delta size the count-min sketch behind the
// approximate answers, and -reconcile-every triggers the exact
// MapReduce job automatically once that many documents are pending.
//
// With -ingest the background compactor runs: -compact-deltas and
// -compact-ratio set the policy under which it merges a chain back
// into a single base index, checking every -compact-interval. POST
// /v1/admin/compact compacts on demand:
//
//	ngramsd -index live=/data/live-idx -ingest live \
//	    -reconcile-every 1000 -compact-deltas 4
//	curl -X POST 'localhost:8091/v1/admin/compact'
//
// Without -ingest the daemon is read-only; it serves all indexes
// concurrently either way (including indexes grown offline with
// ngrams -append). Shut it down with SIGINT or SIGTERM (in-flight
// requests drain gracefully).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ngramstats"
	"ngramstats/internal/serving"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("ngramsd: ")

	var specs []string
	addr := flag.String("addr", ":8091", "listen address")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof profiling endpoints on this separate address (e.g. localhost:6060; empty = disabled)")
	cacheBlocks := flag.Int("cache-blocks", 0, "decoded-block cache size per index in blocks (0 = default 128, negative = disabled)")
	watch := flag.Bool("watch", false, "watch index manifests and hot-swap to rewritten indexes automatically")
	watchInterval := flag.Duration("watch-interval", time.Second, "manifest poll interval with -watch")
	lmOrder := flag.Int("lm", 0, "train an n-gram language model of this order per index and enable /v1/lm endpoints (0 = disabled)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent requests per query endpoint before queueing (0 = default)")
	maxQueue := flag.Int("max-queue", 0, "queued requests per query endpoint before shedding (0 = default 2x max-inflight)")
	queueTimeout := flag.Duration("queue-timeout", 0, "how long a queued request waits before being shed with 429 (0 = default)")
	maxLimit := flag.Int("max-limit", 0, "largest accepted prefix limit parameter (0 = default)")
	maxK := flag.Int("max-k", 0, "largest accepted k parameter (0 = default)")
	maxBatch := flag.Int("max-batch", 0, "most operations accepted per /v1/query batch (0 = default)")
	ingest := flag.String("ingest", "", "enable live ingestion into this index name and serve /v1/ingest and /v1/approx endpoints")
	eps := flag.Float64("eps", 0, "sketch error bound factor: estimates exceed true counts by at most eps*N (0 = default 1e-4)")
	delta := flag.Float64("delta", 0, "sketch failure probability: the eps*N bound holds for each key with probability 1-delta (0 = default 0.01)")
	topK := flag.Int("ingest-topk", 0, "heavy hitters tracked across all sketched orders (0 = default 128)")
	ingestMaxLen := flag.Int("ingest-maxlen", 0, "longest sketched and reconciled n-gram (0 = default 5)")
	reconcileEvery := flag.Int("reconcile-every", 0, "run the exact reconciliation job once this many documents are pending (0 = manual via /v1/admin/reconcile)")
	minFrequency := flag.Int64("min-frequency", 2, "minimum frequency the live index answers at, recorded when the first reconciliation creates it")
	compactDeltas := flag.Int("compact-deltas", 0, "compact a served index chain once it has this many delta generations (0 = default 4 when compaction is enabled)")
	compactRatio := flag.Float64("compact-ratio", 0, "also compact once summed delta records reach this fraction of the base's records (0 = disabled)")
	compactInterval := flag.Duration("compact-interval", 0, "how often the background compactor checks chain manifests (0 = default 10s)")
	flag.Func("index", "index directory to serve, optionally name=path (repeatable)", func(v string) error {
		specs = append(specs, v)
		return nil
	})
	flag.Parse()
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "ngramsd: at least one -index is required")
		flag.Usage()
		os.Exit(2)
	}

	indexes := make(map[string]serving.IndexConfig, len(specs))
	for _, spec := range specs {
		// name=path only when the part before '=' looks like a name: a
		// path separator there means the '=' belongs to a bare path
		// (e.g. -index /data/run=3/idx).
		name, dir, ok := strings.Cut(spec, "=")
		if !ok || strings.ContainsAny(name, `/\`) {
			dir = spec
			name = filepath.Base(filepath.Clean(spec))
		}
		if _, dup := indexes[name]; dup {
			log.Fatalf("duplicate index name %q (use name=path to disambiguate)", name)
		}
		indexes[name] = serving.IndexConfig{Dir: dir, CacheBlocks: *cacheBlocks}
	}

	opts := serving.ServerOptions{
		Indexes:      indexes,
		MaxInflight:  *maxInflight,
		MaxQueue:     *maxQueue,
		QueueTimeout: *queueTimeout,
		MaxLimit:     *maxLimit,
		MaxK:         *maxK,
		MaxBatch:     *maxBatch,
		LMOrder:      *lmOrder,
		Logf:         log.Printf,
	}
	if *watch {
		opts.WatchInterval = *watchInterval
	}
	if *ingest != "" {
		si, err := ngramstats.NewStreamIngester(ngramstats.IngestOptions{
			Epsilon:        *eps,
			Delta:          *delta,
			TopK:           *topK,
			MaxLength:      *ingestMaxLen,
			ReconcileEvery: *reconcileEvery,
		})
		if err != nil {
			log.Fatalf("%v", err)
		}
		opts.Live = &serving.LiveConfig{
			Ingester: si,
			Index:    *ingest,
			Count:    ngramstats.Options{MinFrequency: *minFrequency},
		}
	}
	if *ingest != "" || *compactDeltas > 0 || *compactRatio > 0 {
		cc := &serving.CompactConfig{
			MaxDeltas: *compactDeltas,
			MaxRatio:  *compactRatio,
			Interval:  *compactInterval,
		}
		if cc.MaxDeltas <= 0 && cc.MaxRatio <= 0 {
			cc.MaxDeltas = serving.DefaultCompactDeltas
		}
		if cc.Interval <= 0 {
			cc.Interval = serving.DefaultCompactInterval
		}
		opts.Compact = cc
	}

	srv, err := serving.NewServer(opts)
	if err != nil {
		log.Fatalf("%v", err)
	}
	defer srv.Close()
	for _, name := range srv.Names() {
		log.Printf("serving %q", name)
	}

	if *pprofAddr != "" {
		// Profiling lives on its own listener so the endpoints are never
		// reachable through the query address: bind -pprof to localhost
		// (or a firewalled port) and the serving surface stays unchanged.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *watch {
		go srv.Watch(ctx, *watchInterval)
		log.Printf("watching manifests every %v", *watchInterval)
	}
	if *ingest != "" {
		go srv.ReconcileLoop(ctx)
		iopts := opts.Live.Ingester.Options()
		log.Printf("live ingestion into %q (eps=%g delta=%g maxlen=%d reconcile-every=%d min-frequency=%d)",
			*ingest, iopts.Epsilon, iopts.Delta, iopts.MaxLength, iopts.ReconcileEvery, *minFrequency)
	}
	if opts.Compact != nil {
		go srv.CompactLoop(ctx)
		log.Printf("background compaction enabled (deltas>=%d ratio=%g every %v)",
			opts.Compact.MaxDeltas, opts.Compact.MaxRatio, opts.Compact.Interval)
	}

	ready := make(chan string, 1)
	go func() { log.Printf("listening on %s", <-ready) }()
	if err := serving.ListenAndServe(ctx, *addr, srv, ready); err != nil {
		log.Fatalf("serve: %v", err)
	}
	log.Printf("shut down cleanly")
}
