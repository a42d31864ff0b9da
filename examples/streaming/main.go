// Live streaming: one-pass approximate counting with exact-job
// reconciliation.
//
// The paper's MapReduce methods are batch: they need the whole corpus
// before anything can be counted. This example shows the streaming
// companion — documents arrive one at a time, a count-min sketch
// answers frequency queries immediately with a one-sided eps*N error
// bound, and a periodic reconciliation appends the documents that
// arrived since the last one to an exact index (AppendDelta runs the
// SUFFIX-σ job over just them) and releases them. After reconciling,
// queries split into an exact component plus a fresh sketch delta
// covering only the documents that arrived since.
//
// Run with:
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"ngramstats"
)

// makeStream generates a deterministic skewed document stream:
// sentences of zipf-distributed words, so it has genuine heavy
// hitters the way real text does.
func makeStream(n int) []ngramstats.Document {
	rng := rand.New(rand.NewSource(42))
	z := rand.NewZipf(rng, 1.3, 2.0, 799)
	docs := make([]ngramstats.Document, n)
	for i := range docs {
		var sb strings.Builder
		for s := 0; s < 3+rng.Intn(3); s++ {
			for w := 0; w < 5+rng.Intn(8); w++ {
				if w > 0 {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "w%d", z.Uint64())
			}
			sb.WriteString(". ")
		}
		docs[i] = ngramstats.Document{Year: 2000 + i%10, Text: sb.String()}
	}
	return docs
}

func main() {
	ctx := context.Background()

	si, err := ngramstats.NewStreamIngester(ngramstats.IngestOptions{
		Epsilon:   1e-3, // estimates exceed truth by at most eps*N ...
		Delta:     0.01, // ... with probability 1-delta, per phrase
		MaxLength: 3,
		TopK:      16,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A synthetic stream, consumed document by document as if arriving
	// live.
	stream := makeStream(300)

	// Phase 1: ingest the first two thirds and query the sketch alone.
	split := 2 * len(stream) / 3
	if err := si.Ingest(stream[:split]...); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d documents, %d pending reconciliation\n", si.Docs(), si.Pending())
	fmt.Println("\napproximate heavy hitters (sketch only):")
	for _, hh := range si.TopK(5) {
		fmt.Printf("%10d (+<=%d)  %s\n", hh.Estimate, hh.Bound, hh.Phrase)
	}

	// Phase 2: reconcile — freeze the documents since the last
	// reconciliation, append them to the index directory (the first
	// append creates it; each later one adds a delta generation over
	// only its new documents), and commit, which releases them and the
	// counted sketch delta. The index answers at τ = 2.
	dir, err := os.MkdirTemp("", "streaming-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	rc, err := si.BeginReconcile()
	if err != nil {
		log.Fatal(err)
	}
	_, err = ngramstats.AppendDelta(ctx, dir, rc.NewDocuments(), ngramstats.AppendOptions{
		Count: ngramstats.Options{MinFrequency: 2, MaxLength: 3, Combiner: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	exact, err := ngramstats.OpenIndex(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer exact.Close()
	rc.Commit()
	fmt.Printf("\nreconciled %d documents; pending now %d\n", si.Covered(), si.Pending())

	// Phase 3: keep streaming. Queries now combine the reconciled exact
	// count with the sketch delta over the new arrivals.
	if err := si.Ingest(stream[split:]...); err != nil {
		log.Fatal(err)
	}
	top, err := exact.TopK(1)
	if err != nil {
		log.Fatal(err)
	}
	phrase := top[0].Text
	ac, ok := si.Estimate(phrase)
	if !ok {
		log.Fatalf("estimate rejected %q", phrase)
	}
	fmt.Printf("\nafter %d more documents, %q:\n", len(stream)-split, phrase)
	fmt.Printf("  exact (reconciled)  %d\n", top[0].Frequency)
	fmt.Printf("  sketch delta        %d (+<=%d)\n", ac.Estimate, ac.Bound)
	fmt.Printf("  combined estimate   %d\n", top[0].Frequency+ac.Estimate)

	// One-sidedness check against a full batch run over the whole
	// stream: the combined estimate never undercounts.
	batchCorpus, err := ngramstats.FromDocuments(ctx, "batch",
		func(yield func(ngramstats.Document, error) bool) {
			for _, d := range stream {
				if !yield(d, nil) {
					return
				}
			}
		}, ngramstats.BuilderOptions{})
	if err != nil {
		log.Fatal(err)
	}
	batch, err := ngramstats.Count(ctx, batchCorpus, ngramstats.Options{
		MinFrequency: 2, MaxLength: 3, Combiner: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer batch.Release()
	ng, found, err := batch.Lookup(phrase)
	if err != nil || !found {
		log.Fatalf("batch lookup %q: %v %v", phrase, found, err)
	}
	combined := top[0].Frequency + ac.Estimate
	if combined < ng.Frequency {
		log.Fatalf("combined estimate %d undercounts batch truth %d", combined, ng.Frequency)
	}
	fmt.Printf("  batch truth         %d (estimate is one-sided: %d >= %d)\n",
		ng.Frequency, combined, ng.Frequency)
}
