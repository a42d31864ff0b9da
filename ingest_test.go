package ngramstats

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"ngramstats/internal/lsm"
)

// synthDocs generates a deterministic skewed document stream: sentences
// of zipf-distributed words, so the stream has genuine heavy hitters.
func synthDocs(seed int64, n int) []Document {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.4, 2.0, 399)
	docs := make([]Document, n)
	for i := range docs {
		var sb strings.Builder
		for s := 0; s < 2+rng.Intn(3); s++ {
			for w := 0; w < 4+rng.Intn(6); w++ {
				if w > 0 {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "w%d", z.Uint64())
			}
			sb.WriteString(". ")
		}
		docs[i] = Document{Year: 2000 + i%3, Text: sb.String()}
	}
	return docs
}

func sliceDocuments(docs []Document) func(yield func(Document, error) bool) {
	return func(yield func(Document, error) bool) {
		for _, d := range docs {
			if !yield(d, nil) {
				return
			}
		}
	}
}

// TestStreamIngesterOneSidedWithinBound is the satellite estimation-
// error test: on a synthetic corpus, every CMS estimate must be at
// least the exact count, and at least 1−δ of the n-grams must be within
// the stated ε·N bound.
func TestStreamIngesterOneSidedWithinBound(t *testing.T) {
	const maxLen = 3
	docs := synthDocs(11, 120)
	si, err := NewStreamIngester(IngestOptions{
		Epsilon: 0.002, Delta: 0.05, MaxLength: maxLen, TopK: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o := si.Options(); o.Epsilon != 0.002 || o.Delta != 0.05 || o.MaxLength != maxLen || o.TopK != 16 {
		t.Fatalf("Options() = %+v, want the options given", o)
	}
	// Zero options report the sketch's defaults.
	def, err := NewStreamIngester(IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if o := def.Options(); o.Epsilon != 1e-4 || o.Delta != 0.01 || o.TopK != 128 || o.MaxLength != 5 {
		t.Fatalf("default Options() = %+v, want ε 1e-4, δ 0.01, top-k 128, 5 orders", o)
	}
	if err := si.Ingest(docs...); err != nil {
		t.Fatal(err)
	}
	if si.Docs() != int64(len(docs)) || si.Pending() != int64(len(docs)) {
		t.Fatalf("docs=%d pending=%d, want %d", si.Docs(), si.Pending(), len(docs))
	}

	c, err := FromDocuments(context.Background(), "synth", sliceDocuments(docs), BuilderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Count(context.Background(), c, Options{
		MinFrequency: 1, MaxLength: maxLen, TempDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer exact.Release()

	var total, overBound int
	err = exact.Each(func(g NGram) error {
		total++
		ac, ok := si.Estimate(g.Text)
		if !ok {
			return fmt.Errorf("estimate rejected %q", g.Text)
		}
		if ac.Order != g.Length() {
			return fmt.Errorf("%q: order %d, want %d", g.Text, ac.Order, g.Length())
		}
		if ac.Estimate < g.Frequency {
			return fmt.Errorf("%q: estimate %d below exact %d (one-sidedness broken)",
				g.Text, ac.Estimate, g.Frequency)
		}
		if ac.Bound != si.ErrorBound(ac.Order) {
			return fmt.Errorf("%q: bound %d, want %d", g.Text, ac.Bound, si.ErrorBound(ac.Order))
		}
		if ac.Estimate > g.Frequency+ac.Bound {
			overBound++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("exact job produced no n-grams")
	}
	if frac := float64(overBound) / float64(total); frac > 0.05 {
		t.Fatalf("%.4f of %d n-grams exceed the eps*N bound, want <= delta 0.05", frac, total)
	}

	// Sketch N per order equals the exact pipeline's occurrence totals.
	perOrder := make(map[int]int64)
	if err := exact.Each(func(g NGram) error { perOrder[g.Length()] += g.Frequency; return nil }); err != nil {
		t.Fatal(err)
	}
	for order := 1; order <= maxLen; order++ {
		if si.N(order) != perOrder[order] {
			t.Fatalf("order %d: sketch N = %d, exact total = %d", order, si.N(order), perOrder[order])
		}
	}

	// Heavy hitters surface the real top unigram.
	top1, err := exact.TopK(1)
	if err != nil {
		t.Fatal(err)
	}
	hh := si.TopK(0)
	if len(hh) == 0 {
		t.Fatal("no heavy hitters tracked")
	}
	found := false
	for _, e := range hh {
		if e.Phrase == top1[0].Text {
			found = true
			if e.Estimate < top1[0].Frequency {
				t.Fatalf("heavy hitter %q estimate %d below exact %d", e.Phrase, e.Estimate, top1[0].Frequency)
			}
		}
	}
	if !found {
		t.Fatalf("top exact unigram %q missing from heavy hitters", top1[0].Text)
	}

	// Unknown words estimate to zero; out-of-range orders are rejected.
	if ac, ok := si.Estimate("neverseen word"); !ok || ac.Estimate != 0 {
		t.Fatalf("unknown-word estimate = %+v, %v", ac, ok)
	}
	if _, ok := si.Estimate("w1 w2 w3 w4"); ok {
		t.Fatal("order above MaxLength accepted")
	}
	if _, ok := si.Estimate("   "); ok {
		t.Fatal("empty phrase accepted")
	}
}

// TestReconcileByteIdenticalToBatch is the reconciliation golden test:
// a reconciliation appends its frozen documents with AppendDelta, and
// the first one creates the index. Its base holds data files
// byte-identical to a batch Count + Save over the same documents, and
// at τ = 2 it answers every query exactly as a batch Count at τ = 2.
func TestReconcileByteIdenticalToBatch(t *testing.T) {
	ctx := context.Background()
	docs := synthDocs(23, 60)
	si, err := NewStreamIngester(IngestOptions{Epsilon: 0.01, MaxLength: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := si.Ingest(docs...); err != nil {
		t.Fatal(err)
	}

	rc, err := si.BeginReconcile()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rc.NewDocuments()); n != len(docs) {
		t.Fatalf("reconciliation froze %d documents, want %d", n, len(docs))
	}
	if _, err := si.BeginReconcile(); err != ErrReconcileActive {
		t.Fatalf("second BeginReconcile err = %v, want ErrReconcileActive", err)
	}
	dir := filepath.Join(t.TempDir(), "live")
	opts := Options{MinFrequency: 2, MaxLength: 3, TempDir: t.TempDir()}
	if _, err := AppendDelta(ctx, dir, rc.NewDocuments(), AppendOptions{Count: opts}); err != nil {
		t.Fatal(err)
	}
	man, err := lsm.ReadManifest(dir)
	if err != nil {
		t.Fatalf("the first reconciliation must create a chain: %v", err)
	}
	if man.MinFrequency != 2 || len(man.Deltas) != 0 || man.Docs != int64(len(docs)) {
		t.Fatalf("created chain: τ %d, %d deltas, %d docs", man.MinFrequency, len(man.Deltas), man.Docs)
	}

	batch := func(tau int64) *Result {
		c, err := FromDocuments(ctx, "live", sliceDocuments(docs), BuilderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.MinFrequency = tau
		res, err := Count(ctx, c, o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { res.Release() })
		return res
	}
	batchDir := filepath.Join(t.TempDir(), "batch")
	if err := batch(1).SaveWith(batchDir, SaveOptions{TempDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	assertSameDataFiles(t, filepath.Join(dir, man.Base.Dir), batchDir)
	ix, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	assertAnswersMatchResult(t, ix, batch(2))

	rc.Commit()
	if si.Covered() != int64(len(docs)) || si.Pending() != 0 {
		t.Fatalf("after commit: covered=%d pending=%d", si.Covered(), si.Pending())
	}
	// The delta was reset: previously hot keys now estimate from the
	// fresh (empty) delta only.
	if ac, ok := si.Estimate("w2"); !ok || ac.Estimate != 0 {
		t.Fatalf("post-commit delta estimate = %+v, %v", ac, ok)
	}
}

// TestReconcileRotationAndAbort exercises the delta rotation: documents
// ingested during a reconciliation stay queryable, and an abort
// restores the pre-reconcile statistics.
func TestReconcileRotationAndAbort(t *testing.T) {
	si, err := NewStreamIngester(IngestOptions{Epsilon: 0.01, MaxLength: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := si.Ingest(Document{Text: "alpha beta. alpha beta."}); err != nil {
		t.Fatal(err)
	}
	before, _ := si.Estimate("alpha beta")
	if before.Estimate < 2 {
		t.Fatalf("pre-reconcile estimate = %d, want >= 2", before.Estimate)
	}

	rc, err := si.BeginReconcile()
	if err != nil {
		t.Fatal(err)
	}
	// Mid-reconcile ingest lands in the fresh delta; queries sum both.
	if err := si.Ingest(Document{Text: "alpha beta."}); err != nil {
		t.Fatal(err)
	}
	mid, _ := si.Estimate("alpha beta")
	if mid.Estimate < 3 {
		t.Fatalf("mid-reconcile estimate = %d, want >= 3", mid.Estimate)
	}
	if err := rc.Abort(); err != nil {
		t.Fatal(err)
	}
	after, _ := si.Estimate("alpha beta")
	if after.Estimate < 3 {
		t.Fatalf("post-abort estimate = %d, want >= 3 (drained delta lost)", after.Estimate)
	}
	if si.Covered() != 0 {
		t.Fatalf("abort advanced covered to %d", si.Covered())
	}

}

// TestStreamIngesterConcurrent hammers Ingest and the query surface
// from many goroutines (run with -race) and then checks no increment
// was lost.
func TestStreamIngesterConcurrent(t *testing.T) {
	si, err := NewStreamIngester(IngestOptions{Epsilon: 0.01, MaxLength: 2, TopK: 8})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 50
	done := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < perWorker; i++ {
				if err := si.Ingest(Document{Text: fmt.Sprintf("common w%d common.", w)}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	go func() {
		for i := 0; i < 200; i++ {
			si.Estimate("common")
			si.TopK(3)
			si.N(1)
		}
		done <- nil
	}()
	for i := 0; i < workers+1; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if si.Docs() != workers*perWorker {
		t.Fatalf("docs = %d, want %d", si.Docs(), workers*perWorker)
	}
	ac, ok := si.Estimate("common")
	if !ok || ac.Estimate < 2*workers*perWorker {
		t.Fatalf("estimate(common) = %d, want >= %d", ac.Estimate, 2*workers*perWorker)
	}
}
