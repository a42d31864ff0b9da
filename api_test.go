package ngramstats

// Tests for the streaming-first public API: CorpusBuilder/FromDocuments
// ingestion, the Start/Job execution handle, and the NGrams/TopK/Lookup
// consumption surface.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"ngramstats/internal/core"
	"ngramstats/internal/mapreduce"
)

// countMap collects a result into text → frequency for comparison.
func countMap(t *testing.T, res *Result) map[string]int64 {
	t.Helper()
	m := map[string]int64{}
	for ng, err := range res.NGrams() {
		if err != nil {
			t.Fatal(err)
		}
		m[ng.Text] = ng.Frequency
	}
	return m
}

// TestCorpusBuilderSpillMatchesFromText is the acceptance check of the
// ingestion redesign: a corpus built through CorpusBuilder with a
// budget small enough to spill every document produces identical Count
// results (same encoded n-grams, since the dictionaries are identical)
// to FromText over the same documents.
func TestCorpusBuilderSpillMatchesFromText(t *testing.T) {
	texts := []string{
		"a rose is a rose is a rose.",
		"a rose by any other name.",
		"the rose wilts. the name remains.",
	}
	years := []int{1913, 1597, 1800}

	batch, err := FromText("rose", texts, years)
	if err != nil {
		t.Fatal(err)
	}

	cb := NewCorpusBuilder("rose", BuilderOptions{MemoryBudget: 1, TempDir: t.TempDir()})
	for i, text := range texts {
		if err := cb.Add(Document{ID: int64(i), Text: text, Year: years[i]}); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := cb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Stats() != batch.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", streamed.Stats(), batch.Stats())
	}

	opts := Options{MinFrequency: 1, MaxLength: 4, TempDir: t.TempDir()}
	rb, err := Count(context.Background(), batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Release()
	rs, err := Count(context.Background(), streamed, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Release()

	got, want := countMap(t, rs), countMap(t, rb)
	if len(got) != len(want) {
		t.Fatalf("result sizes differ: %d vs %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("cf(%q) = %d, want %d", k, got[k], v)
		}
	}
	// Same dictionary means the same integer encoding: identical IDs for
	// the same phrase in both results.
	ngB, okB, _ := rb.Lookup("a rose")
	ngS, okS, _ := rs.Lookup("a rose")
	if !okB || !okS {
		t.Fatal("lookup failed")
	}
	if fmt.Sprint(ngB.IDs) != fmt.Sprint(ngS.IDs) {
		t.Fatalf("encodings differ: %v vs %v", ngB.IDs, ngS.IDs)
	}
}

// TestCorpusBuilderMixedIDsRejected verifies a zero-value ID after
// explicitly assigned IDs errors instead of silently assigning an
// ordinal that could collide with an explicit identifier.
func TestCorpusBuilderMixedIDsRejected(t *testing.T) {
	cb := NewCorpusBuilder("mixed", BuilderOptions{})
	if err := cb.Add(Document{ID: 1, Text: "first."}); err != nil {
		t.Fatal(err)
	}
	if err := cb.Add(Document{ID: 2, Text: "second."}); err != nil {
		t.Fatal(err)
	}
	if err := cb.Add(Document{Text: "auto after explicit."}); err == nil {
		t.Fatal("zero-value ID after explicit IDs accepted")
	}
	cb.Discard()

	// The other direction: an explicit ID after auto-assigned ordinals
	// must be rejected too (it could collide with an ordinal).
	cb2 := NewCorpusBuilder("mixed2", BuilderOptions{})
	if err := cb2.Add(Document{Text: "auto zero."}); err != nil {
		t.Fatal(err)
	}
	if err := cb2.Add(Document{Text: "auto one."}); err != nil {
		t.Fatal(err)
	}
	if err := cb2.Add(Document{ID: 1, Text: "explicit after auto."}); err == nil {
		t.Fatal("explicit ID after auto-assigned IDs accepted")
	}
	cb2.Discard()

	// All-auto and all-explicit streams both remain fine (an explicit 0
	// is representable as the first document only).
	auto := NewCorpusBuilder("auto", BuilderOptions{})
	for i := 0; i < 3; i++ {
		if err := auto.Add(Document{Text: "a doc."}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := auto.Finish(); err != nil {
		t.Fatal(err)
	}
	explicit := NewCorpusBuilder("explicit", BuilderOptions{})
	for _, id := range []int64{0, 2, 1} {
		if err := explicit.Add(Document{ID: id, Text: "a doc."}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := explicit.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestFromDocumentsStream exercises the iterator ingestion path,
// including error propagation and context cancellation.
func TestFromDocumentsStream(t *testing.T) {
	c, err := FromDocuments(context.Background(), "stream",
		func(yield func(Document, error) bool) {
			for i := 0; i < 3; i++ {
				if !yield(Document{Text: "one two three. two three four.", Year: 2000 + i}, nil) {
					return
				}
			}
		}, BuilderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Documents != 3 {
		t.Fatalf("documents = %d", c.Stats().Documents)
	}

	wantErr := errors.New("source failed")
	if _, err := FromDocuments(context.Background(), "bad",
		func(yield func(Document, error) bool) {
			yield(Document{}, wantErr)
		}, BuilderOptions{}); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FromDocuments(cancelled, "cancelled",
		func(yield func(Document, error) bool) {
			yield(Document{Text: "doc"}, nil)
		}, BuilderOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestJobProgressMonotonic polls a running job and asserts every
// progress dimension is non-decreasing across snapshots, and that the
// final snapshot is consistent with the result.
func TestJobProgressMonotonic(t *testing.T) {
	corpus := SyntheticNYT(120, 5)
	job, err := Start(context.Background(), corpus, Options{
		MinFrequency:   3,
		MaxLength:      8,
		DocumentSplits: true, // three MapReduce jobs
		TempDir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}

	var prev JobProgress
	check := func(p JobProgress) {
		t.Helper()
		if p.JobsStarted < prev.JobsStarted || p.JobsDone < prev.JobsDone ||
			p.TasksDone < prev.TasksDone || p.TasksTotal < prev.TasksTotal ||
			p.Records < prev.Records || p.ShuffleBytes < prev.ShuffleBytes ||
			p.Elapsed < prev.Elapsed {
			t.Fatalf("progress went backwards:\nprev %+v\nnow  %+v", prev, p)
		}
		if p.JobsDone > p.JobsStarted {
			t.Fatalf("JobsDone %d > JobsStarted %d", p.JobsDone, p.JobsStarted)
		}
		if p.TasksDone > p.TasksTotal {
			t.Fatalf("TasksDone %d > TasksTotal %d", p.TasksDone, p.TasksTotal)
		}
		prev = p
	}

	for {
		p := job.Progress()
		check(p)
		if p.Done {
			break
		}
		// Don't busy-spin: on a single-CPU runner a tight poll loop
		// contends with the compute goroutines on the tracker mutex.
		time.Sleep(time.Millisecond)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()

	final := job.Progress()
	check(final)
	if final.Phase != "done" || !final.Done {
		t.Fatalf("final phase = %q, done = %v", final.Phase, final.Done)
	}
	if final.JobsDone != res.Jobs() || final.JobsDone != 3 {
		t.Fatalf("JobsDone = %d, result jobs = %d, want 3", final.JobsDone, res.Jobs())
	}
	if final.TasksDone != final.TasksTotal || final.TasksDone == 0 {
		t.Fatalf("tasks %d/%d at completion", final.TasksDone, final.TasksTotal)
	}
	if final.Records != res.RecordsTransferred() {
		t.Fatalf("Records = %d, result = %d", final.Records, res.RecordsTransferred())
	}
	if final.ShuffleBytes != res.ShuffleBytes() {
		t.Fatalf("ShuffleBytes = %d, result = %d", final.ShuffleBytes, res.ShuffleBytes())
	}

	counters := job.Counters()
	if counters["MAP_OUTPUT_RECORDS"] != res.RecordsTransferred() {
		t.Fatalf("counters = %v", counters)
	}
	if counters["LAUNCHED_JOBS"] != 3 {
		t.Fatalf("LAUNCHED_JOBS = %d", counters["LAUNCHED_JOBS"])
	}
}

// onTaskDone adapts a function to the one Progress event it wants.
type onTaskDone func(phase string)

func (onTaskDone) JobStart(mapreduce.JobInfo)   {}
func (onTaskDone) PhaseStart(string, string)    {}
func (f onTaskDone) TaskDone(_, phase string)   { f(phase) }
func (onTaskDone) JobDone(mapreduce.JobSummary) {}

// TestProgressRecordsAdvancePerMapTask wires a tracker the way Start
// does and snapshots it whenever a map task of a 16-split job finishes:
// Records must already be non-zero at the first of them, with the map
// phase still running, and must have reached the job's total at the
// last — map tasks hand their tallies over as they end, not when the
// phase does.
func TestProgressRecordsAdvancePerMapTask(t *testing.T) {
	track := newProgressTracker()
	var mu sync.Mutex
	var snaps []JobProgress
	hook := onTaskDone(func(phase string) {
		if phase == "map" {
			mu.Lock()
			snaps = append(snaps, track.snapshot())
			mu.Unlock()
		}
	})
	run, err := core.Compute(context.Background(), SyntheticNYT(160, 9).collection(), core.SuffixSigma, core.Params{
		Tau: 2, Sigma: 3, InputSplits: 16, NumReducers: 2, MapSlots: 2, Combiner: true,
		TempDir: t.TempDir(), Progress: mapreduce.MultiProgress(track, hook),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Result.Release()
	if len(snaps) != 16 {
		t.Fatalf("%d map-task snapshots, want 16", len(snaps))
	}
	for i, p := range snaps {
		if p.Phase != "map" || p.Records == 0 || (i > 0 && p.Records < snaps[i-1].Records) {
			t.Fatalf("snapshot %d of the map phase: %+v", i, p)
		}
	}
	if first, last := snaps[0].Records, snaps[15].Records; first >= last || last != run.RecordsTransferred() {
		t.Fatalf("Records went %d … %d, job total %d", first, last, run.RecordsTransferred())
	}
}

// TestJobCancellation verifies a cancelled context surfaces through
// Wait.
func TestJobCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job, err := Start(ctx, SyntheticNYT(50, 6), Options{MinFrequency: 2, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	p := job.Progress()
	if !p.Done {
		t.Fatal("progress not done after failed run")
	}
}

// TestStartUnknownMethod verifies eager method validation.
func TestStartUnknownMethod(t *testing.T) {
	c, err := FromText("m", []string{"a b c"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Start(context.Background(), c, Options{Method: "nope"}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestNGramsGolden asserts the NGrams iterator yields exactly the set
// All returns, and that breaking out of the range stops cleanly.
func TestNGramsGolden(t *testing.T) {
	c, err := FromText("golden", []string{
		"a rose is a rose is a rose.",
		"a rose by any other name.",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Count(context.Background(), c, Options{
		MinFrequency: 2, MaxLength: 3, TempDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()

	all, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	var fromIter []NGram
	for ng, err := range res.NGrams() {
		if err != nil {
			t.Fatal(err)
		}
		fromIter = append(fromIter, ng)
	}
	key := func(ng NGram) string { return fmt.Sprintf("%s=%d", ng.Text, ng.Frequency) }
	a := make([]string, len(all))
	b := make([]string, len(fromIter))
	for i := range all {
		a[i] = key(all[i])
	}
	for i := range fromIter {
		b[i] = key(fromIter[i])
	}
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		t.Fatalf("NGrams yielded %d entries, All %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d: %q != %q", i, b[i], a[i])
		}
	}

	// Early break stops the scan without an error.
	n := 0
	for _, err := range res.NGrams() {
		if err != nil {
			t.Fatal(err)
		}
		n++
		break
	}
	if n != 1 {
		t.Fatalf("break yielded %d entries", n)
	}
}

// TestTopKHeapMatchesSort cross-checks the bounded-heap TopK/Longest
// against a full decode-and-sort baseline at every k.
func TestTopKHeapMatchesSort(t *testing.T) {
	c, err := FromText("topk", []string{
		"a rose is a rose is a rose. the rose is red.",
		"a rose by any other name would smell as sweet.",
		"red red red roses. the name of the rose.",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Count(context.Background(), c, Options{
		MinFrequency: 1, MaxLength: 4, TempDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()

	all, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	baselineTopK := append([]NGram(nil), all...)
	sort.Slice(baselineTopK, func(i, j int) bool {
		a, b := baselineTopK[i], baselineTopK[j]
		if a.Frequency != b.Frequency {
			return a.Frequency > b.Frequency
		}
		if len(a.IDs) != len(b.IDs) {
			return len(a.IDs) > len(b.IDs)
		}
		return a.Text < b.Text
	})
	baselineLongest := append([]NGram(nil), all...)
	sort.Slice(baselineLongest, func(i, j int) bool {
		a, b := baselineLongest[i], baselineLongest[j]
		if len(a.IDs) != len(b.IDs) {
			return len(a.IDs) > len(b.IDs)
		}
		if a.Frequency != b.Frequency {
			return a.Frequency > b.Frequency
		}
		return a.Text < b.Text
	})

	for k := 0; k <= len(all)+2; k++ {
		top, err := res.TopK(k)
		if err != nil {
			t.Fatal(err)
		}
		longest, err := res.Longest(k)
		if err != nil {
			t.Fatal(err)
		}
		n := k
		if n > len(all) {
			n = len(all)
		}
		if len(top) != n || len(longest) != n {
			t.Fatalf("k=%d: got %d top, %d longest, want %d", k, len(top), len(longest), n)
		}
		for i := 0; i < n; i++ {
			if top[i].Text != baselineTopK[i].Text || top[i].Frequency != baselineTopK[i].Frequency {
				t.Fatalf("k=%d: TopK[%d] = %q/%d, want %q/%d", k, i,
					top[i].Text, top[i].Frequency, baselineTopK[i].Text, baselineTopK[i].Frequency)
			}
			if longest[i].Text != baselineLongest[i].Text {
				t.Fatalf("k=%d: Longest[%d] = %q, want %q", k, i, longest[i].Text, baselineLongest[i].Text)
			}
		}
	}
}

// TestSplitSampleYearPreservation is the regression test for the
// documented year behavior: per-document publication years survive
// Split and Sample, verified end to end through the TimeSeries
// aggregation (each marker token occurs in exactly one document with a
// known year).
func TestSplitSampleYearPreservation(t *testing.T) {
	texts := []string{
		"markerzero common words here. markerzero again.",
		"markerone common words here. markerone again.",
		"markertwo common words here. markertwo again.",
		"markerthree common words here. markerthree again.",
	}
	years := []int{2001, 2002, 2003, 2004}
	markers := map[string]int{
		"markerzero": 2001, "markerone": 2002, "markertwo": 2003, "markerthree": 2004,
	}
	c, err := FromText("years", texts, years)
	if err != nil {
		t.Fatal(err)
	}

	checkYears := func(name string, part *Corpus) int {
		t.Helper()
		res, err := Count(context.Background(), part, Options{
			MinFrequency: 1, MaxLength: 1, Aggregation: TimeSeries, TempDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer res.Release()
		found := 0
		for marker, year := range markers {
			ng, ok, err := res.Lookup(marker)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue // marker's document is in the other part
			}
			found++
			if len(ng.Years) != 1 || ng.Years[year] != 2 {
				t.Fatalf("%s: %s years = %v, want {%d: 2}", name, marker, ng.Years, year)
			}
		}
		return found
	}

	train, test := c.Split(0.5, 7)
	nTrain := checkYears("train", train)
	nTest := checkYears("test", test)
	if nTrain+nTest != len(markers) {
		t.Fatalf("markers found: %d train + %d test, want %d total", nTrain, nTest, len(markers))
	}
	if got := train.Stats().Documents + test.Stats().Documents; got != 4 {
		t.Fatalf("split documents = %d", got)
	}

	if found := checkYears("sample", c.Sample(0.5, 9)); found != 2 {
		t.Fatalf("sample markers = %d, want 2", found)
	}
}
