package corpus

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ngramstats/internal/mapreduce"
	"ngramstats/internal/sequence"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"don't stop", []string{"don't", "stop"}},
		{"e4 e5 2. Nf3", []string{"e4", "e5", "2", "nf3"}},
		{"  multiple   spaces ", []string{"multiple", "spaces"}},
		{"", nil},
		{"...", nil},
		{"'quoted'", []string{"quoted"}},
		{"3.14 pies", []string{"3", "14", "pies"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSplitSentences(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"One. Two. Three.", []string{"One.", "Two.", "Three."}},
		{"What? Yes! Fine.", []string{"What?", "Yes!", "Fine."}},
		{"Mr. Smith went home. He slept.", []string{"Mr. Smith went home.", "He slept."}},
		{"J. Smith agreed.", []string{"J. Smith agreed."}},
		{"Pi is 3.14 exactly. Next.", []string{"Pi is 3.14 exactly.", "Next."}},
		{"Line one\nLine two", []string{"Line one", "Line two"}},
		{"", nil},
		{"No terminator", []string{"No terminator"}},
	}
	for _, c := range cases {
		if got := SplitSentences(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitSentences(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestBoilerplateFilter(t *testing.T) {
	in := "Home | About | Contact\n" +
		"This is the actual article content with enough words to keep.\n" +
		"Next » Prev » Index » Top » More\n" +
		"Copyright\n" +
		"Another real sentence follows here with sufficient length too.\n"
	out := BoilerplateFilter(in)
	if got := len(SplitSentences(out)); got != 2 {
		t.Fatalf("expected 2 content lines, got %d: %q", got, out)
	}
}

func TestFromTextRunningExample(t *testing.T) {
	// The running example as text: term frequencies x:7, b:5, a:3 give
	// ids x=0, b=1, a=2.
	texts := []string{"a x b x x", "b a x b x", "x b a x b"}
	c, err := FromText("demo", texts, []int{1990, 1991, 1992}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Docs) != 3 {
		t.Fatalf("docs = %d", len(c.Docs))
	}
	id := func(s string) sequence.Term {
		v, ok := c.Dict.ID(s)
		if !ok {
			t.Fatalf("missing term %q", s)
		}
		return v
	}
	if id("x") != 0 || id("b") != 1 || id("a") != 2 {
		t.Fatalf("ids: x=%d b=%d a=%d", id("x"), id("b"), id("a"))
	}
	want := sequence.Seq{2, 0, 1, 0, 0}
	if !sequence.Equal(c.Docs[0].Sentences[0], want) {
		t.Fatalf("doc 0 = %v, want %v", c.Docs[0].Sentences[0], want)
	}
	if c.Docs[2].Year != 1992 {
		t.Fatalf("year = %d", c.Docs[2].Year)
	}
}

func TestStats(t *testing.T) {
	c := &Collection{Docs: []Document{
		{ID: 0, Sentences: []sequence.Seq{{0, 1}, {0, 1, 2, 3}}},
		{ID: 1, Sentences: []sequence.Seq{{4, 4, 4}}},
	}}
	st := c.Stats()
	if st.Documents != 2 || st.Sentences != 3 || st.TermOccurrences != 9 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DistinctTerms != 5 {
		t.Fatalf("distinct = %d", st.DistinctTerms)
	}
	if math.Abs(st.SentenceLenMean-3.0) > 1e-9 {
		t.Fatalf("mean = %f", st.SentenceLenMean)
	}
	wantSD := math.Sqrt((1 + 1 + 0) / 3.0)
	if math.Abs(st.SentenceLenSD-wantSD) > 1e-9 {
		t.Fatalf("sd = %f, want %f", st.SentenceLenSD, wantSD)
	}
}

func TestSample(t *testing.T) {
	c := &Collection{Name: "NYT"}
	for i := 0; i < 100; i++ {
		c.Docs = append(c.Docs, Document{ID: int64(i)})
	}
	half := c.Sample(0.5, 42)
	if len(half.Docs) != 50 {
		t.Fatalf("sample size = %d", len(half.Docs))
	}
	if half.Name != "NYT-50%" {
		t.Fatalf("sample name = %q", half.Name)
	}
	// Deterministic given the seed.
	again := c.Sample(0.5, 42)
	for i := range half.Docs {
		if half.Docs[i].ID != again.Docs[i].ID {
			t.Fatal("sampling not deterministic")
		}
	}
	// No duplicates.
	seen := map[int64]bool{}
	for _, d := range half.Docs {
		if seen[d.ID] {
			t.Fatalf("duplicate doc %d", d.ID)
		}
		seen[d.ID] = true
	}
	if got := c.Sample(1.0, 1); got != c {
		t.Fatal("Sample(1.0) should return the collection itself")
	}
}

func TestDocCodecRoundTrip(t *testing.T) {
	d := &Document{
		ID:   123456,
		Year: 2007,
		Sentences: []sequence.Seq{
			{1, 2, 3},
			{},
			{70000, 0},
		},
	}
	v := EncodeDocValue(d)
	got, err := DecodeDocValue(v)
	if err != nil {
		t.Fatal(err)
	}
	got.ID = d.ID
	if got.Year != d.Year || len(got.Sentences) != 3 {
		t.Fatalf("decoded = %+v", got)
	}
	for i := range d.Sentences {
		if !sequence.Equal(got.Sentences[i], d.Sentences[i]) {
			t.Fatalf("sentence %d = %v, want %v", i, got.Sentences[i], d.Sentences[i])
		}
	}
	k := EncodeDocKey(d.ID)
	id, err := DecodeDocKey(k)
	if err != nil || id != d.ID {
		t.Fatalf("key round trip = %d, %v", id, err)
	}
	// Corruption.
	if _, err := DecodeDocValue(v[:len(v)-1]); err == nil {
		t.Fatal("DecodeDocValue accepted truncated input")
	}
	if _, err := DecodeDocValue(append(append([]byte(nil), v...), 9)); err == nil {
		t.Fatal("DecodeDocValue accepted trailing bytes")
	}
}

func TestVisitSentences(t *testing.T) {
	d := &Document{ID: 1, Year: 2000, Sentences: []sequence.Seq{{5, 6}, {7}}}
	v := EncodeDocValue(d)
	var got []sequence.Seq
	scratch, err := VisitSentencesInto(nil, v, func(s sequence.Seq) error {
		got = append(got, sequence.Clone(s))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !sequence.Equal(got[0], sequence.Seq{5, 6}) || !sequence.Equal(got[1], sequence.Seq{7}) {
		t.Fatalf("VisitSentencesInto = %v", got)
	}
	if cap(scratch) < 2 {
		t.Fatalf("VisitSentencesInto returned scratch of capacity %d, want room for the longest sentence", cap(scratch))
	}
}

func TestCollectionInputFeedsMapReduce(t *testing.T) {
	c := &Collection{Docs: []Document{
		{ID: 0, Sentences: []sequence.Seq{{0, 1}}},
		{ID: 1, Sentences: []sequence.Seq{{1, 1}}},
		{ID: 2, Sentences: []sequence.Seq{{0}}},
	}}
	in := c.Input(2)
	splits, err := in.Splits()
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 2 {
		t.Fatalf("splits = %d", len(splits))
	}
	// Count term occurrences via a trivial job.
	res, err := mapreduce.Run(context.Background(), &mapreduce.Job{
		Name:  "occurrences",
		Input: in,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(key, value []byte, emit mapreduce.Emit) error {
				_, err := VisitSentencesInto(nil, value, func(s sequence.Seq) error {
					for range s {
						if err := emit([]byte("n"), []byte{1}); err != nil {
							return err
						}
					}
					return nil
				})
				return err
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(key []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
				var n byte
				for values.Next() {
					n += values.Value()[0]
				}
				return emit(key, []byte{n})
			})
		},
		NumReducers: 1,
		TempDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := mapreduce.CollectDataset(res.Output)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Value[0] != 5 {
		t.Fatalf("occurrences = %v", recs)
	}
}

func TestShardsRoundTrip(t *testing.T) {
	texts := []string{"a x b. x x again.", "b a x b x", "x b a x b"}
	c, err := FromText("demo", texts, []int{1990, 1991, 1992}, false)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteShards(c, dir, 2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadShards("demo", dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Docs) != len(c.Docs) {
		t.Fatalf("docs = %d, want %d", len(got.Docs), len(c.Docs))
	}
	for i := range c.Docs {
		if got.Docs[i].ID != c.Docs[i].ID || got.Docs[i].Year != c.Docs[i].Year {
			t.Fatalf("doc %d metadata mismatch", i)
		}
		if len(got.Docs[i].Sentences) != len(c.Docs[i].Sentences) {
			t.Fatalf("doc %d sentence count mismatch", i)
		}
		for j := range c.Docs[i].Sentences {
			if !sequence.Equal(got.Docs[i].Sentences[j], c.Docs[i].Sentences[j]) {
				t.Fatalf("doc %d sentence %d mismatch", i, j)
			}
		}
	}
	if got.Dict == nil || got.Dict.Len() != c.Dict.Len() {
		t.Fatal("dictionary not restored")
	}
	// Stats agree after the round trip.
	if got.Stats() != c.Stats() {
		t.Fatalf("stats mismatch: %+v vs %+v", got.Stats(), c.Stats())
	}
}

func TestReadShardsMissingDir(t *testing.T) {
	if _, err := ReadShards("x", t.TempDir()); err == nil {
		t.Fatal("expected error for empty directory")
	}
}
