package corpus

import (
	"testing"

	"ngramstats/internal/sequence"
)

// FuzzDecodeDocValue: arbitrary bytes either decode into a document
// that re-encodes identically, or are rejected — never a panic.
func FuzzDecodeDocValue(f *testing.F) {
	f.Add(EncodeDocValue(&Document{Year: 1999, Sentences: []sequence.Seq{{1, 2}, {}}}))
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDocValue(data)
		if err != nil {
			return
		}
		re := EncodeDocValue(d)
		d2, err := DecodeDocValue(re)
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if d2.Year != d.Year || len(d2.Sentences) != len(d.Sentences) {
			t.Fatal("round trip changed document")
		}
		// VisitSentencesInto agrees with the full decode.
		i := 0
		_, err = VisitSentencesInto(nil, data, func(s sequence.Seq) error {
			if !sequence.Equal(s, d.Sentences[i]) {
				t.Fatalf("VisitSentencesInto sentence %d differs", i)
			}
			i++
			return nil
		})
		if err != nil || i != len(d.Sentences) {
			t.Fatalf("VisitSentencesInto saw %d sentences, err %v", i, err)
		}
	})
}

// FuzzTokenizeAndSplit: text processing never panics and produces
// tokens free of separators.
func FuzzTokenizeAndSplit(f *testing.F) {
	f.Add("Hello, World! It's 3.14. Dr. No said so.")
	f.Add("")
	f.Add("\x00\xff unicode: naïve — 日本語.")
	f.Fuzz(func(t *testing.T, text string) {
		for _, sent := range SplitSentences(text) {
			for _, tok := range Tokenize(sent) {
				if tok == "" {
					t.Fatal("empty token")
				}
				for _, r := range tok {
					if r == ' ' || r == '\n' || r == '.' {
						t.Fatalf("separator inside token %q", tok)
					}
				}
			}
		}
		_ = BoilerplateFilter(text)
	})
}
