package main

import (
	"math"
	"math/rand"
	"strings"

	"ngramstats"
)

// profile shapes generated text. The two profiles follow the paper's two
// corpora (§VII-B): clean news text with quoted passages, and noisy web text
// with a larger vocabulary and spam blocks repeated inside a page.
type profile struct {
	vocab            int
	zipfS            float64
	burst            float64 // chance a word repeats an earlier word of its document
	sentMin, sentMax int     // sentences per document
	lenMean, lenSD   float64 // words per sentence
	pools            []patternPool
}

// patternPool injects long word sequences that recur across documents.
type patternPool struct {
	size           int
	minLen, maxLen int
	perDoc         float64 // chance a document quotes one pattern of the pool
	maxRepeats     int
}

var profiles = map[string]profile{
	"nyt": {vocab: 20000, zipfS: 1.07, burst: 0.12, sentMin: 2, sentMax: 12, lenMean: 17.2, lenSD: 14.05,
		pools: []patternPool{{120, 8, 40, 0.25, 1}, {25, 40, 110, 0.04, 1}}},
	"cw": {vocab: 60000, zipfS: 1.02, burst: 0.18, sentMin: 1, sentMax: 10, lenMean: 12.6, lenSD: 17.56,
		pools: []patternPool{{30, 50, 150, 0.06, 3}, {40, 15, 60, 0.05, 2}, {200, 6, 25, 0.20, 1}}},
}

// word spells vocabulary rank r as consonant-vowel syllables and a final
// digit. The digit keeps every word clear of the tokeniser's abbreviation and
// initial rules, so ". " always ends a sentence.
func word(r int) string {
	const cons, vow = "bcdfghjklmnprstvwz", "aeiou"
	var sb strings.Builder
	for n := r; ; n = n/(len(cons)*len(vow)) - 1 {
		sb.WriteByte(cons[n%len(cons)])
		sb.WriteByte(vow[n/len(cons)%len(vow)])
		if n < len(cons)*len(vow) {
			break
		}
	}
	sb.WriteByte(byte('0' + r%10))
	return sb.String()
}

// genDocs returns n documents of the profile, a pure function of rng's state.
func genDocs(p profile, n int, rng *rand.Rand) []ngramstats.Document {
	zipf := rand.NewZipf(rng, p.zipfS, 1, uint64(p.vocab-1))
	words := make([]string, p.vocab)
	for i := range words {
		words[i] = word(i)
	}
	pools := make([][]string, len(p.pools))
	for i, pp := range p.pools {
		pools[i] = make([]string, pp.size)
		for j := range pools[i] {
			l := pp.minLen + rng.Intn(pp.maxLen-pp.minLen+1)
			ws := make([]string, l)
			for k := range ws {
				ws[k] = words[zipf.Uint64()]
			}
			pools[i][j] = strings.Join(ws, " ")
		}
	}
	docs := make([]ngramstats.Document, n)
	var history []string
	var sb strings.Builder
	for d := range docs {
		nSent := p.sentMin + rng.Intn(p.sentMax-p.sentMin+1)
		sents := make([]string, 0, nSent+4)
		history = history[:0]
		for s := 0; s < nSent; s++ {
			l := max(1, int(math.Round(rng.NormFloat64()*p.lenSD+p.lenMean)))
			sb.Reset()
			for i := 0; i < l; i++ {
				var w string
				if len(history) > 4 && rng.Float64() < p.burst {
					w = history[rng.Intn(len(history))]
				} else {
					w = words[zipf.Uint64()]
				}
				history = append(history, w)
				if i > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(w)
			}
			sents = append(sents, sb.String())
		}
		for i, pp := range p.pools {
			if rng.Float64() >= pp.perDoc {
				continue
			}
			pat := pools[i][rng.Intn(len(pools[i]))]
			for rep := 1 + rng.Intn(pp.maxRepeats); rep > 0; rep-- {
				at := rng.Intn(len(sents) + 1)
				sents = append(sents, "")
				copy(sents[at+1:], sents[at:])
				sents[at] = pat
			}
		}
		docs[d] = ngramstats.Document{Text: strings.Join(sents, ". ") + ".", Year: 1987 + rng.Intn(21)}
	}
	return docs
}

// bruteForce adds to counts every n-gram of at most sigma words in docs,
// reading the text by the generator's own rules (". " ends a sentence, a space
// ends a word) and nothing of the program under test. It returns the number of
// words read.
func bruteForce(counts map[string]int64, docs []ngramstats.Document, sigma int) (tokens int64) {
	for _, d := range docs {
		for _, sent := range strings.Split(strings.TrimSuffix(d.Text, "."), ". ") {
			ws := strings.Fields(sent)
			tokens += int64(len(ws))
			for i := range ws {
				for n := 1; n <= sigma && i+n <= len(ws); n++ {
					counts[strings.Join(ws[i:i+n], " ")]++
				}
			}
		}
	}
	return tokens
}
