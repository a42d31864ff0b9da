package ngramstats

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"ngramstats/internal/core"
	"ngramstats/internal/lm"
	"ngramstats/internal/sequence"
)

// LanguageModel is an n-gram language model trained from computed
// n-gram statistics — the paper's language-model use case. Scoring
// offers two schemes over the same counts: stupid backoff (Brants et
// al., EMNLP 2007; Score, Predict, Generate) and Katz back-off with
// Good-Turing discounting (Katz 1987, the paper's reference [24];
// LogProb), which yields true probabilities.
//
// A model can be trained from a live Result (NewLanguageModel) or from
// a persisted index (NewLanguageModelFromIndex) — the serving path: a
// daemon reopens a saved index and answers phrase-probability and
// next-word queries without rerunning the computation.
//
// All methods are safe for concurrent use. Score, Predict, Generate,
// and Perplexity are lock-free; LogProb serializes internally on the
// Katz model's memo caches.
type LanguageModel struct {
	// termID and term bridge words to the term identifiers of whichever
	// vocabulary the model was trained against (corpus or persisted
	// dictionary).
	termID func(word string) (sequence.Term, bool)
	term   func(id sequence.Term) string
	model  *lm.Model

	katzOnce sync.Once
	katzMu   sync.Mutex
	katz     *lm.KatzModel
}

// NewLanguageModel trains a model of the given order from a result.
// The result should have been computed with MaxLength ≥ order and a
// low MinFrequency.
func NewLanguageModel(r *Result, order int) (*LanguageModel, error) {
	m, err := lm.FromResult(r.run.Result, order, lm.DefaultAlpha)
	if err != nil {
		return nil, err
	}
	v := corpusVocab(r.corpus)
	return &LanguageModel{termID: v.termID, term: v.term, model: m}, nil
}

// NewLanguageModelFromIndex trains a model of the given order from a
// persisted index (Result.Save → OpenIndex), streaming every indexed
// n-gram of length ≤ order into the model. Words resolve through the
// index's persisted dictionary, so the model answers identically to
// one trained from the Result the index was saved from. The index is
// only read during construction; it may be closed afterwards.
func NewLanguageModelFromIndex(x *Index, order int) (*LanguageModel, error) {
	if order < 1 {
		return nil, fmt.Errorf("ngramstats: language model order %d < 1", order)
	}
	m := lm.New(order, lm.DefaultAlpha)
	err := x.eachAggregate(func(s sequence.Seq, agg core.Aggregate) error {
		m.AddCount(s, agg.Frequency())
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ngramstats: language model from index: %w", err)
	}
	m.Finish()
	dict := x.v.Dictionary()
	return &LanguageModel{
		termID: dict.ID,
		term:   dict.Term,
		model:  m,
	}, nil
}

// vocab adapts a Corpus to the model's word↔id seam.
type vocab struct {
	termID func(string) (sequence.Term, bool)
	term   func(sequence.Term) string
}

func corpusVocab(c *Corpus) vocab {
	return vocab{termID: c.TermID, term: c.Term}
}

// Order returns the model's maximum n-gram length.
func (l *LanguageModel) Order() int { return l.model.Order() }

func (l *LanguageModel) encode(words []string) (sequence.Seq, bool) {
	ids := make(sequence.Seq, len(words))
	for i, w := range words {
		id, ok := l.termID(strings.ToLower(w))
		if !ok {
			return nil, false
		}
		ids[i] = id
	}
	return ids, true
}

// encodeSuffix encodes the longest suffix of words whose every word is
// in the vocabulary — the graceful context truncation shared by LogProb
// and Predict.
func (l *LanguageModel) encodeSuffix(words []string) sequence.Seq {
	for lo := 0; lo < len(words); lo++ {
		if ids, ok := l.encode(words[lo:]); ok {
			return ids
		}
	}
	return nil
}

// Score returns the stupid-backoff score of a word given its context
// words. Unknown context words truncate the context; an unknown word
// scores near zero.
func (l *LanguageModel) Score(context []string, word string) float64 {
	w, ok := l.termID(strings.ToLower(word))
	if !ok {
		return 0
	}
	ctx, ok := l.encode(context)
	if !ok {
		ctx = nil
	}
	return l.model.Score(ctx, w)
}

// Prediction is one candidate next word with its stupid-backoff score.
type Prediction struct {
	Word      string
	Frequency int64
	Score     float64
}

// Predict returns the k most likely words to follow the context: the
// observed continuations of the longest in-vocabulary context suffix
// that has any, best first, scored with stupid backoff. A context with
// unknown words is truncated to its longest known suffix; an empty (or
// fully unknown) context predicts from the unigram distribution.
func (l *LanguageModel) Predict(context []string, k int) []Prediction {
	ps := l.model.Predict(l.encodeSuffix(context), k)
	out := make([]Prediction, len(ps))
	for i, p := range ps {
		out[i] = Prediction{Word: l.term(p.Term), Frequency: p.Count, Score: p.Score}
	}
	return out
}

// LogProb returns the natural log of the phrase's probability under the
// Katz back-off model: each word is scored given its preceding words
// (up to order−1 of them). Unknown words score at the unseen-word floor
// 0.5/(N+1) and truncate the context of the words after them. The Katz
// model is derived from the counts once, on first use.
func (l *LanguageModel) LogProb(words []string) float64 {
	l.katzOnce.Do(func() {
		l.katz = lm.NewKatz(l.model, lm.DefaultKatzCutoff)
	})
	floor := math.Log(0.5 / float64(l.model.Total()+1))
	var total float64
	l.katzMu.Lock()
	defer l.katzMu.Unlock()
	for i := range words {
		w, ok := l.termID(strings.ToLower(words[i]))
		if !ok {
			total += floor
			continue
		}
		lo := i - (l.Order() - 1)
		if lo < 0 {
			lo = 0
		}
		total += math.Log(l.katz.Prob(l.encodeSuffix(words[lo:i]), w))
	}
	return total
}

// Perplexity evaluates the model on test sentences (each a slice of
// words) under stupid backoff; lower is better. Sentences with unknown
// words are skipped.
func (l *LanguageModel) Perplexity(sentences [][]string) float64 {
	var encoded []sequence.Seq
	for _, s := range sentences {
		if ids, ok := l.encode(s); ok {
			encoded = append(encoded, ids)
		}
	}
	return l.model.Perplexity(encoded)
}

// Generate samples a continuation of the prefix words, returning the
// full generated word sequence.
func (l *LanguageModel) Generate(rng *rand.Rand, prefix []string, n int) []string {
	ids, ok := l.encode(prefix)
	if !ok {
		ids = nil
	}
	out := l.model.Generate(rng, ids, n)
	words := make([]string, len(out))
	for i, id := range out {
		words[i] = l.term(id)
	}
	return words
}
