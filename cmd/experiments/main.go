// Command experiments regenerates every table and figure of the
// paper's evaluation (Section VII) on the synthetic NYT-like and
// ClueWeb09-B-like corpora:
//
//	table1    dataset characteristics (Table I)
//	fig2      output characteristics histogram (Figure 2)
//	fig3      language-model & analytics use cases (Figure 3)
//	fig4      varying minimum collection frequency τ (Figure 4)
//	fig5      varying maximum length σ (Figure 5)
//	fig6      scaling the datasets 25–100 % (Figure 6)
//	fig7      scaling computational resources / slots (Figure 7)
//	ablation  design-choice ablations (Sections IV & V)
//	all       everything above
//
// Parameters are scaled-down counterparts of the paper's: corpus sizes
// shrink by ~3 orders of magnitude, and τ values shrink accordingly so
// that the output-size regimes (and therefore the method trade-offs)
// match. See EXPERIMENTS.md for the mapping and recorded results.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp fig4 -nyt 2000 -cw 6000 -csv out/
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ngramstats/internal/core"
	"ngramstats/internal/corpus"
	"ngramstats/internal/extsort"
	"ngramstats/internal/mapreduce"
	"ngramstats/internal/sequence"
	"ngramstats/internal/stats"
	"ngramstats/internal/synth"
)

type config struct {
	nytDocs  int
	cwDocs   int
	seed     int64
	slots    int
	reducers int
	splits   int
	tempDir  string
	csvDir   string
	codec    extsort.Codec
	runner   mapreduce.Runner
	verbose  bool
}

func main() {
	var cfg config
	exp := flag.String("exp", "all", "experiment: table1 | fig2 | fig3 | fig4 | fig5 | fig6 | fig7 | ablation | all")
	flag.IntVar(&cfg.nytDocs, "nyt", 2000, "NYT-like corpus size in documents")
	flag.IntVar(&cfg.cwDocs, "cw", 6000, "CW-like corpus size in documents")
	flag.Int64Var(&cfg.seed, "seed", 42, "corpus generation seed")
	flag.IntVar(&cfg.slots, "slots", 4, "map/reduce slots (except fig7, which sweeps them)")
	flag.IntVar(&cfg.reducers, "reducers", 8, "reduce partitions per job")
	flag.IntVar(&cfg.splits, "splits", 16, "map tasks over the corpus")
	flag.StringVar(&cfg.tempDir, "tmp", "", "scratch directory for shuffle spills")
	flag.StringVar(&cfg.csvDir, "csv", "", "directory for CSV output (optional)")
	codec := flag.String("codec", "raw", "shuffle block codec: raw | flate (per-block DEFLATE on top of front-coding)")
	runner := flag.String("runner", "", "execution backend address: local (in-process tasks) | net://host:port[?spawn=N] (HTTP coordinator with leased worker processes) | process (net://127.0.0.1:0 with -workers spawned workers); default honors $NGRAMS_RUNNER")
	workers := flag.Int("workers", 0, "worker processes spawned per job with a worker-spawning -runner (0 = backend default)")
	retries := flag.Int("retries", 0, "per-task attempt budget with a worker-based -runner (0 = default of 2)")
	flag.BoolVar(&cfg.verbose, "v", false, "log per-job progress")
	quick := flag.Bool("quick", false, "small corpora for a fast smoke run")
	nytDir := flag.String("nytdir", "", "load the NYT-like corpus from a corpusgen directory instead of generating")
	cwDir := flag.String("cwdir", "", "load the CW-like corpus from a corpusgen directory instead of generating")
	mapreduce.RunWorkerIfRequested() // hidden worker mode: -runner=process and net:// re-exec this binary
	flag.Parse()

	if *quick {
		cfg.nytDocs, cfg.cwDocs = 400, 900
	}
	switch *codec {
	case "raw":
		cfg.codec = extsort.CodecRaw
	case "flate":
		cfg.codec = extsort.CodecFlate
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown -codec %q (want raw or flate)\n", *codec)
		os.Exit(2)
	}
	if name := *runner; name != "" || *workers > 0 || *retries > 0 {
		if name == "" {
			// -workers / -retries without -runner still apply, to the
			// backend named by NGRAMS_RUNNER (empty means local).
			name = os.Getenv(mapreduce.RunnerEnv)
		}
		r, err := mapreduce.NewRunner(name, *workers, *retries)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		cfg.runner = r
		fmt.Printf("execution backend: %v\n", r)
	}

	start := time.Now()
	var nyt, cw *corpus.Collection
	var err error
	if *nytDir != "" {
		if nyt, err = corpus.ReadShards("NYT", *nytDir); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("loaded NYT-like corpus from %s (%d docs)\n", *nytDir, len(nyt.Docs))
	} else {
		nyt = synth.Generate(synth.NYTLike(cfg.nytDocs, cfg.seed))
	}
	if *cwDir != "" {
		if cw, err = corpus.ReadShards("CW", *cwDir); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("loaded CW-like corpus from %s (%d docs)\n", *cwDir, len(cw.Docs))
	} else {
		cw = synth.Generate(synth.CWLike(cfg.cwDocs, cfg.seed+1))
	}
	fmt.Printf("corpora ready in %v (NYT %d docs, CW %d docs)\n\n",
		time.Since(start).Round(time.Millisecond), len(nyt.Docs), len(cw.Docs))

	ctx := context.Background()
	run := func(name string, fn func(context.Context, *config, *corpus.Collection, *corpus.Collection) error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("========== %s ==========\n", name)
		t0 := time.Now()
		if err := fn(ctx, &cfg, nyt, cw); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("table1", table1)
	run("fig2", fig2)
	run("fig3", fig3)
	run("fig4", fig4)
	run("fig5", fig5)
	run("fig6", fig6)
	run("fig7", fig7)
	run("ablation", ablation)
}

// params builds core.Params for an experiment run.
func (c *config) params(tau int64, sigma, slots int) core.Params {
	p := core.Params{
		Tau:          tau,
		Sigma:        sigma,
		NumReducers:  c.reducers,
		MapSlots:     slots,
		ReduceSlots:  slots,
		InputSplits:  c.splits,
		TempDir:      c.tempDir,
		ShuffleCodec: c.codec,
		Runner:       c.runner,
		Combiner:     true,
	}
	if c.verbose {
		p.Progress = mapreduce.LogProgress(func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		})
	}
	return p
}

// measure runs one method and converts the run into a measurement.
func measure(ctx context.Context, col *corpus.Collection, m core.Method, p core.Params, extra stats.Measurement) (stats.Measurement, error) {
	run, err := core.Compute(ctx, col, m, p)
	if err != nil {
		return stats.Measurement{}, fmt.Errorf("%s on %s: %w", m, col.Name, err)
	}
	out := extra
	out.Dataset = col.Name
	out.Method = string(m)
	out.Tau = p.Tau
	out.Sigma = p.Sigma
	out.Wallclock = run.Wallclock
	out.Bytes = run.BytesTransferred()
	out.ShuffleBytes = run.ShuffleBytesWritten()
	out.Records = run.RecordsTransferred()
	out.Jobs = run.Jobs
	out.Output = run.Result.Len()
	if err := run.Result.Release(); err != nil {
		return out, err
	}
	return out, nil
}

func writeCSV(cfg *config, name string, t *stats.Table) error {
	if cfg.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.csvDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.csvDir, name+".csv")
	if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// table1 prints the dataset characteristics (Table I).
func table1(ctx context.Context, cfg *config, nyt, cw *corpus.Collection) error {
	fmt.Printf("%-28s %15s %15s\n", "", "NYT", "CW")
	n, c := nyt.Stats(), cw.Stats()
	row := func(label string, a, b any) { fmt.Printf("%-28s %15v %15v\n", label, a, b) }
	row("# documents", n.Documents, c.Documents)
	row("# term occurrences", n.TermOccurrences, c.TermOccurrences)
	row("# distinct terms", n.DistinctTerms, c.DistinctTerms)
	row("# sentences", n.Sentences, c.Sentences)
	row("sentence length (mean)", fmt.Sprintf("%.2f", n.SentenceLenMean), fmt.Sprintf("%.2f", c.SentenceLenMean))
	row("sentence length (stddev)", fmt.Sprintf("%.2f", n.SentenceLenSD), fmt.Sprintf("%.2f", c.SentenceLenSD))
	fmt.Printf("\npaper: NYT 1.83M docs / 1.05G occurrences; CW 50.2M docs / 21.4G occurrences\n")
	fmt.Printf("paper: sentence length NYT 18.96±14.05, CW 17.02±17.56\n")
	return nil
}

// fig2 computes output characteristics: all n-grams with cf ≥ 5,
// σ = ∞, bucketed by log10 length × log10 frequency.
func fig2(ctx context.Context, cfg *config, nyt, cw *corpus.Collection) error {
	for _, col := range []*corpus.Collection{nyt, cw} {
		p := cfg.params(5, core.Unbounded, cfg.slots)
		t0 := time.Now()
		run, err := core.Compute(ctx, col, core.SuffixSigma, p)
		if err != nil {
			return err
		}
		buckets := stats.NewBucket2D()
		longest := 0
		var longestText string
		err = run.Result.Each(func(s sequence.Seq, cf int64) error {
			buckets.Add(len(s), cf)
			if len(s) > longest {
				longest = len(s)
				if col.Dict != nil {
					longestText = col.Dict.Format(s)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("[%s] n-grams with cf >= 5 (sigma = inf): %d total, computed in %v\n",
			col.Name, buckets.Total(), time.Since(t0).Round(time.Millisecond))
		fmt.Println(buckets.String())
		if longestText != "" {
			if len(longestText) > 120 {
				longestText = longestText[:120] + "..."
			}
			fmt.Printf("longest frequent n-gram (%d terms): %s\n\n", longest, longestText)
		}
		if err := run.Result.Release(); err != nil {
			return err
		}
	}
	return nil
}

// useCases returns the scaled-down parameters of the two Figure 3 use
// cases per dataset.
func useCases(name string) (lmTau, anTau int64) {
	if name == "NYT" {
		return 3, 5 // paper: τ=10 (LM), τ=100 (analytics) at 1.05G tokens
	}
	return 5, 10 // paper: τ=100 (LM), τ=1000 (analytics) at 21.4G tokens
}

// fig3 runs the two use cases: language model (σ=5, low τ) and text
// analytics (σ=100, higher τ).
func fig3(ctx context.Context, cfg *config, nyt, cw *corpus.Collection) error {
	table := stats.NewTable("Figure 3: use cases", "usecase")
	for _, col := range []*corpus.Collection{nyt, cw} {
		lmTau, anTau := useCases(col.Name)
		for _, uc := range []struct {
			tau   int64
			sigma int
			label string
		}{
			{lmTau, 5, "language model"},
			{anTau, 100, "text analytics"},
		} {
			for _, m := range core.Methods() {
				meas, err := measure(ctx, col, m, cfg.params(uc.tau, uc.sigma, cfg.slots), stats.Measurement{Slots: cfg.slots})
				if err != nil {
					return err
				}
				table.Add(meas)
				fmt.Printf("  [%s] %-16s %-14s τ=%-5d σ=%-4d %10v  %12d bytes %12d shuffle-B %10d records %3d jobs %8d n-grams\n",
					col.Name, uc.label, m, uc.tau, uc.sigma,
					meas.Wallclock.Round(time.Millisecond), meas.Bytes, meas.ShuffleBytes, meas.Records, meas.Jobs, meas.Output)
			}
		}
	}
	fmt.Println()
	fmt.Println(table.Render("wallclock"))
	printSpeedups(table)
	return writeCSV(cfg, "fig3", table)
}

func printSpeedups(table *stats.Table) {
	for _, base := range []string{string(core.Naive), string(core.AprioriScan), string(core.AprioriIndex)} {
		sp := table.Speedup("wallclock", base, string(core.SuffixSigma))
		for k, v := range sp {
			fmt.Printf("speedup of suffix-sigma over %s at %s: %.1fx\n", base, k, v)
		}
	}
}

// fig4 varies the minimum collection frequency τ at σ=5.
func fig4(ctx context.Context, cfg *config, nyt, cw *corpus.Collection) error {
	taus := map[string][]int64{
		"NYT": {2, 5, 10, 50, 100},   // paper: 10 … 100000
		"CW":  {5, 10, 50, 100, 250}, // paper: 100 … 100000
	}
	table := stats.NewTable("Figure 4: varying minimum collection frequency (sigma=5)", "tau")
	for _, col := range []*corpus.Collection{nyt, cw} {
		for _, tau := range taus[col.Name] {
			for _, m := range core.Methods() {
				meas, err := measure(ctx, col, m, cfg.params(tau, 5, cfg.slots), stats.Measurement{Slots: cfg.slots})
				if err != nil {
					return err
				}
				table.Add(meas)
			}
			fmt.Printf("  [%s] τ=%d done\n", col.Name, tau)
		}
	}
	fmt.Println(table.Render("wallclock"))
	fmt.Println(table.Render("bytes"))
	fmt.Println(table.Render("shuffle"))
	fmt.Println(table.Render("records"))
	return writeCSV(cfg, "fig4", table)
}

// fig5 varies the maximum length σ at the analytics τ.
func fig5(ctx context.Context, cfg *config, nyt, cw *corpus.Collection) error {
	sigmas := []int{5, 10, 50, 100}
	table := stats.NewTable("Figure 5: varying maximum length", "sigma")
	for _, col := range []*corpus.Collection{nyt, cw} {
		_, anTau := useCases(col.Name)
		for _, sigma := range sigmas {
			for _, m := range core.Methods() {
				meas, err := measure(ctx, col, m, cfg.params(anTau, sigma, cfg.slots), stats.Measurement{Slots: cfg.slots})
				if err != nil {
					return err
				}
				table.Add(meas)
			}
			fmt.Printf("  [%s] σ=%d done\n", col.Name, sigma)
		}
	}
	fmt.Println(table.Render("wallclock"))
	fmt.Println(table.Render("bytes"))
	fmt.Println(table.Render("shuffle"))
	fmt.Println(table.Render("records"))
	return writeCSV(cfg, "fig5", table)
}

// fig6 scales the datasets: 25/50/75/100 % random document samples.
func fig6(ctx context.Context, cfg *config, nyt, cw *corpus.Collection) error {
	fractions := []int{25, 50, 75, 100}
	table := stats.NewTable("Figure 6: scaling the datasets (sigma=5)", "fraction")
	for _, col := range []*corpus.Collection{nyt, cw} {
		_, anTau := useCases(col.Name)
		for _, f := range fractions {
			sample := col.Sample(float64(f)/100, cfg.seed+int64(f))
			sample.Name = col.Name // group rows under the parent corpus
			for _, m := range core.Methods() {
				meas, err := measure(ctx, sample, m, cfg.params(anTau, 5, cfg.slots),
					stats.Measurement{Slots: cfg.slots, Fraction: f})
				if err != nil {
					return err
				}
				table.Add(meas)
			}
			fmt.Printf("  [%s] %d%% done\n", col.Name, f)
		}
	}
	fmt.Println(table.Render("wallclock"))
	fmt.Println(table.Render("shuffle"))
	return writeCSV(cfg, "fig6", table)
}

// fig7 scales computational resources: slot sweep on 50 % samples.
// The paper sweeps 16/32/48/64 slots on a 10-node cluster; locally the
// sweep is 1/2/4/8 slot pools on one machine — the same
// diminishing-returns contention shape at smaller scale.
func fig7(ctx context.Context, cfg *config, nyt, cw *corpus.Collection) error {
	slotCounts := []int{1, 2, 4, 8}
	table := stats.NewTable("Figure 7: scaling computational resources (50% samples, sigma=5)", "slots")
	for _, col := range []*corpus.Collection{nyt, cw} {
		_, anTau := useCases(col.Name)
		sample := col.Sample(0.5, cfg.seed)
		sample.Name = col.Name
		for _, slots := range slotCounts {
			for _, m := range core.Methods() {
				meas, err := measure(ctx, sample, m, cfg.params(anTau, 5, slots),
					stats.Measurement{Slots: slots, Fraction: 50})
				if err != nil {
					return err
				}
				table.Add(meas)
			}
			fmt.Printf("  [%s] %d slots done\n", col.Name, slots)
		}
	}
	fmt.Println(table.Render("wallclock"))
	fmt.Println(table.Render("shuffle"))
	return writeCSV(cfg, "fig7", table)
}

// ablation quantifies the design choices the paper calls out:
// reverse-lexicographic two-stack aggregation vs. an in-memory hashmap
// (Section IV), the combiner for NAÏVE (Section V), and document
// splits at large σ (Section V).
func ablation(ctx context.Context, cfg *config, nyt, cw *corpus.Collection) error {
	col := nyt
	_, anTau := useCases(col.Name)

	fmt.Println("[A] suffix-sigma two-stack reducer vs hashmap aggregation (sigma=100)")
	for _, m := range []core.Method{core.SuffixSigma, core.SuffixSigmaNaive} {
		meas, err := measure(ctx, col, m, cfg.params(anTau, 100, cfg.slots), stats.Measurement{})
		if err != nil {
			return err
		}
		fmt.Printf("    %-22s %10v  %10d records  %8d n-grams\n",
			m, meas.Wallclock.Round(time.Millisecond), meas.Records, meas.Output)
	}

	fmt.Println("[B] naive with vs without combiner (sigma=5)")
	for _, combine := range []bool{true, false} {
		p := cfg.params(5, 5, cfg.slots)
		p.Combiner = combine
		run, err := core.Compute(ctx, col, core.Naive, p)
		if err != nil {
			return err
		}
		logical := run.Counters.Get(mapreduce.CounterReduceShuffleBytes)
		fmt.Printf("    combiner=%-5v %10v  map-output %12d bytes  shuffled %12d logical-B %12d wire-B\n",
			combine, run.Wallclock.Round(time.Millisecond), run.BytesTransferred(), logical, run.ShuffleBytesWritten())
		if err := run.Result.Release(); err != nil {
			return err
		}
	}

	fmt.Println("[C] suffix-sigma with vs without document splits (sigma=100)")
	for _, split := range []bool{false, true} {
		p := cfg.params(anTau, 100, cfg.slots)
		p.DocSplit = split
		run, err := core.Compute(ctx, col, core.SuffixSigma, p)
		if err != nil {
			return err
		}
		fmt.Printf("    docsplit=%-5v %10v  %12d bytes  %10d records  %d jobs\n",
			split, run.Wallclock.Round(time.Millisecond), run.BytesTransferred(),
			run.RecordsTransferred(), run.Jobs)
		if err := run.Result.Release(); err != nil {
			return err
		}
	}
	return nil
}
