// Command benchmark drives the whole system from generated text to checked
// HTTP answers and prints named end-to-end and per-layer metrics. README.md in
// this directory says what each metric and workload is for; BENCHMARK.json at
// the root of the repository is the contract a driver runs it under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"ngramstats/internal/mapreduce"
)

// runSeconds is BENCHMARK.json's run_seconds: the length of run the workloads'
// sizes and cycle counts were tuned for.
const runSeconds = 20

func main() {
	// The process and net runners start this binary again as their workers.
	mapreduce.RunWorkerIfRequested()

	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		out     = flag.String("trace-out", "", "where a traced run writes its Chrome trace (default .bench_build/trace-<workload>.json)")
		quick   = flag.Bool("quick", false, "tiny inputs and a one-second run: a smoke test, not a measurement")
		aa      = flag.Int("aa", 0, "run two alternating sets of N seeds of the workload (or of all) and report their spread and drift")
	)
	flag.Parse()
	if *quick {
		*seconds = 1
	}
	w, ok := workloadByName(*name)
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	switch {
	case *aa > 0:
		os.Exit(runAA(names, *aa, *seed, *seconds, *quick))
	case *name == "all":
		os.Exit(runAll(names, *seed, *seconds, *quick))
	}
	if *quick {
		w = w.scaled(quickScale)
	}

	// Everything the run writes stays under the checkout, the layers' own
	// temporary files and the worker processes' included.
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())))
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	os.Setenv("TMPDIR", dir)
	b := newBench(w, *seed, *seconds, *trace == 1, dir)
	rep, err := b.run()
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if b.tracing() {
		path := *out
		if path == "" {
			path = filepath.Join(".bench_build", "trace-"+w.name+".json")
		}
		if err := b.tr.writeChrome(path, w.name); err != nil {
			fatal(err)
		}
		fmt.Printf("# trace written to %s\n", path)
	}
	if err := rep.save(filepath.Join(".bench_build", "results")); err != nil {
		fatal(err)
	}
	fmt.Println(rep.lastLine())
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// newBench fixes the load the machine allows: the workloads are tuned for 2
// closed-loop clients, and a machine with one processor gets one, so that the
// load generator never has more goroutines or connections than processors.
func newBench(w workload, seed int64, seconds float64, trace bool, dir string) *bench {
	b := &bench{w: w, seed: seed, seconds: seconds, dir: dir, slots: runtime.NumCPU(), clients: min(2, runtime.NumCPU()),
		samples: make(map[string][]float64)}
	if trace {
		b.tr = newTracer()
	}
	return b
}

// rounds is how many rounds a run of b.seconds makes: the workload's count at
// the run length it was tuned for, and never fewer than three.
func (b *bench) rounds() int {
	return max(3, int(float64(b.w.rounds)*b.seconds/runSeconds+0.5))
}

// run is the pipeline: text in, HTTP answers out.
func (b *bench) run() (*report, error) {
	// Inputs are generated three times; the median is their share of setup_s.
	p := &pipeline{}
	var gen []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		p.in = b.generate()
		gen = append(gen, time.Since(t0).Seconds())
	}
	if err := b.sampleCheck(p.in); err != nil {
		return nil, err
	}
	// Set-up is everything done once before the rounds, building the index
	// that is served included.
	t0 := time.Now()
	if err := b.buildRep(p, 0); err != nil {
		return nil, err
	}
	if err := b.prepareMethods(p); err != nil {
		return nil, err
	}
	err := b.prepareServing(p)
	if err == nil {
		b.set("setup_s", median(gen)+time.Since(t0).Seconds())
		err = b.measure(p)
	}
	if stopErr := p.served.close(); err == nil && stopErr != nil {
		err = fmt.Errorf("serving: shutdown: %w", stopErr)
	}
	if err != nil {
		return nil, err
	}
	if b.tracing() {
		b.procLayer()
		b.set("mapreduce.slot_speedup", b.value("mapreduce.slots1_count_s")/b.value("count_s"))
		b.set("serving.http_overhead_us", b.value("lookup_p50_us")-b.value("index.lookup_hot_us"))
		b.set("trace.overhead_ratio", b.value("trace.build_traced_s")/b.value("trace.build_untraced_s"))
	}
	return b.report()
}

// measure runs the rounds and, in a traced run, the per-layer measurements
// that stand outside them.
func (b *bench) measure(p *pipeline) error {
	for r := 0; r < b.rounds(); r++ {
		if err := b.buildRep(p, r+1); err != nil {
			return err
		}
		if err := b.methodRound(p, r); err != nil {
			return err
		}
		if err := b.readSlice(p, r); err != nil {
			return err
		}
		if err := b.writeCycle(p, r); err != nil {
			return err
		}
	}
	b.finishReads(p)
	if !b.tracing() {
		return nil
	}
	for _, layer := range []func(*pipeline) error{b.runnerLayer, b.indexLayer, b.extsortLayer, b.kvstoreLayer, b.postingsLayer} {
		if err := layer(p); err != nil {
			return err
		}
	}
	var errs, shed float64
	m, err := p.server.scrape(p.clients[0])
	for name, v := range m {
		switch {
		case strings.HasPrefix(name, "ngramsd_errors_total"):
			errs += v
		case strings.HasPrefix(name, "ngramsd_shed_total"):
			shed += v
		}
	}
	b.set("serving.errors_total", errs)
	b.set("serving.shed_total", shed)
	return err
}

// metricValue is one reported metric: the best of its samples, with their
// quartiles and count beside it. The result file keeps the samples themselves,
// in the order taken.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Median  float64   `json:"median"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// report is one run's result file.
type report struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	SelfTime  map[string]float64     `json:"self_time_s,omitempty"`
	// Beside are the per-layer metrics a run with tracing off reports too (see
	// beside): printed and saved, not part of the result a driver reads.
	Beside map[string]metricValue `json:"beside,omitempty"`
	Env    map[string]any         `json:"env"`

	defs []metricDef
}

// report gathers the metrics this kind of run owes: the end-to-end ones with
// tracing off, the per-layer ones from a traced run.
func (b *bench) report() (*report, error) {
	r := &report{Workload: b.w.name, Trace: b.tracing(), Attempted: b.attempted.Load(), Failed: b.failed.Load(),
		Failures: b.firstFailures, Env: b.env(), defs: endToEnd}
	var err error
	if b.tracing() {
		r.defs = perLayer
		r.SelfTime = make(map[string]float64)
		for layer, d := range b.tr.selfTimes() {
			r.SelfTime[layer] = d.Seconds()
		}
	} else if r.Beside, err = b.collect(beside); err != nil {
		return nil, err
	}
	r.Metrics, err = b.collect(r.defs)
	return r, err
}

// collect reduces the samples of the named metrics to what is reported. A
// metric without a sample is a bug in the benchmark, and an error.
func (b *bench) collect(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, def := range defs {
		s := b.samples[def.name]
		if len(s) == 0 {
			return nil, fmt.Errorf("metric %s was not measured", def.name)
		}
		q1, q2, q3 := quartiles(s)
		out[def.name] = metricValue{Value: best(s, higherIsBetter[def.name]), Unit: def.unit, Q1: q1, Median: q2, Q3: q3, N: len(s), Samples: s}
	}
	return out, nil
}

// print writes one line per metric: workload name value unit, then the
// quartiles of the samples the value was taken from, and their number.
func (r *report) print(f *os.File) {
	line := func(def metricDef, m metricValue) {
		fmt.Fprintf(f, "%s %s %.6g %s (q1 %.6g median %.6g q3 %.6g n %d)\n", r.Workload, def.name, m.Value, m.Unit, m.Q1, m.Median, m.Q3, m.N)
	}
	for _, def := range r.defs {
		line(def, r.Metrics[def.name])
	}
	if !r.Trace {
		for _, def := range beside {
			line(def, r.Beside[def.name])
		}
	}
	layers := make([]string, 0, len(r.SelfTime))
	for layer := range r.SelfTime {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		fmt.Fprintf(f, "%s selftime.%s %.6g s\n", r.Workload, layer, r.SelfTime[layer])
	}
	fmt.Fprintf(f, "%s operations attempted %d failed %d\n", r.Workload, r.Attempted, r.Failed)
	for _, msg := range r.Failures {
		fmt.Fprintf(f, "%s FAILED %s\n", r.Workload, msg)
	}
}

func (r *report) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%v-trace%d.json", r.Workload, r.Env["seed"], trace)), data, 0o644)
}

// lastLine is the one JSON object a driver reads.
func (r *report) lastLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.Metrics))
	for name, m := range r.Metrics {
		metrics[name] = mv{m.Value, m.Unit}
	}
	data, _ := json.Marshal(map[string]any{ // finite floats and strings always marshal
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	return string(data)
}

// env records where and on what the numbers were taken.
func (b *bench) env() map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"commit": commit, "seed": b.seed, "seconds": b.seconds,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": firstField("/proc/cpuinfo", "model name"), "kernel": firstField("/proc/sys/kernel/osrelease", ""),
		"clients": b.clients, "slots": b.slots,
		"sizes": map[string]any{
			"profile": b.w.profile, "docs": b.w.docs, "tau": b.w.tau, "sigma": b.w.sigma, "method_docs": b.w.methodDocs,
			"delta_docs": b.w.deltaDocs, "live_docs": b.w.liveDocs, "batch_docs": b.w.batchDocs,
			"rounds": b.rounds(), "read_secs": b.w.readSecs, "top_ks": b.w.topKs,
		},
	}
}

// firstField returns the value of the first "key : value" line of a file, or
// the file's first line when key is empty.
func firstField(path, key string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key == "" {
			return strings.TrimSpace(line)
		}
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
