package mapreduce

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

// Runner is an execution backend: it takes a compiled Plan and runs
// its tasks to completion, materializing the job output through the
// plan's sink. The engine ships two: LocalRunner executes tasks as
// goroutines in this process (the default), and NetRunner drives
// worker OS processes over HTTP with leases, retries, and a
// shuffle-transfer service — spawned on this machine (the "process"
// address) or joining from others. Third-party backends plug in
// through RegisterRunner.
//
// A Runner must fold every task's counter updates into counters, fire
// PhaseStart/TaskDone events on progress as phases and tasks complete,
// and account shuffle transfer to the plan's ShuffleIO. JobStart and
// JobDone are fired by Run, outside the runner.
type Runner interface {
	Run(ctx context.Context, plan *Plan, counters *Counters, progress Progress) (Dataset, error)
}

// RunnerEnv is the environment variable consulted by DefaultRunner:
// set NGRAMS_RUNNER to a runner address — "process", or say
// "net://127.0.0.1:0" — to execute every job without an explicit
// Job.Runner under that backend ("local" for the in-process default).
// Tests and CI use it to sweep the whole suite across backends without
// touching call sites.
const RunnerEnv = "NGRAMS_RUNNER"

// RunnerConfig is what a runner factory receives: the full address the
// backend was requested under, plus the backend knobs every scheme
// shares. Scheme-specific parameters ride in the address itself (for
// example net://host:port?spawn=3) and are the factory's to parse.
type RunnerConfig struct {
	// Address is the complete runner address, e.g. "process" or
	// "net://127.0.0.1:7001?spawn=3".
	Address string
	// Rest is the part after "scheme://", empty for bare scheme names.
	Rest string
	// Workers is the number of workers to spawn (0 = backend default).
	Workers int
	// MaxAttempts is the per-task failure budget (0 = backend default).
	MaxAttempts int
}

// RunnerFactory builds a backend from a parsed address. Factories must
// reject addresses they cannot honor loudly rather than ignore parts
// of them.
type RunnerFactory func(cfg RunnerConfig) (Runner, error)

var (
	runnerMu        sync.RWMutex
	runnerFactories = make(map[string]RunnerFactory)
)

// RegisterRunner registers an execution-backend scheme. The scheme is
// the address part before "://" (or the whole address for bare names
// like "local"); it is matched case-insensitively and must not contain
// ':' or '/'. The shipped backends self-register as "local" and "net"
// (plus "process", the net runner's loopback configuration);
// third-party backends register in an init
// function and are then addressable everywhere a runner name is
// accepted — Options.Execution, NGRAMS_RUNNER, and the -runner flags.
// Registering the same scheme twice panics: schemes are process-global
// identities.
func RegisterRunner(scheme string, factory RunnerFactory) {
	scheme = strings.ToLower(scheme)
	if scheme == "" || strings.ContainsAny(scheme, ":/") {
		panic(fmt.Sprintf("mapreduce: invalid runner scheme %q", scheme))
	}
	if factory == nil {
		panic(fmt.Sprintf("mapreduce: runner scheme %q registered with nil factory", scheme))
	}
	runnerMu.Lock()
	defer runnerMu.Unlock()
	if _, dup := runnerFactories[scheme]; dup {
		panic(fmt.Sprintf("mapreduce: runner scheme %q registered twice", scheme))
	}
	runnerFactories[scheme] = factory
}

// splitRunnerAddress separates a runner address into its scheme and
// the rest: "net://host:port" → ("net", "host:port"), "process" →
// ("process", ""), "" → ("local", "").
func splitRunnerAddress(address string) (scheme, rest string) {
	if address == "" {
		return "local", ""
	}
	if i := strings.Index(address, "://"); i >= 0 {
		return strings.ToLower(address[:i]), address[i+3:]
	}
	return strings.ToLower(address), ""
}

// NewRunner constructs the execution backend for a runner address:
// "local" (or "") for the in-process LocalRunner,
// "net://host:port[?spawn=N]" for a NetRunner coordinating workers
// over HTTP, "process" for that NetRunner on 127.0.0.1:0 with spawned
// workers, or any scheme a third party registered — with the given
// worker count and per-task attempt limit (both zero-defaulted).
// Unknown schemes are an error, never a silent fallback.
func NewRunner(address string, workers, maxAttempts int) (Runner, error) {
	scheme, rest := splitRunnerAddress(address)
	runnerMu.RLock()
	factory, ok := runnerFactories[scheme]
	runnerMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("mapreduce: unknown runner %q (registered schemes: %s)",
			address, strings.Join(registeredRunners(), ", "))
	}
	return factory(RunnerConfig{Address: address, Rest: rest, Workers: workers, MaxAttempts: maxAttempts})
}

// registeredRunners returns the sorted scheme names, for error
// messages.
func registeredRunners() []string {
	runnerMu.RLock()
	defer runnerMu.RUnlock()
	schemes := make([]string, 0, len(runnerFactories))
	for scheme := range runnerFactories {
		schemes = append(schemes, scheme)
	}
	sort.Strings(schemes)
	return schemes
}

// DefaultRunner returns the backend for jobs with no explicit Runner:
// the one addressed by NGRAMS_RUNNER when set, else LocalRunner. An
// unrecognized NGRAMS_RUNNER value is an error — a typo must not
// silently drop process isolation (or let a backend-specific CI tier
// pass vacuously on the local runner).
func DefaultRunner() (Runner, error) {
	address := os.Getenv(RunnerEnv)
	if address == "" {
		return LocalRunner{}, nil
	}
	r, err := NewRunner(address, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("%w (from %s)", err, RunnerEnv)
	}
	return r, nil
}
