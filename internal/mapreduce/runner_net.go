package mapreduce

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// NetRunner executes a plan through an HTTP coordinator: workers
// register over the network, poll for leased tasks, heartbeat while
// executing, and report results; reduce workers pull the map outputs
// they merge from the producing workers' shuffle-transfer services as
// verified ranged transfers. Fault tolerance is built in — leases that
// stop heartbeating expire and reassign, failed attempts retry up to
// MaxAttempts on fresh scratch, stragglers are speculatively
// duplicated (first completion wins), and map outputs that die with
// their worker are re-executed.
//
// By default the runner is self-contained on one machine: it spawns
// Workers one-job worker processes (re-executions of the current
// binary, which must call RunWorkerIfRequested) against its own
// coordinator, replaces the ones that die, and tells the coordinator
// about every exit, so a crashed worker's tasks are retried at once
// rather than after lease expiry. The zero value — loopback, ephemeral
// port — is what the "process" runner address resolves to. With
// NoSpawn it relies entirely on externally started workers
// (`ngrams -worker-connect host:port`, or RunNetWorker), which may
// join from other machines; nothing runs until at least one connects.
//
// A plan without a Spec has no registered program a worker could
// rebuild its callbacks from; such jobs fall back to in-process
// execution via LocalRunner.
type NetRunner struct {
	// Addr is the coordinator listen address, host:port; an empty host
	// binds all interfaces, port 0 picks an ephemeral port. Empty
	// defaults to "127.0.0.1:0". A fixed port serves one job at a time.
	Addr string
	// Workers is how many one-job worker processes to spawn (default:
	// max(2, GOMAXPROCS); ignored under NoSpawn).
	Workers int
	// NoSpawn disables worker spawning: only externally connected
	// workers execute tasks.
	NoSpawn bool
	// MaxAttempts is the per-task failure budget before the job fails
	// (default: 2, i.e. one retry). Lease expiries count against it.
	MaxAttempts int
	// LeaseTTL is how long a task lease lives without a heartbeat
	// before it is reassigned (default: 10s). Workers heartbeat at a
	// third of it.
	LeaseTTL time.Duration
	// SpeculativeDelay is the minimum age of a lone running attempt
	// before an otherwise-idle worker speculatively duplicates it; the
	// effective threshold is at least twice the phase's median task
	// duration. Negative disables speculation (default: 10s).
	SpeculativeDelay time.Duration
}

func (r *NetRunner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return max(2, runtime.GOMAXPROCS(0))
}

func (r *NetRunner) attempts() int {
	if r.MaxAttempts > 0 {
		return r.MaxAttempts
	}
	return 2
}

func (r *NetRunner) leaseTTL() time.Duration {
	if r.LeaseTTL > 0 {
		return r.LeaseTTL
	}
	return 10 * time.Second
}

func (r *NetRunner) specDelay() time.Duration {
	switch {
	case r.SpeculativeDelay > 0:
		return r.SpeculativeDelay
	case r.SpeculativeDelay < 0:
		return 0 // disabled
	default:
		return 10 * time.Second
	}
}

// String renders the resolved backend for -stats attribution.
func (r *NetRunner) String() string {
	addr := r.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if r.NoSpawn {
		return fmt.Sprintf("net://%s (external workers, attempts=%d)", addr, r.attempts())
	}
	return fmt.Sprintf("net://%s (spawn=%d, attempts=%d)", addr, r.workers(), r.attempts())
}

// Run implements Runner.
func (r *NetRunner) Run(ctx context.Context, plan *Plan, counters *Counters, progress Progress) (Dataset, error) {
	if plan.Spec == nil {
		// No registered program a remote worker could rebuild; run where
		// the closures live.
		return LocalRunner{}.Run(ctx, plan, counters, progress)
	}
	if _, err := buildProgram(plan.Spec); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", plan.Name, err)
	}
	var exe string
	if !r.NoSpawn {
		if os.Getenv(NetWorkerEnv) != "" {
			// This process is itself a spawned worker that ran past the
			// hook into its ordinary main; spawning from here would recurse.
			return nil, fmt.Errorf("mapreduce: job %q: %s is set, so this process was started as a worker but is running a job (%s)",
				plan.Name, NetWorkerEnv, workerHookHint)
		}
		var err error
		if exe, err = os.Executable(); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: locate executable: %w", plan.Name, err)
		}
	}
	workdir, err := os.MkdirTemp(plan.TempDir, "ngrams-net-"+sanitizeJobName(plan.Name)+"-*")
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: workdir: %w", plan.Name, err)
	}
	// Splits, side data, staged outputs, and — via netWorkerScratchEnv —
	// every spawned worker's scratch live under the workdir, so one
	// removal cleans up even after SIGKILLed workers.
	defer os.RemoveAll(workdir)

	splitPaths, err := materializeSplits(ctx, plan.Splits, workdir)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: materialize splits: %w", plan.Name, err)
	}
	sideFiles, err := materializeSideData(plan.SideData, workdir)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: side data: %w", plan.Name, err)
	}
	sink, err := plan.Sink(plan.NumReducers)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: sink: %w", plan.Name, err)
	}

	addr := r.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: coordinator listen %s: %w", plan.Name, addr, err)
	}
	baseURL := "http://" + advertiseAddr(ln.Addr())

	c := newNetCoordinator(plan, sink, counters, progress, workdir, baseURL,
		splitPaths, sideFiles, r.leaseTTL(), r.specDelay(), r.attempts())
	srv := &http.Server{Handler: c.handler()}
	go srv.Serve(ln)
	defer srv.Close()

	progress.PhaseStart(plan.Name, "map")
	c.start()

	// Janitor: expire silent leases, detect dead workers.
	janitorDone := make(chan struct{})
	go func() {
		defer close(janitorDone)
		tick := time.NewTicker(max(r.leaseTTL()/4, 5*time.Millisecond))
		defer tick.Stop()
		for {
			select {
			case <-c.doneCh:
				return
			case <-tick.C:
				c.sweep()
			}
		}
	}()

	var pool *netWorkerPool
	if !r.NoSpawn {
		pool = newNetWorkerPool(c, counters, exe, advertiseAddr(ln.Addr()), workdir, r.workers())
		pool.start()
	}

	select {
	case <-c.doneCh:
	case <-ctx.Done():
		c.fail(ctx.Err())
	}
	<-janitorDone
	if pool != nil {
		pool.stop(3 * time.Second)
	}
	srv.Close()

	if err := c.err(); err != nil {
		return nil, err
	}
	out, err := sink.Finish()
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: finish sink: %w", plan.Name, err)
	}
	return out, nil
}

// advertiseAddr turns a listener address into one workers can dial:
// an unspecified host becomes the loopback address.
func advertiseAddr(a net.Addr) string {
	if tcp, ok := a.(*net.TCPAddr); ok && (tcp.IP == nil || tcp.IP.IsUnspecified()) {
		return fmt.Sprintf("127.0.0.1:%d", tcp.Port)
	}
	return a.String()
}

// netWorkerPool spawns and supervises the runner's one-job worker
// processes. It reports every exit to the coordinator, and a worker
// that dies while the job is still running is replaced, up to a
// respawn budget, so a crash drill with few workers cannot strand the
// job.
type netWorkerPool struct {
	c        *netCoordinator
	counters *Counters
	exe      string // the binary to re-execute
	addr     string
	workdir  string
	target   int

	mu      sync.Mutex
	cmds    []*exec.Cmd
	spawned int
	live    int
	budget  int
	stopped bool
	wg      sync.WaitGroup
}

func newNetWorkerPool(c *netCoordinator, counters *Counters, exe, addr, workdir string, target int) *netWorkerPool {
	return &netWorkerPool{
		c: c, counters: counters, exe: exe, addr: addr, workdir: workdir,
		target: target, budget: 2*target + 4,
	}
}

func (p *netWorkerPool) start() {
	for i := 0; i < p.target; i++ {
		p.spawn()
	}
}

func (p *netWorkerPool) jobRunning() bool {
	select {
	case <-p.c.doneCh:
		return false
	default:
		return true
	}
}

func (p *netWorkerPool) failJob(format string, args ...any) {
	p.c.fail(fmt.Errorf("mapreduce: job %q: "+format, append([]any{p.c.plan.Name}, args...)...))
}

func (p *netWorkerPool) spawn() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped || !p.jobRunning() {
		return
	}
	if p.spawned >= p.budget {
		if p.live == 0 {
			p.failJob("all %d spawned workers exited and the respawn budget is spent (%s)", p.spawned, workerHookHint)
		}
		return
	}
	cmd := exec.Command(p.exe)
	cmd.Env = append(os.Environ(),
		NetWorkerEnv+"="+p.addr,
		netWorkerOneshotEnv+"=1",
		netWorkerScratchEnv+"="+p.workdir,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		p.failJob("spawn worker: %w", err)
		return
	}
	p.spawned++
	p.live++
	p.counters.Add(CounterWorkerProcs, 1)
	p.cmds = append(p.cmds, cmd)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		err := cmd.Wait()
		p.mu.Lock()
		p.live--
		p.mu.Unlock()
		// Once the job is over, exits are the workers draining and all
		// three calls below are no-ops.
		if !p.c.workerExited(cmd.Process.Pid, err) {
			p.failJob("spawned worker (pid %d) exited without registering with the coordinator: %v (%s)",
				cmd.Process.Pid, err, workerHookHint)
		}
		p.spawn() // replace a worker that died mid-job
	}()
}

// stop gives workers a grace period to observe the drain and exit,
// then kills stragglers.
func (p *netWorkerPool) stop(grace time.Duration) {
	p.mu.Lock()
	p.stopped = true
	cmds := append([]*exec.Cmd(nil), p.cmds...)
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		for _, cmd := range cmds {
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
		}
		<-done
	}
}

func init() {
	// "process" is an address, not a second backend: the net runner on
	// loopback with an ephemeral port and spawned one-job workers.
	RegisterRunner("process", func(cfg RunnerConfig) (Runner, error) {
		if cfg.Rest != "" {
			return nil, fmt.Errorf("mapreduce: runner %q: the process backend takes no address", cfg.Address)
		}
		return &NetRunner{Workers: cfg.Workers, MaxAttempts: cfg.MaxAttempts}, nil
	})
	RegisterRunner("net", func(cfg RunnerConfig) (Runner, error) {
		if cfg.Rest == "" {
			return nil, fmt.Errorf("mapreduce: runner %q: want net://host:port (port 0 for ephemeral)", cfg.Address)
		}
		u, err := url.Parse("net://" + cfg.Rest)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: runner %q: %w", cfg.Address, err)
		}
		if u.Host == "" || u.Path != "" && u.Path != "/" {
			return nil, fmt.Errorf("mapreduce: runner %q: want net://host:port", cfg.Address)
		}
		r := &NetRunner{Addr: u.Host, Workers: cfg.Workers, MaxAttempts: cfg.MaxAttempts}
		for key, vals := range u.Query() {
			switch key {
			case "spawn":
				n, err := strconv.Atoi(vals[len(vals)-1])
				if err != nil || n < 0 {
					return nil, fmt.Errorf("mapreduce: runner %q: bad spawn count %q", cfg.Address, vals[len(vals)-1])
				}
				if n == 0 {
					r.NoSpawn = true
				} else {
					r.Workers = n
				}
			case "ttl":
				d, err := time.ParseDuration(vals[len(vals)-1])
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("mapreduce: runner %q: bad lease ttl %q", cfg.Address, vals[len(vals)-1])
				}
				r.LeaseTTL = d
			case "spec":
				// Speculative-execution delay; "off" disables speculation
				// (fault drills use it to make lease expiry the only
				// recovery path for a stalled task).
				if v := vals[len(vals)-1]; v == "off" {
					r.SpeculativeDelay = -1
				} else {
					d, err := time.ParseDuration(v)
					if err != nil || d <= 0 {
						return nil, fmt.Errorf("mapreduce: runner %q: bad speculative delay %q (duration or \"off\")", cfg.Address, v)
					}
					r.SpeculativeDelay = d
				}
			default:
				return nil, fmt.Errorf("mapreduce: runner %q: unknown parameter %q (known: spawn, ttl, spec)", cfg.Address, key)
			}
		}
		return r, nil
	})
}

// sanitizeJobName reduces a job name to characters safe in a temp-dir
// pattern.
func sanitizeJobName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// materializeSplits writes every input split to a record file the
// coordinator serves to map workers. This is the analogue of reading
// task input from the distributed filesystem.
func materializeSplits(ctx context.Context, splits []Split, workdir string) ([]string, error) {
	paths := make([]string, len(splits))
	for i, split := range splits {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		path := filepath.Join(workdir, fmt.Sprintf("split-%d.rec", i))
		w, err := newRecordFileWriter(path)
		if err != nil {
			return nil, err
		}
		err = split.Records(func(key, value []byte) error { return w.Write(key, value) })
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("split %d: %w", i, err)
		}
		paths[i] = path
	}
	return paths, nil
}

// materializeSideData writes each side-data entry to a file once per
// job, the distributed-cache ship step.
func materializeSideData(side map[string][]byte, workdir string) (map[string]string, error) {
	if len(side) == 0 {
		return nil, nil
	}
	files := make(map[string]string, len(side))
	i := 0
	for key, data := range side {
		path := filepath.Join(workdir, fmt.Sprintf("side-%d", i))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, err
		}
		files[key] = path
		i++
	}
	return files, nil
}
