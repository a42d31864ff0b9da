package mapreduce

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

// netTestRunner builds a NetRunner tuned for tests: ephemeral
// coordinator port, two workers, and a short lease TTL so fault drills
// observe expiry and reassignment in well under a second.
func netTestRunner() *NetRunner {
	return &NetRunner{
		Addr:        "127.0.0.1:0",
		Workers:     2,
		MaxAttempts: 3,
		LeaseTTL:    400 * time.Millisecond,
	}
}

// drillBackends are the two configurations every fault drill runs
// under: the "process" address, whose default 10s lease TTL means any
// quick recovery came from the pool observing the exit, and the
// short-TTL runner above.
var drillBackends = []struct {
	name string
	mk   func(t *testing.T, attempts int) Runner
}{
	{"process", func(t *testing.T, attempts int) Runner { return mustRunner(t, "process", 2, attempts) }},
	{"net-short-ttl", func(t *testing.T, attempts int) Runner {
		r := netTestRunner()
		r.MaxAttempts = attempts
		return r
	}},
}

// TestWorkerCrashIsRetried kills the worker holding a task mid-task
// (its shuffle service, and every map run it published, die with it)
// and asserts the pool reports the exit, the task — and under
// "reduce:0" the lost map outputs — are re-executed at once, and the
// output stays byte-identical to the local runner's.
func TestWorkerCrashIsRetried(t *testing.T) {
	local, err := Run(context.Background(), wcJob(t, LocalRunner{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range drillBackends {
		for _, target := range []string{"map:0", "reduce:0"} {
			t.Run(backend.name+"/"+target, func(t *testing.T) {
				t.Setenv(WorkerCrashEnv, target)
				start := time.Now()
				alt, err := Run(context.Background(), wcJob(t, backend.mk(t, 3)))
				if err != nil {
					t.Fatalf("job did not survive a crashed worker: %v", err)
				}
				took := time.Since(start)
				assertSameDataset(t, local, alt, "local", backend.name+"-with-crash")
				if got := alt.Counters.Get(CounterTasksRetried); got < 1 {
					t.Errorf("TASKS_RETRIED = %d, want >= 1", got)
				}
				if got := alt.Counters.Get(CounterWorkerProcs); got != 3 {
					t.Errorf("WORKER_PROCS = %d, want 3 (the pool of 2 plus one replacement)", got)
				}
				if backend.name != "process" {
					return
				}
				// Recovery must not have waited for the 10s lease.
				if limit := 10 * time.Second / 3; took > limit {
					t.Errorf("recovered in %v, want under %v", took, limit)
				}
				for _, name := range []string{CounterLeasesExpired, CounterTasksSpeculated} {
					if got := alt.Counters.Get(name); got != 0 {
						t.Errorf("%s = %d, want 0", name, got)
					}
				}
			})
		}
	}
}

// TestNetRunnerExpiresSilentLease mutes the worker holding map task 0:
// it keeps the lease but stops all contact. The coordinator must
// expire the lease, reassign the task, and finish correctly.
func TestNetRunnerExpiresSilentLease(t *testing.T) {
	t.Setenv(NetWorkerMuteEnv, "map:0")
	local, err := Run(context.Background(), wcJob(t, LocalRunner{}))
	if err != nil {
		t.Fatal(err)
	}
	netr, err := Run(context.Background(), wcJob(t, netTestRunner()))
	if err != nil {
		t.Fatalf("job did not survive a silent worker: %v", err)
	}
	assertSameDataset(t, local, netr, "local", "net-with-mute")
	if got := netr.Counters.Get(CounterLeasesExpired); got < 1 {
		t.Errorf("LEASES_EXPIRED = %d, want >= 1", got)
	}
	if got := netr.Counters.Get(CounterTasksRetried); got < 1 {
		t.Errorf("TASKS_RETRIED = %d, want >= 1", got)
	}
}

// TestWorkerCrashExhaustsAttempts caps the budget at 1 so the injected
// crash must fail the job, naming the task.
func TestWorkerCrashExhaustsAttempts(t *testing.T) {
	for _, backend := range drillBackends {
		for target, want := range map[string]string{"map:0": "map task 0", "reduce:0": "reduce task 0"} {
			t.Run(backend.name+"/"+target, func(t *testing.T) {
				t.Setenv(WorkerCrashEnv, target)
				_, err := Run(context.Background(), wcJob(t, backend.mk(t, 1)))
				if err == nil {
					t.Fatal("job succeeded despite an unretried worker crash")
				}
				if !strings.Contains(err.Error(), want+" failed after 1 attempt") {
					t.Errorf("error does not name the task and its exhausted attempts: %v", err)
				}
			})
		}
	}
}

// TestWorkerBackendsMapOnly checks the map-only path (no shuffle,
// output uploaded straight to the coordinator) matches the local
// runner.
func TestWorkerBackendsMapOnly(t *testing.T) {
	mk := func(runner Runner) *Job {
		job := wcJob(t, runner)
		job.Spec = &Spec{Program: tagProgram}
		return job
	}
	local, err := Run(context.Background(), mk(LocalRunner{}))
	if err != nil {
		t.Fatal(err)
	}
	if local.Output.Records() == 0 {
		t.Fatal("map-only job produced no records")
	}
	for _, backend := range drillBackends {
		t.Run(backend.name, func(t *testing.T) {
			alt, err := Run(context.Background(), mk(backend.mk(t, 2)))
			if err != nil {
				t.Fatal(err)
			}
			// Map-only partitions are unsorted: tasks land in completion
			// order.
			if l, a := local.Output.Records(), alt.Output.Records(); l != a {
				t.Fatalf("map-only records: local %d, %s %d", l, backend.name, a)
			}
			if got := alt.Counters.Get(CounterWorkerProcs); got != 2 {
				t.Errorf("WORKER_PROCS = %d, want 2", got)
			}
		})
	}
}

// TestNetRunnerExternalWorkers runs a NoSpawn coordinator on a fixed
// port with two externally connected workers (the RunNetWorker library
// path behind `ngrams -worker-connect`).
func TestNetRunnerExternalWorkers(t *testing.T) {
	// Reserve a port for the coordinator so the workers know where to
	// dial before it exists; they retry until it is up.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunNetWorker(ctx, "net://"+addr); err != nil {
				t.Errorf("external worker: %v", err)
			}
		}()
	}

	local, err := Run(context.Background(), wcJob(t, LocalRunner{}))
	if err != nil {
		t.Fatal(err)
	}
	r := netTestRunner()
	r.Addr = addr
	r.NoSpawn = true
	// Gated: the first worker to dial in cannot finish the job alone, so
	// both take part — two shuffle services, fetches across workers.
	netr, err := Run(context.Background(), gatedWCJob(t, r, 2))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()

	assertSameDataset(t, local, netr, "local", "net-external")
	if got := netr.Counters.Get(CounterWorkerProcs); got != 0 {
		t.Errorf("NoSpawn runner spawned %d worker processes", got)
	}
	if got := netr.Counters.Get(CounterNetWorkers); got < 2 {
		t.Errorf("NET_WORKERS = %d, want >= 2", got)
	}
}

// TestWorkerBackendsFallBackWithoutSpec runs a closure-only job under
// the process address: no registered program a worker could rebuild,
// so it must execute in-process.
func TestWorkerBackendsFallBackWithoutSpec(t *testing.T) {
	job := wcJob(t, mustRunner(t, "process", 0, 0))
	job.Spec = nil
	job.NewMapper = func() Mapper {
		return MapperFunc(func(key, value []byte, emit Emit) error {
			return emit([]byte("k"), []byte("v"))
		})
	}
	job.NewReducer = func() Reducer {
		return ReducerFunc(func(key []byte, values *Values, emit Emit) error {
			for values.Next() {
			}
			return emit(key, []byte("done"))
		})
	}
	res, err := Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Get(CounterWorkerProcs); got != 0 {
		t.Errorf("spec-less job spawned %d worker procs", got)
	}
	if res.Output.Records() == 0 {
		t.Error("no output records")
	}
}

// TestNewRunnerAddresses exercises the registry parsing: every shipped
// scheme resolves, scheme-specific parameters are honored, and
// malformed or unknown addresses fail loudly.
func TestNewRunnerAddresses(t *testing.T) {
	if r, err := NewRunner("", 0, 0); err != nil {
		t.Errorf("empty address: %v", err)
	} else if _, ok := r.(LocalRunner); !ok {
		t.Errorf("empty address resolved to %T, want LocalRunner", r)
	}
	if r, err := NewRunner("LOCAL", 0, 0); err != nil {
		t.Errorf("case-insensitive scheme: %v", err)
	} else if _, ok := r.(LocalRunner); !ok {
		t.Errorf("LOCAL resolved to %T, want LocalRunner", r)
	}
	if r, err := NewRunner("process", 3, 2); err != nil {
		t.Errorf("process: %v", err)
	} else if nr, ok := r.(*NetRunner); !ok {
		t.Errorf("process resolved to %T, want *NetRunner", r)
	} else if want := (NetRunner{Workers: 3, MaxAttempts: 2}); *nr != want {
		t.Errorf("process resolved to %+v, want the loopback spawning runner %+v", *nr, want)
	}

	if r, err := NewRunner("net://127.0.0.1:7001?spawn=3", 0, 2); err != nil {
		t.Errorf("net with spawn: %v", err)
	} else if nr, ok := r.(*NetRunner); !ok {
		t.Errorf("net resolved to %T, want *NetRunner", r)
	} else if nr.Addr != "127.0.0.1:7001" || nr.Workers != 3 || nr.NoSpawn || nr.MaxAttempts != 2 {
		t.Errorf("net runner = %+v, want addr 127.0.0.1:7001, 3 workers, spawning", nr)
	}
	if r, err := NewRunner("net://coord.example:7001?spawn=0", 0, 0); err != nil {
		t.Errorf("net with spawn=0: %v", err)
	} else if nr := r.(*NetRunner); !nr.NoSpawn {
		t.Error("spawn=0 did not disable spawning")
	}
	if r, err := NewRunner("net://127.0.0.1:7001?ttl=2s&spec=off", 0, 0); err != nil {
		t.Errorf("net with ttl/spec: %v", err)
	} else if nr := r.(*NetRunner); nr.LeaseTTL != 2*time.Second || nr.SpeculativeDelay >= 0 {
		t.Errorf("ttl/spec knobs = (%v,%v), want (2s, disabled)", nr.LeaseTTL, nr.SpeculativeDelay)
	}
	if r, err := NewRunner("net://127.0.0.1:7001?spec=30s", 0, 0); err != nil {
		t.Errorf("net with spec duration: %v", err)
	} else if nr := r.(*NetRunner); nr.SpeculativeDelay != 30*time.Second {
		t.Errorf("spec=30s parsed as %v", nr.SpeculativeDelay)
	}

	for _, bad := range []string{
		"proces",                         // typo'd scheme
		"tcp://127.0.0.1:7001",           // unknown scheme
		"net://",                         // missing address
		"net://127.0.0.1:7001?spwan=3",   // typo'd parameter
		"net://127.0.0.1:7001?spawn=x",   // malformed count
		"net://127.0.0.1:7001?ttl=fast",  // malformed duration
		"net://127.0.0.1:7001?ttl=-2s",   // non-positive TTL
		"net://127.0.0.1:7001?spec=soon", // malformed delay
		"net://host:7001/path",           // junk path
		"process://somewhere",            // address on an addressless backend
		"local://somewhere",
	} {
		if _, err := NewRunner(bad, 0, 0); err == nil {
			t.Errorf("NewRunner(%q) succeeded, want error", bad)
		}
	}
}

// TestSplitRunnerAddress pins the address grammar NewRunner builds on.
func TestSplitRunnerAddress(t *testing.T) {
	for _, tc := range []struct{ in, scheme, rest string }{
		{"", "local", ""},
		{"local", "local", ""},
		{"Process", "process", ""},
		{"net://127.0.0.1:0", "net", "127.0.0.1:0"},
		{"NET://h:1?spawn=2", "net", "h:1?spawn=2"},
	} {
		scheme, rest := splitRunnerAddress(tc.in)
		if scheme != tc.scheme || rest != tc.rest {
			t.Errorf("splitRunnerAddress(%q) = (%q,%q), want (%q,%q)", tc.in, scheme, rest, tc.scheme, tc.rest)
		}
	}
}

// TestRegisterRunnerRejectsBadSchemes pins the registration contract:
// malformed schemes and duplicates panic at init time rather than
// shadowing each other silently.
func TestRegisterRunnerRejectsBadSchemes(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	dummy := func(RunnerConfig) (Runner, error) { return LocalRunner{}, nil }
	expectPanic("empty scheme", func() { RegisterRunner("", dummy) })
	expectPanic("scheme with separator", func() { RegisterRunner("a://b", dummy) })
	expectPanic("nil factory", func() { RegisterRunner("nilfactory", nil) })
	expectPanic("duplicate scheme", func() { RegisterRunner("local", dummy) })
}

// TestRunnerEnvSweep runs the job with NGRAMS_RUNNER pointed at the
// process address — the path the CI worker-backend tier uses for the
// whole suite.
func TestRunnerEnvSweep(t *testing.T) {
	t.Setenv(RunnerEnv, "process")
	job := wcJob(t, nil)
	res, err := Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Get(CounterNetWorkers); got < 1 {
		t.Errorf("NET_WORKERS = %d, want >= 1", got)
	}
	if res.Output.Records() == 0 {
		t.Error("no output records")
	}
}

// newTestCoordinator stands up a coordinator for the word-count job
// behind an httptest server, with no workers: tests play the worker
// side of the protocol themselves, or attach a pool.
func newTestCoordinator(t *testing.T, job *Job, ttl time.Duration, attempts int) (*netCoordinator, *httptest.Server) {
	t.Helper()
	plan, err := job.Compile()
	if err != nil {
		t.Fatal(err)
	}
	workdir := t.TempDir()
	splitPaths, err := materializeSplits(context.Background(), plan.Splits, workdir)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := plan.Sink(plan.NumReducers)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(nil)
	c := newNetCoordinator(plan, sink, NewCounters(), nopProgress{}, workdir,
		"http://"+srv.Listener.Addr().String(), splitPaths, nil, ttl, 0, attempts)
	srv.Config.Handler = c.handler()
	srv.Start()
	t.Cleanup(func() {
		c.fail(context.Canceled) // release held polls so Close returns
		srv.Close()
	})
	c.start()
	return c, srv
}

// TestHeldPollCrossesBarriersWithoutSleeping plays two workers against
// a one-map, one-reduce job: a poll issued while nothing is assignable
// is answered the moment the reduce phase opens, and the moment the
// job ends — and otherwise comes back as "wait" well inside the lease
// TTL, so an idle worker is never presumed gone.
func TestHeldPollCrossesBarriersWithoutSleeping(t *testing.T) {
	const ttl = 2 * time.Second
	job := wcJob(t, nil)
	job.Input = wcInput(4, 1)
	job.NumReducers = 1
	_, srv := newTestCoordinator(t, job, ttl, 2)
	const mapRunURL = "http://127.0.0.1:1/mr/run/r1" // never fetched

	post := func(path string, in, out any) {
		t.Helper()
		body, _ := json.Marshal(in)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %s", path, resp.Status)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("POST %s: %v", path, err)
			}
		}
	}
	register := func() string {
		var reg netRegisterResp
		post("/mr/register", netRegisterReq{Addr: "http://127.0.0.1:1"}, &reg)
		return reg.Worker
	}
	type answer struct {
		resp netPollResp
		at   time.Time
	}
	pollAsync := func(worker string) <-chan answer {
		ch := make(chan answer, 1)
		go func() {
			var a answer
			body, _ := json.Marshal(netPollReq{Worker: worker})
			resp, err := http.Post(srv.URL+"/mr/poll", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
			} else {
				if err := json.NewDecoder(resp.Body).Decode(&a.resp); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
			}
			a.at = time.Now()
			ch <- a
		}()
		return ch
	}
	finish := func(worker string, task *netTask) {
		t.Helper()
		res := netResultReq{Lease: task.Lease, Worker: worker}
		if task.Phase == "map" {
			res.Runs = [][]netRunRef{{{URL: mapRunURL, Worker: worker}}}
		} else {
			// An empty record file is a valid (empty) partition output.
			resp, err := http.Post(srv.URL+"/mr/output/"+task.Lease, "application/octet-stream", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		var ack netResultResp
		post("/mr/result", res, &ack)
		if !ack.Accepted {
			t.Fatalf("%s result rejected", task.Phase)
		}
	}

	a, b := register(), register()
	first := <-pollAsync(a)
	if first.resp.Status != netStatusTask || first.resp.Task.Phase != "map" {
		t.Fatalf("first poll = %+v, want the map task", first.resp)
	}

	// Nothing assignable and nothing happening: "wait", inside ttl/3.
	start := time.Now()
	idle := <-pollAsync(b)
	if idle.resp.Status != netStatusWait {
		t.Fatalf("idle poll = %+v, want wait", idle.resp)
	}
	if held := idle.at.Sub(start); held >= ttl/3 {
		t.Errorf("idle poll held %v, want under a third of the %v TTL", held, ttl)
	}

	// Held across the map→reduce barrier.
	held := pollAsync(b)
	time.Sleep(20 * time.Millisecond) // let the poll reach the coordinator
	finish(a, first.resp.Task)
	posted := time.Now()
	reduce := <-held
	if reduce.resp.Status != netStatusTask || reduce.resp.Task.Phase != "reduce" {
		t.Fatalf("poll held across the barrier = %+v, want the reduce task", reduce.resp)
	}
	if lag := reduce.at.Sub(posted); lag > 50*time.Millisecond {
		t.Errorf("reduce task arrived %v after the last map result, want within 50ms", lag)
	}

	// The reduce cannot fetch the map's run: the map is re-executed and
	// the reduce goes back to pending behind it. A poll held meanwhile is
	// answered the moment the map is done again and the phase re-opens.
	var ack netResultResp
	post("/mr/result", netResultReq{Lease: reduce.resp.Task.Lease, Worker: b, LostRuns: []string{mapRunURL}}, &ack)
	rerun := <-pollAsync(a)
	if rerun.resp.Status != netStatusTask || rerun.resp.Task.Phase != "map" || rerun.resp.Task.Attempt != 2 {
		t.Fatalf("poll after a lost map output = %+v, want the map task's second attempt", rerun.resp)
	}
	held = pollAsync(b)
	time.Sleep(20 * time.Millisecond)
	finish(a, rerun.resp.Task)
	posted = time.Now()
	reduce = <-held
	if reduce.resp.Status != netStatusTask || reduce.resp.Task.Phase != "reduce" {
		t.Fatalf("poll held while the map was re-executed = %+v, want the reduce task", reduce.resp)
	}
	if lag := reduce.at.Sub(posted); lag > 50*time.Millisecond {
		t.Errorf("reduce task arrived %v after the re-executed map result, want within 50ms", lag)
	}

	// Held until the job ends.
	held = pollAsync(a)
	time.Sleep(20 * time.Millisecond)
	finish(b, reduce.resp.Task)
	posted = time.Now()
	drain := <-held
	if drain.resp.Status != netStatusDrain {
		t.Fatalf("poll held across job end = %+v, want drain", drain.resp)
	}
	if lag := drain.at.Sub(posted); lag > 50*time.Millisecond {
		t.Errorf("drain arrived %v after the job ended, want within 50ms", lag)
	}
}

// TestHookLessWorkerFailsFast covers a binary that never calls
// RunWorkerIfRequested. As the re-executed child it finds
// NGRAMS_NET_WORKER in its own environment and must refuse to spawn in
// turn; as the parent it sees children exit without registering and
// must fail the job instead of respawning until it hangs.
func TestHookLessWorkerFailsFast(t *testing.T) {
	t.Run("child", func(t *testing.T) {
		t.Setenv(NetWorkerEnv, "127.0.0.1:1")
		_, err := Run(context.Background(), wcJob(t, mustRunner(t, "process", 2, 0)))
		if err == nil || !strings.Contains(err.Error(), "RunWorkerIfRequested") {
			t.Fatalf("want an error naming RunWorkerIfRequested, got %v", err)
		}
	})
	t.Run("parent", func(t *testing.T) {
		hookLess, err := exec.LookPath("true")
		if err != nil {
			t.Skip("no `true` binary to stand in for a hook-less program")
		}
		c, srv := newTestCoordinator(t, wcJob(t, nil), 10*time.Second, 2)
		pool := newNetWorkerPool(c, c.counters, hookLess, srv.Listener.Addr().String(), c.workdir, 2)
		pool.start()
		defer pool.stop(time.Second)
		err = waitJobEnd(t, c)
		if err == nil || !strings.Contains(err.Error(), "without registering") || !strings.Contains(err.Error(), "RunWorkerIfRequested") {
			t.Fatalf("want a never-registered error naming RunWorkerIfRequested, got %v", err)
		}
	})
}

// TestRespawnBudgetExhaustedFailsJob lets a pool of one, with a budget
// of one, lose its only worker to the crash hook: with nobody left to
// run the retry the job must fail rather than wait for a worker that
// will never come.
func TestRespawnBudgetExhaustedFailsJob(t *testing.T) {
	t.Setenv(WorkerCrashEnv, "map:0")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	c, srv := newTestCoordinator(t, wcJob(t, nil), 10*time.Second, 3)
	pool := newNetWorkerPool(c, c.counters, exe, srv.Listener.Addr().String(), c.workdir, 1)
	pool.budget = 1
	pool.start()
	defer pool.stop(time.Second)
	err = waitJobEnd(t, c)
	if err == nil || !strings.Contains(err.Error(), "respawn budget") || !strings.Contains(err.Error(), "RunWorkerIfRequested") {
		t.Fatalf("want a respawn-budget error naming RunWorkerIfRequested, got %v", err)
	}
	if got := c.counters.Get(CounterTasksRetried); got != 1 {
		t.Errorf("TASKS_RETRIED = %d, want 1 (the crashed attempt was observed before the budget ran out)", got)
	}
}

// TestWorkerExitedIgnoresForeignHosts registers two workers under one
// pid, one on the coordinator's host and one elsewhere: the pool's exit
// report for that pid must fail only the local worker's lease.
func TestWorkerExitedIgnoresForeignHosts(t *testing.T) {
	c, _ := newTestCoordinator(t, wcJob(t, nil), 10*time.Second, 3)
	const pid = 4242
	lease := func(addr string) *netLease {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.workerSeq++
		w := &netWorkerState{id: fmt.Sprintf("w%d", c.workerSeq), addr: addr, pid: pid, lastSeen: time.Now()}
		c.workers[w.id] = w
		return c.leases[c.assignLocked(w, time.Now()).Lease]
	}
	local, foreign := lease(c.baseURL), lease("http://192.0.2.7:4000")
	if !c.workerExited(pid, errors.New("exit status 3")) {
		t.Fatal("workerExited did not find the local worker")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, live := c.leases[local.id]; live || local.task.failures != 1 {
		t.Errorf("local worker's lease: live=%v failures=%d, want it failed and charged", live, local.task.failures)
	}
	if _, live := c.leases[foreign.id]; !live || foreign.task.failures != 0 {
		t.Errorf("foreign worker's lease: live=%v failures=%d, want it untouched", live, foreign.task.failures)
	}
}

// waitJobEnd waits for the coordinator's job to end and returns its
// failure, well before any lease could expire.
func waitJobEnd(t *testing.T, c *netCoordinator) error {
	t.Helper()
	select {
	case <-c.doneCh:
		return c.err()
	case <-time.After(5 * time.Second):
		t.Fatal("job still running after 5s")
		return nil
	}
}
