package mapreduce

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Task states of the coordinator's scheduler.
const (
	taskPending = iota // runnable, waiting for a worker
	taskRunning        // at least one live lease
	taskDone           // a winning result arrived
)

// netTaskState is the coordinator's view of one task.
type netTaskState struct {
	phase string // "map", "map-only", or "reduce"
	id    int
	state int
	// execs numbers attempts handed out (the Attempt field of leases).
	execs int
	// failures counts charged failures; reaching the attempt budget
	// fails the job. Requeues caused by upstream loss are not charged.
	failures int
	// lostRequeues counts re-executions of a done map whose outputs
	// became unreachable; a runaway loop of losses fails the job.
	lostRequeues int
	leases       []*netLease
	everDone     bool   // progress.TaskDone fired (kept true across lost-output requeues)
	doneBy       string // worker that produced the winning result
	// runs are the winning map attempt's sealed runs per partition.
	runs [][]netRunRef
}

// netLease is one outstanding task attempt on one worker.
type netLease struct {
	id          string
	task        *netTaskState
	worker      string
	started     time.Time
	expires     time.Time
	speculative bool
}

// netWorkerState tracks one registered worker.
type netWorkerState struct {
	id       string
	addr     string // base URL of the worker's shuffle service
	pid      int    // the worker's OS process id, as it registered
	lastSeen time.Time
	// gone marks a worker presumed dead: its winning map outputs have
	// been invalidated. Any later contact clears it.
	gone bool
}

// netCoordinator schedules one plan's tasks across registered workers:
// it leases tasks out, expires leases that stop heartbeating, retries
// failures up to the attempt budget, launches speculative duplicates
// against stragglers, and re-executes map tasks whose outputs died
// with their worker. It is the server side of the protocol in
// netproto.go.
type netCoordinator struct {
	plan       *Plan
	sink       Sink
	counters   *Counters
	progress   Progress
	workdir    string
	baseURL    string // advertised http://host:port of this coordinator
	splitPaths []string
	sideFiles  map[string]string
	cfg        netJobConfig

	ttl         time.Duration
	specDelay   time.Duration // 0 disables speculation
	maxAttempts int
	maxLost     int

	mu          sync.Mutex
	maps        []*netTaskState
	reduces     []*netTaskState
	mapsDone    int
	reducesDone int
	leases      map[string]*netLease
	workers     map[string]*netWorkerState
	runIndex    map[string]*netTaskState // run URL → producing map task
	durations   map[string][]time.Duration
	leaseSeq    int
	workerSeq   int
	phaseStart  time.Time
	mapsClosed  bool // map phase accounted and reduce phase announced
	ended       bool
	failure     error
	doneCh      chan struct{}
	// wake is closed and replaced whenever a held poll may have become
	// answerable: a task went back to pending, or the last outstanding
	// map finished and the reduce phase (re-)opened. (The job ending is
	// signalled by doneCh.)
	wake chan struct{}
}

func newNetCoordinator(plan *Plan, sink Sink, counters *Counters, progress Progress,
	workdir, baseURL string, splitPaths []string, sideFiles map[string]string,
	ttl, specDelay time.Duration, maxAttempts int) *netCoordinator {
	mapPhase := "map"
	if plan.MapOnly {
		mapPhase = "map-only"
	}
	c := &netCoordinator{
		plan: plan, sink: sink, counters: counters, progress: progress,
		workdir: workdir, baseURL: baseURL, splitPaths: splitPaths, sideFiles: sideFiles,
		ttl: ttl, specDelay: specDelay, maxAttempts: maxAttempts,
		maxLost:   2 * maxAttempts,
		leases:    make(map[string]*netLease),
		workers:   make(map[string]*netWorkerState),
		runIndex:  make(map[string]*netTaskState),
		durations: make(map[string][]time.Duration),
		doneCh:    make(chan struct{}),
		wake:      make(chan struct{}),
	}
	sideKeys := make([]string, 0, len(sideFiles))
	for key := range sideFiles {
		sideKeys = append(sideKeys, key)
	}
	sort.Strings(sideKeys)
	c.cfg = netJobConfig{
		Name:           plan.Name,
		Program:        plan.Spec.Program,
		Config:         plan.Spec.Config,
		NumReducers:    plan.NumReducers,
		ShuffleMemory:  plan.ShuffleMemory,
		Codec:          int(plan.ShuffleCodec),
		SideKeys:       sideKeys,
		LeaseTTLMillis: ttl.Milliseconds(),
	}
	for i := range plan.Splits {
		c.maps = append(c.maps, &netTaskState{phase: mapPhase, id: i})
	}
	if !plan.MapOnly {
		for p := 0; p < plan.NumReducers; p++ {
			c.reduces = append(c.reduces, &netTaskState{phase: "reduce", id: p})
		}
	}
	return c
}

// start begins the job clock and handles degenerate plans (no splits).
func (c *netCoordinator) start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.phaseStart = time.Now()
	c.advanceLocked()
}

// err returns the job's failure after doneCh closed (nil on success).
func (c *netCoordinator) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failure
}

// fail terminates the job with err (first failure wins).
func (c *netCoordinator) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(err)
}

// wakePollsLocked releases every held poll to look for work again.
func (c *netCoordinator) wakePollsLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

func (c *netCoordinator) failLocked(err error) {
	if c.ended {
		return
	}
	c.ended = true
	c.failure = err
	close(c.doneCh)
}

// advanceLocked moves the job forward whenever completion counts may
// have changed: it closes the map phase once (failing on malformed
// keys, exactly like the other runners), and completes the job when
// every task is done.
func (c *netCoordinator) advanceLocked() {
	if c.ended || c.mapsDone != len(c.maps) {
		return
	}
	if n := c.counters.Get(CounterMalformedKeys); n > 0 {
		c.failLocked(fmt.Errorf("mapreduce: job %q: partitioner rejected %d malformed intermediate keys", c.plan.Name, n))
		return
	}
	if !c.mapsClosed {
		c.mapsClosed = true
		c.counters.Add(CounterMapPhaseMillis, time.Since(c.phaseStart).Milliseconds())
		c.phaseStart = time.Now()
		if !c.plan.MapOnly {
			c.progress.PhaseStart(c.plan.Name, "reduce")
		}
	}
	if c.plan.MapOnly || c.reducesDone == len(c.reduces) {
		c.completeLocked()
	}
}

func (c *netCoordinator) completeLocked() {
	if c.ended {
		return
	}
	c.ended = true
	if !c.plan.MapOnly {
		c.counters.Add(CounterReducePhaseMillis, time.Since(c.phaseStart).Milliseconds())
		c.counters.Add(CounterShuffleBytesWritten, c.plan.shuffleIO.BytesWritten())
		c.counters.Add(CounterShuffleBytesRead, c.plan.shuffleIO.BytesRead())
	}
	close(c.doneCh)
}

// sweep is the janitor tick: expire silent leases, invalidate the
// outputs of workers that stopped all contact.
func (c *netCoordinator) sweep() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ended {
		return
	}
	now := time.Now()
	var expired []*netLease
	for _, l := range c.leases {
		if now.After(l.expires) {
			expired = append(expired, l)
		}
	}
	for _, l := range expired {
		c.counters.Add(CounterLeasesExpired, 1)
		c.failLeaseLocked(l, true, fmt.Errorf("lease %s expired (worker %s silent past the %v TTL)", l.id, l.worker, c.ttl))
	}
	for _, w := range c.workers {
		if !w.gone && now.Sub(w.lastSeen) > 3*c.ttl {
			c.markWorkerGoneLocked(w, nil)
		}
	}
}

// workerExited is the worker pool reporting that the child process pid
// ended (waitErr is cmd.Wait's verdict) while the job may still be
// running. Every worker that registered under that pid is gone for
// certain, so its leases fail at once — charged, the attempt died with
// the process — and its finished maps are requeued, instead of waiting
// out the lease TTL. It reports whether such a worker had registered.
// Pids are unique per host only, so a worker counts as that child only
// if its shuffle service also sits on the coordinator's own host — the
// interface a spawned child dials from; an external worker on another
// machine that happens to share the pid is left alone.
func (c *netCoordinator) workerExited(pid int, waitErr error) (registered bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.pid != pid || urlHost(w.addr) != urlHost(c.baseURL) {
			continue
		}
		registered = true
		if !c.ended {
			c.markWorkerGoneLocked(w, fmt.Errorf("worker %s (pid %d) exited: %v", w.id, pid, waitErr))
		}
	}
	return registered
}

// urlHost is the host of a base URL, without the port ("" if malformed).
func urlHost(base string) string {
	u, err := url.Parse(base)
	if err != nil {
		return ""
	}
	return u.Hostname()
}

// dropLeaseLocked removes a lease from the books.
func (c *netCoordinator) dropLeaseLocked(l *netLease) {
	delete(c.leases, l.id)
	t := l.task
	for i, tl := range t.leases {
		if tl == l {
			t.leases = append(t.leases[:i], t.leases[i+1:]...)
			break
		}
	}
}

// failLeaseLocked handles a dead attempt: charged failures burn the
// task's attempt budget (and can fail the job); uncharged ones —
// upstream loss, graceful worker exit — just requeue.
func (c *netCoordinator) failLeaseLocked(l *netLease, charge bool, err error) {
	if _, live := c.leases[l.id]; !live {
		return
	}
	c.dropLeaseLocked(l)
	t := l.task
	if t.state != taskRunning {
		return
	}
	if charge {
		t.failures++
		if t.failures >= c.maxAttempts {
			c.failLocked(fmt.Errorf("mapreduce: job %q: %s phase: %s task %d failed after %d attempt(s): %w",
				c.plan.Name, phaseOf(t), t.phase, t.id, t.failures, err))
			return
		}
	}
	if len(t.leases) == 0 {
		t.state = taskPending
		c.counters.Add(CounterTasksRetried, 1)
		c.wakePollsLocked()
	}
}

func phaseOf(t *netTaskState) string {
	if t.phase == "reduce" {
		return "reduce"
	}
	return "map"
}

// markWorkerGoneLocked presumes a worker dead: its live leases are
// requeued — charged against the attempt budget with err when the
// worker was seen to fail, uncharged (nil err) when it is merely
// unreachable or left gracefully — and every done map task it produced
// is re-executed, because its shuffle service (and the run files behind
// it) died with it.
func (c *netCoordinator) markWorkerGoneLocked(w *netWorkerState, err error) {
	w.gone = true
	var lost []*netLease
	for _, l := range c.leases {
		if l.worker == w.id {
			lost = append(lost, l)
		}
	}
	for _, l := range lost {
		c.failLeaseLocked(l, err != nil, err)
	}
	for _, t := range c.maps {
		if t.phase == "map" && t.state == taskDone && t.doneBy == w.id {
			c.requeueLostMapLocked(t)
		}
	}
}

// requeueLostMapLocked sends a completed map task back to pending
// because its outputs are unreachable.
func (c *netCoordinator) requeueLostMapLocked(t *netTaskState) {
	if c.ended || t.state != taskDone {
		return
	}
	t.lostRequeues++
	if t.lostRequeues > c.maxLost {
		c.failLocked(fmt.Errorf("mapreduce: job %q: map task %d: outputs lost %d times", c.plan.Name, t.id, t.lostRequeues))
		return
	}
	for _, refs := range t.runs {
		for _, ref := range refs {
			delete(c.runIndex, ref.URL)
		}
	}
	t.runs = nil
	t.doneBy = ""
	t.state = taskPending
	c.mapsDone--
	c.counters.Add(CounterTasksRetried, 1)
	c.wakePollsLocked()
}

// assignLocked picks the next task for a polling worker: a pending
// task of the active phase, else a speculative duplicate of the
// phase's worst straggler.
func (c *netCoordinator) assignLocked(w *netWorkerState, now time.Time) *netTask {
	if c.ended {
		return nil
	}
	eligible := c.maps
	phase := "map"
	if c.mapsDone == len(c.maps) {
		if c.plan.MapOnly {
			return nil
		}
		eligible, phase = c.reduces, "reduce"
	}
	for _, t := range eligible {
		if t.state == taskPending {
			return c.leaseLocked(t, w, now, false)
		}
	}
	thr := c.specThresholdLocked(phase)
	if thr <= 0 {
		return nil
	}
	var straggler *netTaskState
	var oldest time.Time
	for _, t := range eligible {
		if t.state != taskRunning || len(t.leases) != 1 {
			continue
		}
		l := t.leases[0]
		if l.worker == w.id || now.Sub(l.started) < thr {
			continue
		}
		if straggler == nil || l.started.Before(oldest) {
			straggler, oldest = t, l.started
		}
	}
	if straggler == nil {
		return nil
	}
	c.counters.Add(CounterTasksSpeculated, 1)
	return c.leaseLocked(straggler, w, now, true)
}

// specThresholdLocked is how long a lone attempt must have been
// running before an idle worker duplicates it: at least the configured
// delay, or twice the phase's median completed-task duration if that
// is larger.
func (c *netCoordinator) specThresholdLocked(phase string) time.Duration {
	if c.specDelay <= 0 {
		return 0
	}
	thr := c.specDelay
	if ds := c.durations[phase]; len(ds) > 0 {
		sorted := append([]time.Duration(nil), ds...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if med := 2 * sorted[len(sorted)/2]; med > thr {
			thr = med
		}
	}
	return thr
}

func (c *netCoordinator) leaseLocked(t *netTaskState, w *netWorkerState, now time.Time, speculative bool) *netTask {
	t.state = taskRunning
	t.execs++
	c.leaseSeq++
	l := &netLease{
		id:          fmt.Sprintf("%s-%d-a%d-l%d", t.phase, t.id, t.execs, c.leaseSeq),
		task:        t,
		worker:      w.id,
		started:     now,
		expires:     now.Add(c.ttl),
		speculative: speculative,
	}
	c.leases[l.id] = l
	t.leases = append(t.leases, l)
	nt := &netTask{Lease: l.id, Phase: t.phase, Task: t.id, Attempt: t.execs}
	if t.phase == "reduce" {
		// Runs in map-task order, each task's runs in seal order — the
		// merge tie-break order all backends share, so partition output
		// is byte-identical to the local runner's.
		for _, mt := range c.maps {
			if mt.runs != nil && t.id < len(mt.runs) {
				nt.Runs = append(nt.Runs, mt.runs[t.id]...)
			}
		}
	} else {
		nt.SplitURL = c.baseURL + "/mr/split/" + strconv.Itoa(t.id)
	}
	return nt
}

// ---- HTTP surface ----

func (c *netCoordinator) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /mr/register", c.handleRegister)
	mux.HandleFunc("POST /mr/poll", c.handlePoll)
	mux.HandleFunc("POST /mr/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /mr/result", c.handleResult)
	mux.HandleFunc("POST /mr/output/{lease}", c.handleOutput)
	mux.HandleFunc("POST /mr/goodbye", c.handleGoodbye)
	mux.HandleFunc("GET /mr/split/{i}", c.handleSplit)
	mux.HandleFunc("GET /mr/side/{key}", c.handleSide)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (c *netCoordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req netRegisterReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	if c.ended {
		c.mu.Unlock()
		writeJSON(w, netRegisterResp{Drain: true})
		return
	}
	c.workerSeq++
	id := fmt.Sprintf("w%d", c.workerSeq)
	c.workers[id] = &netWorkerState{id: id, addr: req.Addr, pid: req.Pid, lastSeen: time.Now()}
	c.counters.Add(CounterNetWorkers, 1)
	cfg := c.cfg
	c.mu.Unlock()
	writeJSON(w, netRegisterResp{Worker: id, Job: cfg})
}

// handlePoll answers with a task as soon as one is assignable to the
// worker. While none is, the request is held open — until a task goes
// back to pending, the reduce phase opens, or the job ends — so idle
// workers cross the map→reduce barrier and drain without sleeping. A
// hold is bounded at a quarter of the lease TTL and at half a second:
// the "wait" answer makes the worker poll again, which re-evaluates
// speculation (nothing signals a running attempt turning into a
// straggler) and keeps its lastSeen far inside the three-TTL silence
// limit.
func (c *netCoordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req netPollReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	hold := time.NewTimer(min(c.ttl/4, 500*time.Millisecond))
	defer hold.Stop()
	for {
		c.mu.Lock()
		wk := c.workers[req.Worker]
		if wk == nil || c.ended {
			status := netStatusDrain
			if !c.ended {
				status = netStatusReregister
			}
			c.mu.Unlock()
			writeJSON(w, netPollResp{Status: status})
			return
		}
		wk.lastSeen, wk.gone = time.Now(), false
		var task *netTask
		if r.Context().Err() == nil { // never lease to a caller that hung up
			task = c.assignLocked(wk, time.Now())
		}
		wake := c.wake
		c.mu.Unlock()
		if task != nil {
			writeJSON(w, netPollResp{Status: netStatusTask, Task: task})
			return
		}
		select {
		case <-wake:
		case <-c.doneCh:
		case <-hold.C:
			writeJSON(w, netPollResp{Status: netStatusWait})
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (c *netCoordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req netHeartbeatReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var resp netHeartbeatResp
	now := time.Now()
	c.mu.Lock()
	wk := c.workers[req.Worker]
	if wk != nil {
		wk.lastSeen, wk.gone = now, false
	}
	for _, id := range req.Leases {
		l := c.leases[id]
		if l == nil || l.worker != req.Worker || c.ended {
			resp.Cancel = append(resp.Cancel, id)
			continue
		}
		l.expires = now.Add(c.ttl)
	}
	c.mu.Unlock()
	writeJSON(w, resp)
}

func (c *netCoordinator) handleGoodbye(w http.ResponseWriter, r *http.Request) {
	var req netPollReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	if wk := c.workers[req.Worker]; wk != nil && !c.ended {
		c.markWorkerGoneLocked(wk, nil)
	}
	c.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

// handleOutput receives a reduce or map-only attempt's output records,
// staged under the coordinator's workdir until the attempt's result
// wins and the records are folded into the sink.
func (c *netCoordinator) handleOutput(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("lease")
	c.mu.Lock()
	l := c.leases[id]
	c.mu.Unlock()
	if l == nil {
		http.Error(w, "unknown lease", http.StatusGone)
		return
	}
	path := c.outPath(l.id)
	f, err := os.Create(path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	_, err = io.Copy(f, r.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// outPath builds the staging path from the coordinator's own lease id,
// never from request input.
func (c *netCoordinator) outPath(leaseID string) string {
	return filepath.Join(c.workdir, "out-"+leaseID+".rec")
}

func (c *netCoordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var msg netResultReq
	if err := json.NewDecoder(r.Body).Decode(&msg); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if msg.FetchBytes > 0 {
		// Real wire transfer, counted even for losing or failed
		// attempts.
		c.counters.Add(CounterShuffleFetchBytes, msg.FetchBytes)
	}
	if len(msg.LostRuns) > 0 {
		c.handleLostRuns(&msg)
		writeJSON(w, netResultResp{Accepted: false})
		return
	}

	c.mu.Lock()
	l := c.leases[msg.Lease]
	if l == nil || c.ended {
		// Stale: the lease expired or lost a speculative race; the
		// worker discards the attempt's artifacts.
		c.mu.Unlock()
		writeJSON(w, netResultResp{Accepted: false})
		return
	}
	t := l.task
	if msg.Err != "" {
		c.failLeaseLocked(l, true, errors.New(msg.Err))
		c.mu.Unlock()
		writeJSON(w, netResultResp{Accepted: false})
		return
	}

	// First completion wins; racing leases are dropped here so their
	// next heartbeat cancels them and their results are rejected above.
	for len(t.leases) > 0 {
		c.dropLeaseLocked(t.leases[0])
	}
	t.state = taskDone
	t.doneBy = msg.Worker
	c.durations[phaseOf(t)] = append(c.durations[phaseOf(t)], time.Since(l.started))
	first := !t.everDone
	t.everDone = true
	c.counters.MergeSnapshot(msg.Counters)
	if c.plan.shuffleIO != nil {
		c.plan.shuffleIO.AddWritten(msg.ShuffleWritten)
		c.plan.shuffleIO.AddRead(msg.ShuffleRead)
	}

	if t.phase == "map" {
		if len(msg.Runs) != c.plan.NumReducers {
			c.failLocked(fmt.Errorf("mapreduce: job %q: map task %d reported %d run partitions, want %d",
				c.plan.Name, t.id, len(msg.Runs), c.plan.NumReducers))
			c.mu.Unlock()
			writeJSON(w, netResultResp{Accepted: false})
			return
		}
		t.runs = msg.Runs
		for _, refs := range t.runs {
			for _, ref := range refs {
				c.runIndex[ref.URL] = t
			}
		}
		c.mapsDone++
		if first {
			c.progress.TaskDone(c.plan.Name, "map")
		}
		if c.mapsDone == len(c.maps) {
			// The reduce phase opens — or re-opens, after a lost map
			// output was re-executed: pending reduces are assignable again.
			c.wakePollsLocked()
		}
		c.advanceLocked()
		c.mu.Unlock()
		writeJSON(w, netResultResp{Accepted: true})
		return
	}

	// Reduce and map-only: fold the uploaded output outside the lock.
	outPath := c.outPath(l.id)
	c.mu.Unlock()
	p := t.id
	if t.phase == "map-only" {
		p = t.id % c.plan.NumReducers
	}
	foldErr := copyRecords(outPath, c.sink, p)
	os.Remove(outPath)
	if foldErr != nil {
		c.fail(fmt.Errorf("mapreduce: job %q: %s task %d: collect output: %w", c.plan.Name, t.phase, t.id, foldErr))
		writeJSON(w, netResultResp{Accepted: false})
		return
	}
	c.mu.Lock()
	if t.phase == "reduce" {
		c.reducesDone++
		if first {
			c.progress.TaskDone(c.plan.Name, "reduce")
		}
	} else {
		c.mapsDone++
		if first {
			c.progress.TaskDone(c.plan.Name, "map")
		}
	}
	c.advanceLocked()
	c.mu.Unlock()
	writeJSON(w, netResultResp{Accepted: true})
}

// handleLostRuns processes a reduce attempt that could not fetch some
// of its inputs: the producing worker is presumed dead (all its
// outputs invalidated) and the reduce goes back to pending without
// being charged a failure.
func (c *netCoordinator) handleLostRuns(msg *netResultReq) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ended {
		return
	}
	for _, u := range msg.LostRuns {
		mt := c.runIndex[u]
		if mt == nil || mt.state != taskDone {
			continue
		}
		if wk := c.workers[mt.doneBy]; wk != nil && !wk.gone {
			c.markWorkerGoneLocked(wk, nil)
		} else {
			c.requeueLostMapLocked(mt)
		}
	}
	if l := c.leases[msg.Lease]; l != nil {
		c.failLeaseLocked(l, false, nil)
	}
}

func (c *netCoordinator) handleSplit(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.PathValue("i"))
	if err != nil || i < 0 || i >= len(c.splitPaths) {
		http.NotFound(w, r)
		return
	}
	http.ServeFile(w, r, c.splitPaths[i])
}

func (c *netCoordinator) handleSide(w http.ResponseWriter, r *http.Request) {
	key, err := url.PathUnescape(r.PathValue("key"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	path, ok := c.sideFiles[key]
	if !ok {
		http.NotFound(w, r)
		return
	}
	http.ServeFile(w, r, path)
}

// copyRecords folds an attempt's staged output record file into
// partition p of the job's sink.
func copyRecords(path string, sink Sink, p int) error {
	w, err := sink.Writer(p)
	if err != nil {
		return err
	}
	if err := (fileSplit{path: path}).Records(w.Write); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
