package mapreduce

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ngramstats/internal/encoding"
	"ngramstats/internal/extsort"
)

// NetWorkerEnv is the environment variable whose presence switches a
// process into worker mode (see RunWorkerIfRequested): its value is
// the coordinator address to connect to, host:port or net://host:port.
const NetWorkerEnv = "NGRAMS_NET_WORKER"

// netWorkerOneshotEnv marks a worker spawned by a NetRunner for one
// job: it exits after the job drains instead of re-registering.
const netWorkerOneshotEnv = "NGRAMS_NET_ONESHOT"

// netWorkerScratchEnv overrides where a net worker roots its scratch
// space. A NetRunner points its spawned workers into the job workdir,
// so even a SIGKILLed worker leaks nothing past the job.
const netWorkerScratchEnv = "NGRAMS_NET_SCRATCH"

// WorkerCrashEnv is a test hook: when set to "<phase>:<taskID>" (e.g.
// "map:0"), a worker that leases that task exits with a nonzero status
// before producing a result — but only on the task's first attempt, so
// retry tests can assert that a killed worker is replaced, the task
// retried, and the job still succeeds.
const WorkerCrashEnv = "NGRAMS_WORKER_CRASH"

// NetWorkerMuteEnv is a test hook: when set to "<phase>:<taskID>", a
// net worker that leases that task (first attempt only) goes silent —
// no heartbeats, no result — for several lease TTLs. Fault drills use
// it to assert that the coordinator expires the lease and reassigns
// the task.
const NetWorkerMuteEnv = "NGRAMS_NET_MUTE"

// workerHookHint is appended to errors whose likeliest cause is a
// re-executed binary that never entered worker mode.
const workerHookHint = "is mapreduce.RunWorkerIfRequested wired into this binary's main/TestMain?"

// RunWorkerIfRequested turns the current process into a MapReduce
// worker when NetWorkerEnv is set, and never returns in that case: it
// connects to the coordinator named by the variable, serves tasks
// until drained (or until SIGINT/SIGTERM), and exits. Call it first
// thing in main() — or in TestMain for test binaries — of every
// program that may execute jobs under a worker-spawning backend
// ("process", "net://…"); it is a no-op otherwise.
func RunWorkerIfRequested() {
	addr := os.Getenv(NetWorkerEnv)
	if addr == "" {
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := runNetWorker(ctx, addr, os.Getenv(netWorkerOneshotEnv) != "")
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ngrams net worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// RunNetWorker runs a persistent net-runner worker against the
// coordinator at addr (host:port or net://host:port): it registers,
// serves tasks until the job drains, and re-registers for the next
// job, until ctx is cancelled. This is the library entry behind
// `ngrams -worker-connect`.
func RunNetWorker(ctx context.Context, addr string) error {
	return runNetWorker(ctx, addr, false)
}

func runNetWorker(ctx context.Context, addr string, oneshot bool) error {
	addr = strings.TrimPrefix(addr, "net://")
	scratch, err := netWorkerScratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	a := &netAgent{
		coordAddr: addr,
		coordURL:  "http://" + addr,
		client:    &http.Client{},
		scratch:   scratch,
		oneshot:   oneshot,
		served:    make(map[string]string),
	}
	if err := a.startShuffleServer(ctx); err != nil {
		return err
	}
	defer a.srv.Close()
	for {
		reg, err := a.register(ctx)
		if err != nil {
			return err
		}
		if reg == nil {
			return nil // drained, cancelled, or coordinator gone for good
		}
		a.serveJob(ctx, reg)
		a.clearServed()
		if a.oneshot || ctx.Err() != nil {
			return nil
		}
	}
}

func netWorkerScratchDir() (string, error) {
	if root := os.Getenv(netWorkerScratchEnv); root != "" {
		return os.MkdirTemp(root, "worker-*")
	}
	return os.MkdirTemp("", "ngrams-net-worker-*")
}

// netAgent is one worker process's connection to a coordinator plus
// its shuffle-transfer service.
type netAgent struct {
	coordAddr string
	coordURL  string
	client    *http.Client
	scratch   string
	oneshot   bool

	srv     *http.Server
	selfURL string // base URL of the shuffle service
	worker  string // coordinator-assigned id for the current job

	mu     sync.Mutex
	served map[string]string // run id → local file path
	runSeq int
}

// startShuffleServer waits for the coordinator to be dialable (which
// also reveals the local interface facing it), then starts the HTTP
// server that serves this worker's sealed map runs.
func (a *netAgent) startShuffleServer(ctx context.Context) error {
	var localIP string
	backoff := 100 * time.Millisecond
	start := time.Now()
	for {
		conn, err := net.DialTimeout("tcp", a.coordAddr, 2*time.Second)
		if err == nil {
			localIP, _, _ = net.SplitHostPort(conn.LocalAddr().String())
			conn.Close()
			break
		}
		if a.oneshot && time.Since(start) > 30*time.Second {
			return fmt.Errorf("dial coordinator %s: %w", a.coordAddr, err)
		}
		if !sleepCtx(ctx, backoff) {
			return ctx.Err()
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(localIP, "0"))
	if err != nil {
		return fmt.Errorf("listen shuffle service: %w", err)
	}
	a.selfURL = "http://" + ln.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /mr/run/{id}", a.handleRun)
	a.srv = &http.Server{Handler: mux}
	go a.srv.Serve(ln)
	return nil
}

// handleRun serves one sealed run file; http.ServeContent supplies the
// ranged transfer the reduce-side block reader asks for.
func (a *netAgent) handleRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	a.mu.Lock()
	path := a.served[id]
	a.mu.Unlock()
	if path == "" {
		http.NotFound(w, r)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	defer f.Close()
	http.ServeContent(w, r, "run", time.Time{}, f)
}

func (a *netAgent) serve(path string) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runSeq++
	id := fmt.Sprintf("r%d", a.runSeq)
	a.served[id] = path
	return id
}

func (a *netAgent) unserve(ids []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, id := range ids {
		delete(a.served, id)
	}
}

func (a *netAgent) clearServed() {
	a.mu.Lock()
	defer a.mu.Unlock()
	clear(a.served)
}

// register announces the agent to the coordinator, retrying while it
// is unreachable or between jobs. A nil, nil return means exit
// cleanly: the context ended, or a oneshot worker found the job over.
func (a *netAgent) register(ctx context.Context) (*netRegisterResp, error) {
	backoff := 100 * time.Millisecond
	start := time.Now()
	for {
		var resp netRegisterResp
		err := a.postJSON(ctx, a.coordURL+"/mr/register", netRegisterReq{Addr: a.selfURL, Pid: os.Getpid()}, &resp)
		if err == nil && !resp.Drain {
			a.worker = resp.Worker
			return &resp, nil
		}
		if ctx.Err() != nil {
			return nil, nil
		}
		if a.oneshot {
			if err == nil { // drained before we got a task
				return nil, nil
			}
			if time.Since(start) > 30*time.Second {
				return nil, fmt.Errorf("register with coordinator %s: %w", a.coordAddr, err)
			}
		}
		if !sleepCtx(ctx, backoff) {
			return nil, nil
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// serveJob polls for tasks and executes them until the job drains, the
// coordinator tells the agent to re-register, or it becomes
// unreachable.
func (a *netAgent) serveJob(ctx context.Context, reg *netRegisterResp) {
	cfg := reg.Job
	ttl := time.Duration(cfg.LeaseTTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	jobdir, err := os.MkdirTemp(a.scratch, "job-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ngrams net worker: %v\n", err)
		return
	}
	// The jobdir holds every attempt's scratch and the sealed run files
	// behind the served shuffle URLs, which must outlive their tasks —
	// it is removed only once the whole job is over.
	defer os.RemoveAll(jobdir)
	side, err := a.fetchSideData(ctx, cfg.SideKeys)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ngrams net worker: %v\n", err)
		return
	}
	errs := 0
	for {
		if ctx.Err() != nil {
			a.goodbye()
			return
		}
		var pr netPollResp
		if err := a.postJSON(ctx, a.coordURL+"/mr/poll", netPollReq{Worker: a.worker}, &pr); err != nil {
			if errs++; errs > 8 {
				return // coordinator gone: the job is over
			}
			sleepCtx(ctx, time.Duration(errs)*100*time.Millisecond)
			continue
		}
		errs = 0
		switch pr.Status {
		case netStatusWait:
			// The coordinator held the poll open for as long as it had
			// nothing to assign; ask again at once.
		case netStatusTask:
			a.execute(ctx, cfg, ttl, jobdir, side, pr.Task)
		default: // drain, reregister
			return
		}
	}
}

func (a *netAgent) fetchSideData(ctx context.Context, keys []string) (map[string][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	side := make(map[string][]byte, len(keys))
	for _, key := range keys {
		data, err := a.get(ctx, a.coordURL+"/mr/side/"+url.PathEscape(key))
		if err != nil {
			return nil, fmt.Errorf("fetch side data %q: %w", key, err)
		}
		side[key] = data
	}
	return side, nil
}

// execute runs one leased task: heartbeats while it works, executes
// the phase with the shared task machinery, publishes map runs on the
// shuffle service, uploads reduce/map-only output, and reports the
// result. A cancelled lease (speculative race lost, or expiry after a
// stall) aborts the attempt and discards its artifacts.
func (a *netAgent) execute(ctx context.Context, cfg netJobConfig, ttl time.Duration, jobdir string, side map[string][]byte, task *netTask) {
	target := fmt.Sprintf("%s:%d", task.Phase, task.Task)
	if c := os.Getenv(WorkerCrashEnv); c == target && task.Attempt == 1 {
		os.Exit(3) // injected crash: die mid-task, shuffle service and all
	}
	if m := os.Getenv(NetWorkerMuteEnv); m == target && task.Attempt == 1 {
		sleepCtx(ctx, 6*ttl) // hold the lease silently until it expires
		return
	}

	tctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := a.heartbeat(tctx, cancel, task.Lease, ttl)
	defer func() { cancel(); <-hbDone }()

	taskdir := filepath.Join(jobdir, task.Lease)
	if err := os.Mkdir(taskdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "ngrams net worker: %v\n", err)
		return
	}
	res, served, err := a.runTask(tctx, cfg, task, taskdir, side)
	if err != nil {
		a.unserve(served)
		os.RemoveAll(taskdir)
		if tctx.Err() != nil {
			return // cancelled: nothing worth reporting
		}
		res.Err = err.Error()
		a.report(tctx, res)
		return
	}
	if task.Phase != "map" {
		if err := a.upload(tctx, task.Lease, filepath.Join(taskdir, "out.rec")); err != nil {
			os.RemoveAll(taskdir)
			return // the lease will expire or the task be reassigned
		}
	}
	accepted := a.report(tctx, res)
	if task.Phase == "map" && accepted {
		// Keep the taskdir: its sealed run files back the published
		// shuffle URLs until the job drains.
		return
	}
	a.unserve(served)
	os.RemoveAll(taskdir)
}

// runTask executes the task body, converting panics in user map/reduce
// code into reportable failures. The returned result is always
// non-nil.
func (a *netAgent) runTask(ctx context.Context, cfg netJobConfig, task *netTask, taskdir string, side map[string][]byte) (res *netResultReq, served []string, err error) {
	res = &netResultReq{Lease: task.Lease, Worker: a.worker}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("worker panic: %v\n%s", r, debug.Stack())
		}
	}()

	j, err := buildProgram(&Spec{Program: cfg.Program, Config: cfg.Config})
	if err != nil {
		return res, nil, err
	}
	j.Name = cfg.Name
	j.NumReducers = cfg.NumReducers
	j.ShuffleMemory = cfg.ShuffleMemory
	j.ShuffleCodec = extsort.Codec(cfg.Codec)
	j.TempDir = taskdir
	j.SideData = side
	j = j.withDefaults()

	counters := NewCounters()
	shuffleIO := &extsort.IOStats{}
	var fetchBytes atomic.Int64

	switch task.Phase {
	case "map":
		splitPath := filepath.Join(taskdir, "split.rec")
		if err := a.download(ctx, task.SplitURL, splitPath); err != nil {
			return res, nil, fmt.Errorf("fetch split: %w", err)
		}
		taskRuns, err := runMapTask(ctx, j, task.Task, fileSplit{path: splitPath}, -1, shuffleIO, counters)
		if err != nil {
			return res, nil, err
		}
		os.Remove(splitPath)
		res.Runs = make([][]netRunRef, len(taskRuns))
		for p, runs := range taskRuns {
			for _, run := range runs {
				if run.InMemory() {
					discardRuns(taskRuns...)
					return res, served, fmt.Errorf("map task %d sealed an in-memory run for partition %d", task.Task, p)
				}
				st, err := os.Stat(run.Path())
				if err != nil {
					discardRuns(taskRuns...)
					return res, served, err
				}
				id := a.serve(run.Path())
				served = append(served, id)
				res.Runs[p] = append(res.Runs[p], netRunRef{
					URL: a.selfURL + "/mr/run/" + id, Worker: a.worker,
					Size: st.Size(), Records: run.Len(),
				})
			}
		}
	case "map-only":
		splitPath := filepath.Join(taskdir, "split.rec")
		if err := a.download(ctx, task.SplitURL, splitPath); err != nil {
			return res, nil, fmt.Errorf("fetch split: %w", err)
		}
		w, err := newRecordFileWriter(filepath.Join(taskdir, "out.rec"))
		if err != nil {
			return res, nil, err
		}
		taskErr := runMapOnlyTask(ctx, j, task.Task, fileSplit{path: splitPath}, w, counters)
		closeErr := w.Close()
		if taskErr != nil {
			return res, nil, taskErr
		}
		if closeErr != nil {
			return res, nil, closeErr
		}
		res.OutRecords = w.n
	case "reduce":
		var lost lostRuns
		runs := make([]*extsort.Run, len(task.Runs))
		for i, ref := range task.Runs {
			runs[i] = extsort.OpenRemoteRun(ref.Size, ref.Records, a.remoteReadAt(ctx, ref, &lost, &fetchBytes), shuffleIO)
		}
		sink := &singleFileSink{path: filepath.Join(taskdir, "out.rec")}
		if err := runReduceTask(ctx, j, task.Task, runs, sink, counters); err != nil {
			res.LostRuns = lost.urls
			res.FetchBytes = fetchBytes.Load()
			return res, nil, err
		}
		res.OutRecords = sink.n
	default:
		return res, nil, fmt.Errorf("unknown worker phase %q", task.Phase)
	}

	res.Counters = counters.Snapshot()
	res.ShuffleWritten = shuffleIO.BytesWritten()
	res.ShuffleRead = shuffleIO.BytesRead()
	res.FetchBytes = fetchBytes.Load()
	return res, served, nil
}

// lostRuns collects shuffle URLs whose fetch failed outright — the
// producer is unreachable, as opposed to serving corrupt bytes.
type lostRuns struct{ urls []string }

func (l *lostRuns) add(u string) {
	if !slices.Contains(l.urls, u) {
		l.urls = append(l.urls, u)
	}
}

// netFetchReadahead is the minimum region one shuffle-service range
// request pulls; the block reader's mostly-sequential ~64KiB block
// fetches are then served from the buffered window.
const netFetchReadahead = 256 << 10

// remoteReadAt returns the ranged-fetch function behind one remote
// run: HTTP Range requests against the producing worker's shuffle
// service, with readahead buffering. Fetch failures are recorded as
// lost runs so the coordinator can re-execute the producing map task.
func (a *netAgent) remoteReadAt(ctx context.Context, ref netRunRef, lost *lostRuns, fetched *atomic.Int64) extsort.ReadAtFunc {
	var buf []byte
	var bufOff int64
	return func(off int64, n int) ([]byte, error) {
		if off >= bufOff && off+int64(n) <= bufOff+int64(len(buf)) {
			return buf[off-bufOff : off-bufOff+int64(n)], nil
		}
		fetchLen := int64(max(n, netFetchReadahead))
		if off+fetchLen > ref.Size {
			fetchLen = ref.Size - off
		}
		if fetchLen < int64(n) {
			return nil, fmt.Errorf("region [%d,+%d) outside run of %d bytes", off, n, ref.Size)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ref.URL, nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+fetchLen-1))
		resp, err := a.client.Do(req)
		if err != nil {
			lost.add(ref.URL)
			return nil, fmt.Errorf("fetch %s: %w", ref.URL, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusPartialContent {
			lost.add(ref.URL)
			return nil, fmt.Errorf("fetch %s: status %s", ref.URL, resp.Status)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			lost.add(ref.URL)
			return nil, fmt.Errorf("fetch %s: %w", ref.URL, err)
		}
		fetched.Add(int64(len(data)))
		buf, bufOff = data, off
		if int64(len(data)) < int64(n) {
			return nil, fmt.Errorf("fetch %s: short range response (%d of %d bytes)", ref.URL, len(data), fetchLen)
		}
		return buf[:n], nil
	}
}

// heartbeat renews the lease at a third of its TTL until the task
// context ends. A cancelled lease — or a coordinator that stays
// unreachable — cancels the task.
func (a *netAgent) heartbeat(ctx context.Context, cancel context.CancelFunc, lease string, ttl time.Duration) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		misses := 0
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			var resp netHeartbeatResp
			err := a.postJSON(ctx, a.coordURL+"/mr/heartbeat", netHeartbeatReq{Worker: a.worker, Leases: []string{lease}}, &resp)
			if err != nil {
				if misses++; misses >= 3 {
					cancel()
					return
				}
				continue
			}
			misses = 0
			if slices.Contains(resp.Cancel, lease) {
				cancel()
				return
			}
		}
	}()
	return done
}

// report posts the attempt's result, with brief retries: losing a
// computed result to a transient hiccup would waste a whole attempt.
func (a *netAgent) report(ctx context.Context, res *netResultReq) bool {
	for i := 0; ; i++ {
		var resp netResultResp
		err := a.postJSON(ctx, a.coordURL+"/mr/result", res, &resp)
		if err == nil {
			return resp.Accepted
		}
		if i >= 2 || ctx.Err() != nil {
			return false
		}
		sleepCtx(ctx, 200*time.Millisecond)
	}
}

// upload streams an output record file to the coordinator's staging
// area for this lease.
func (a *netAgent) upload(ctx context.Context, lease, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.coordURL+"/mr/output/"+lease, f)
	if err != nil {
		return err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("upload output: status %s", resp.Status)
	}
	return nil
}

func (a *netAgent) download(ctx context.Context, srcURL, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srcURL, nil)
	if err != nil {
		return err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %s", srcURL, resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (a *netAgent) get(ctx context.Context, srcURL string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srcURL, nil)
	if err != nil {
		return nil, err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %s", srcURL, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// goodbye tells the coordinator this worker is leaving gracefully, so
// its leases and published map outputs are requeued immediately
// instead of after lease expiry. Best-effort: the worker is exiting
// either way.
func (a *netAgent) goodbye() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	a.postJSON(ctx, a.coordURL+"/mr/goodbye", netPollReq{Worker: a.worker}, &struct{}{})
}

func (a *netAgent) postJSON(ctx context.Context, u string, in, out any) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("POST %s: status %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// fileSplit replays a split downloaded to a record file.
type fileSplit struct{ path string }

// Records implements Split.
func (s fileSplit) Records(yield func(key, value []byte) error) error {
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	defer f.Close()
	rr := encoding.NewRecordReader(bufio.NewReaderSize(f, 256<<10))
	for {
		k, v, err := rr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := yield(k, v); err != nil {
			return err
		}
	}
}

// recordFileWriter is a SinkWriter appending length-framed records to
// one file.
type recordFileWriter struct {
	f *os.File
	w *bufio.Writer
	n int64
}

func newRecordFileWriter(path string) (*recordFileWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &recordFileWriter{f: f, w: bufio.NewWriterSize(f, 256<<10)}, nil
}

func (w *recordFileWriter) Write(key, value []byte) error {
	w.n++
	return encoding.WriteRecord(w.w, key, value)
}

func (w *recordFileWriter) Close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// singleFileSink adapts one output record file to the Sink surface a
// reduce task writes through.
type singleFileSink struct {
	path string
	n    int64
}

func (s *singleFileSink) Writer(p int) (SinkWriter, error) {
	w, err := newRecordFileWriter(s.path)
	if err != nil {
		return nil, err
	}
	return &singleFileSinkWriter{sink: s, w: w}, nil
}

func (s *singleFileSink) Finish() (Dataset, error) {
	return nil, fmt.Errorf("mapreduce: worker task sink has no dataset")
}

type singleFileSinkWriter struct {
	sink *singleFileSink
	w    *recordFileWriter
}

func (w *singleFileSinkWriter) Write(key, value []byte) error { return w.w.Write(key, value) }

func (w *singleFileSinkWriter) Close() error {
	w.sink.n = w.w.n
	return w.w.Close()
}

// sleepCtx sleeps for d or until ctx ends, reporting whether the full
// sleep happened.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
