package mapreduce

// The coordinator/worker wire protocol of the net runner: plain
// HTTP/JSON under the /mr/ prefix. See doc.go ("The net runner wire
// protocol") for the endpoint walkthrough; this file only holds the
// message types both sides marshal.

// netRegisterReq is a worker announcing itself to the coordinator.
type netRegisterReq struct {
	// Addr is the base URL (http://host:port) of the worker's
	// shuffle-transfer service, where the coordinator-directed reduce
	// workers fetch this worker's sealed map runs.
	Addr string `json:"addr"`
	// Pid is the worker's OS process id: a NetRunner that spawned the
	// worker reports its exit to the coordinator under it.
	Pid int `json:"pid,omitempty"`
}

// netRegisterResp hands a registering worker its identity and the
// job-wide configuration every task shares.
type netRegisterResp struct {
	// Drain tells the worker the job is over before it got a task.
	Drain  bool         `json:"drain,omitempty"`
	Worker string       `json:"worker,omitempty"`
	Job    netJobConfig `json:"job,omitempty"`
}

// netJobConfig is the per-job half of a task spec: everything that
// does not change between tasks, shipped once at registration.
type netJobConfig struct {
	Name          string `json:"name"`
	Program       string `json:"program"`
	Config        []byte `json:"config,omitempty"`
	NumReducers   int    `json:"num_reducers"`
	ShuffleMemory int    `json:"shuffle_memory"`
	Codec         int    `json:"codec"`
	// SideKeys lists the side-data keys to fetch from /mr/side/<key>.
	SideKeys []string `json:"side_keys,omitempty"`
	// LeaseTTLMillis is the lease duration; workers heartbeat at a third
	// of it.
	LeaseTTLMillis int64 `json:"lease_ttl_millis"`
}

// Poll statuses.
const (
	netStatusTask       = "task"       // a task assignment rides along
	netStatusWait       = "wait"       // nothing became runnable while the poll was held; poll again
	netStatusDrain      = "drain"      // job over, clean up and disconnect
	netStatusReregister = "reregister" // unknown worker id: register anew
)

// netPollReq asks the coordinator for work.
type netPollReq struct {
	Worker string `json:"worker"`
}

// netPollResp answers a poll.
type netPollResp struct {
	Status string   `json:"status"`
	Task   *netTask `json:"task,omitempty"`
}

// netTask is one leased task assignment.
type netTask struct {
	// Lease identifies this attempt; it rides on heartbeats, the output
	// upload, and the result report.
	Lease string `json:"lease"`
	// Phase is "map", "map-only", or "reduce".
	Phase   string `json:"phase"`
	Task    int    `json:"task"`
	Attempt int    `json:"attempt"`
	// SplitURL is where to fetch the input split (map phases).
	SplitURL string `json:"split_url,omitempty"`
	// Runs are the sealed map runs to merge (reduce phase), in map-task
	// order — the merge tie-break order every backend shares.
	Runs []netRunRef `json:"runs,omitempty"`
}

// netRunRef locates one sealed shuffle run on the worker that produced
// it.
type netRunRef struct {
	URL string `json:"url"`
	// Worker is the producing worker's id, so losing the worker tells
	// the coordinator which runs died with it.
	Worker  string `json:"worker"`
	Size    int64  `json:"size"`
	Records int    `json:"records"`
}

// netHeartbeatReq renews the leases a worker is still executing.
type netHeartbeatReq struct {
	Worker string   `json:"worker"`
	Leases []string `json:"leases,omitempty"`
}

// netHeartbeatResp may cancel leases the coordinator no longer wants
// (reassigned after expiry, or lost a speculative race).
type netHeartbeatResp struct {
	Cancel []string `json:"cancel,omitempty"`
}

// netResultReq reports a finished (or failed) task attempt.
type netResultReq struct {
	Lease  string `json:"lease"`
	Worker string `json:"worker"`
	// Err is the failure, empty on success.
	Err string `json:"err,omitempty"`
	// LostRuns are shuffle-run URLs a reduce attempt could not fetch:
	// the producing map output is gone and must be re-executed. A
	// result with LostRuns is requeued without charging the task a
	// failure — the fault is upstream.
	LostRuns []string `json:"lost_runs,omitempty"`

	Counters       map[string]int64 `json:"counters,omitempty"`
	ShuffleWritten int64            `json:"shuffle_written,omitempty"`
	ShuffleRead    int64            `json:"shuffle_read,omitempty"`
	// FetchBytes are the wire bytes this attempt pulled from shuffle
	// services; folded into SHUFFLE_FETCH_BYTES even for attempts that
	// failed or lost the race, since the transfer happened.
	FetchBytes int64 `json:"fetch_bytes,omitempty"`

	// Runs are a map task's sealed runs per reduce partition, served by
	// this worker's shuffle service.
	Runs [][]netRunRef `json:"runs,omitempty"`
	// OutRecords counts records in the uploaded output (reduce and
	// map-only phases).
	OutRecords int64 `json:"out_records,omitempty"`
}

// netResultResp acknowledges a result. A rejected result lost a
// speculative race (or arrived after lease expiry); the worker
// discards the attempt's artifacts.
type netResultResp struct {
	Accepted bool `json:"accepted"`
}
