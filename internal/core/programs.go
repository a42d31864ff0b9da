package core

import (
	"encoding/json"
	"fmt"

	"ngramstats/internal/mapreduce"
)

// coreProgram is the registered mapreduce program covering every job
// the paper's methods launch. A worker process — a re-execution of the
// current binary — rebuilds a job's task callbacks from the jobSpec
// serialized into the job's mapreduce.Spec, which is also the single
// construction path the in-process runner uses: local and worker
// execution cannot drift apart because both call buildCoreJob.
const coreProgram = "ngramstats/core"

func init() {
	mapreduce.RegisterProgram(coreProgram, buildCoreJob)
}

// jobSpec serializes the configuration of one core job. Kind selects
// the mapper/reducer wiring; the remaining fields parameterize it.
// Runtime concerns (splits, slots, memory budgets, temp dirs, side
// data) deliberately stay out: the executing runner supplies them.
type jobSpec struct {
	Kind string `json:"kind"`

	Tau      int64           `json:"tau,omitempty"`
	Sigma    int             `json:"sigma,omitempty"`
	K        int             `json:"k,omitempty"`
	Agg      AggregationKind `json:"agg,omitempty"`
	Select   SelectMode      `json:"select,omitempty"`
	DictMem  int             `json:"dict_mem,omitempty"`
	JoinMem  int             `json:"join_mem,omitempty"`
	Combiner bool            `json:"combiner,omitempty"`
}

// The job kinds of the paper's methods.
const (
	kindNaive         = "naive"          // Algorithm 1
	kindScan          = "apriori-scan"   // Algorithm 2, k-th pass
	kindIndexScan     = "index-scan"     // Algorithm 3, k ≤ K
	kindIndexJoin     = "index-join"     // Algorithm 3, k > K
	kindSuffixSigma   = "suffix-sigma"   // Algorithm 4
	kindSuffixHashmap = "suffix-hashmap" // Section IV strawman
	kindSuffixFilter  = "suffix-filter"  // Section VI-A post-filter
	kindUnigrams      = "unigrams"       // Section V document splits, job 1
	kindRewrite       = "rewrite"        // Section V document splits, job 2 (map-only)
)

// buildCoreJob reconstructs a core job's task callbacks from a
// serialized jobSpec.
func buildCoreJob(config []byte) (*mapreduce.Job, error) {
	var s jobSpec
	if err := json.Unmarshal(config, &s); err != nil {
		return nil, fmt.Errorf("core: job spec: %w", err)
	}
	job := &mapreduce.Job{}
	switch s.Kind {
	case kindNaive:
		job.NewMapper = func() mapreduce.Mapper { return &naiveMapper{sigma: s.Sigma} }
		job.NewReducer = func() mapreduce.Reducer { return &countReducer{tau: s.Tau} }
		if s.Combiner {
			job.NewCombiner = func() mapreduce.Reducer { return &countReducer{} }
		}
	case kindScan:
		job.NewMapper = func() mapreduce.Mapper {
			return &scanMapper{k: s.K, memoryBudget: s.DictMem}
		}
		job.NewReducer = func() mapreduce.Reducer { return &countReducer{tau: s.Tau} }
		if s.Combiner {
			job.NewCombiner = func() mapreduce.Reducer { return &countReducer{} }
		}
	case kindIndexScan:
		job.NewMapper = func() mapreduce.Mapper { return &indexScanMapper{k: s.K} }
		job.NewReducer = func() mapreduce.Reducer { return &indexMergeReducer{tau: s.Tau} }
	case kindIndexJoin:
		job.NewMapper = func() mapreduce.Mapper { return &indexJoinMapper{} }
		job.NewReducer = func() mapreduce.Reducer {
			return &indexJoinReducer{tau: s.Tau, budget: s.JoinMem}
		}
	case kindSuffixSigma:
		job.NewMapper = func() mapreduce.Mapper {
			return &suffixMapper{sigma: s.Sigma, kind: s.Agg}
		}
		job.Partition = FirstTermPartitioner
		job.Descending = true
		job.NewReducer = func() mapreduce.Reducer {
			return &suffixSigmaReducer{tau: s.Tau, kind: s.Agg, mode: s.Select}
		}
		if s.Combiner {
			job.NewCombiner = func() mapreduce.Reducer { return &aggregateCombiner{kind: s.Agg} }
		}
	case kindSuffixHashmap:
		job.NewMapper = func() mapreduce.Mapper {
			return &suffixMapper{sigma: s.Sigma, kind: AggCount}
		}
		job.Partition = FirstTermPartitioner
		job.NewReducer = func() mapreduce.Reducer { return &suffixHashmapReducer{tau: s.Tau} }
		if s.Combiner {
			job.NewCombiner = func() mapreduce.Reducer { return &aggregateCombiner{kind: AggCount} }
		}
	case kindSuffixFilter:
		job.NewMapper = func() mapreduce.Mapper { return &reverseMapper{} }
		job.Partition = FirstTermPartitioner
		job.Descending = true
		job.NewReducer = func() mapreduce.Reducer {
			return &prefixFilterReducer{mode: s.Select, kind: s.Agg}
		}
	case kindUnigrams:
		job.NewMapper = func() mapreduce.Mapper { return &unigramMapper{} }
		job.NewCombiner = func() mapreduce.Reducer { return &countReducer{} }
		job.NewReducer = func() mapreduce.Reducer { return &countReducer{tau: s.Tau} }
	case kindRewrite:
		job.NewMapper = func() mapreduce.Mapper { return &splitRewriteMapper{} }
	default:
		return nil, fmt.Errorf("core: unknown job kind %q", s.Kind)
	}
	return job, nil
}

// specJob constructs a runnable job from a jobSpec: the task callbacks
// come from buildCoreJob (the same path a worker process takes) and
// the runtime knobs from Params, with the serialized spec attached so
// any runner can ship the job to another process.
func (p Params) specJob(name string, s jobSpec) *mapreduce.Job {
	config, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("core: marshal job spec: %v", err)) // static struct, cannot fail
	}
	built, err := buildCoreJob(config)
	if err != nil {
		panic(fmt.Sprintf("core: rebuild own job spec: %v", err))
	}
	job := p.job(name)
	job.NewMapper = built.NewMapper
	job.NewCombiner = built.NewCombiner
	job.NewReducer = built.NewReducer
	job.Partition = built.Partition
	job.Descending = built.Descending
	job.Spec = &mapreduce.Spec{Program: coreProgram, Config: config}
	return job
}
