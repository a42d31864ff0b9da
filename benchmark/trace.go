package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of one traced run in memory. A nil tracer records
// nothing, which is how a run with tracing off calls the same code.
type tracer struct {
	mu    sync.Mutex
	start time.Time
	spans []*span
}

// span is one timed call into a layer, made from the benchmark's own files.
// name is "layer.call"; rep tells repetitions of the same call apart.
type span struct {
	tr         *tracer
	name       string
	parent     *span
	rep        int
	start, end time.Duration // since the tracer started
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// begin opens a span under parent (nil for a top-level span).
func (t *tracer) begin(parent *span, name string, rep int) *span {
	if t == nil {
		return nil
	}
	s := &span{tr: t, name: name, parent: parent, rep: rep, start: time.Since(t.start)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (s *span) finish() {
	if s != nil {
		s.end = time.Since(s.tr.start)
	}
}

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other (two clients at once), so the covered part
// is the union of their intervals, clipped to the parent.
func selfTime(s *span, children []*span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach time.Duration
	reach = s.start
	for _, v := range iv {
		if v[1] <= reach {
			continue
		}
		covered += v[1] - max(v[0], reach)
		reach = v[1]
	}
	return s.end - s.start - covered
}

// layerOf is the part of a span name before the first dot.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// selfTimes sums self time by layer over every span recorded.
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := make(map[*span][]*span)
	for _, s := range t.spans {
		if s.parent != nil {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[layerOf(s.name)] += selfTime(s, kids[s])
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev): one complete event per span, one lane per top-level span
// name so concurrent clients sit on rows of their own.
func (t *tracer) writeChrome(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	lanes := map[string]int{}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		root := s
		for root.parent != nil {
			root = root.parent
		}
		if _, ok := lanes[root.name]; !ok {
			lanes[root.name] = len(lanes) + 1
		}
		args := map[string]any{"workload": workload, "rep": s.rep}
		if s.parent != nil {
			args["parent"] = s.parent.name
		}
		events = append(events, event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: lanes[root.name], Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
