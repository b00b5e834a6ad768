package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public entry point. Spans of one grid point or
// one request share a key.
type span struct {
	name       string
	id, parent int   // parent 0 = root
	key        int64 // point index or request number; -1 = none
	lane       int   // timeline row
	start, end time.Duration
}

// spanRecorder keeps spans in memory and writes them once, at the end
// of the traced run. A nil recorder records nothing, so untraced runs
// pass nil and take no span work.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	lanes map[int]string
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{epoch: time.Now(), lanes: map[int]string{}}
}

// open starts a span and returns its id (0 on a nil recorder).
func (r *spanRecorder) open(name string, parent, lane int, key int64) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, id: len(r.spans) + 1, parent: parent, key: key, lane: lane, start: now, end: -1})
	return len(r.spans)
}

// add records a span whose interval was measured elsewhere.
func (r *spanRecorder) add(name string, parent, lane int, key int64, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, id: len(r.spans) + 1, parent: parent, key: key, lane: lane,
		start: start.Sub(r.epoch), end: end.Sub(r.epoch)})
	return len(r.spans)
}

// close ends span id.
func (r *spanRecorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// nameLane labels a timeline row.
func (r *spanRecorder) nameLane(lane int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.lanes[lane] = name
	r.mu.Unlock()
}

// layerTime is one span name's accumulated time.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes sums, per span name, the spans' durations and their self
// time: the duration minus the part of it that child spans cover.
func (r *spanRecorder) selfTimes() []layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.parent != 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	acc := map[string]*layerTime{}
	for _, s := range r.spans {
		if s.end < 0 {
			continue
		}
		lt := acc[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			acc[s.name] = lt
		}
		dur := s.end - s.start
		lt.count++
		lt.total += dur
		lt.self += dur - covered(s, children[s.id])
	}
	out := make([]layerTime, 0, len(acc))
	for _, lt := range acc {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.start, parent.start), min(k.end, parent.end)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// chromeEvent is one Chrome trace-event record, the format the
// program's own profiler (internal/telemetry/trace) exports.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// benchPID is the Perfetto process the benchmark's own spans group
// under; the program's profiler rows are shifted past it.
const (
	benchPID      = 1
	programPIDOff = 100
)

// writeChrome exports the spans as Chrome trace-event JSON, merging in
// a program-side profile (the JSON a trace.Recorder wrote, whose epoch
// sits programOffset after the benchmark's) when one is given.
func (r *spanRecorder) writeChrome(w io.Writer, process string, program []byte, programOffset time.Duration) error {
	r.mu.Lock()
	events := []chromeEvent{{Name: "process_name", Ph: "M", PID: benchPID, Args: map[string]any{"name": process}}}
	lanes := make([]int, 0, len(r.lanes))
	for l := range r.lanes {
		lanes = append(lanes, l)
	}
	sort.Ints(lanes)
	for _, l := range lanes {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: benchPID, TID: l, Args: map[string]any{"name": r.lanes[l]}})
	}
	for _, s := range r.spans {
		if s.end < 0 {
			continue
		}
		dur := float64(s.end-s.start) / 1e3
		args := map[string]any{"span_id": s.id, "parent": s.parent}
		if s.key >= 0 {
			args["id"] = s.key
		}
		events = append(events, chromeEvent{Name: s.name, Ph: "X", PID: benchPID, TID: s.lane,
			TS: float64(s.start) / 1e3, Dur: &dur, Args: args})
	}
	r.mu.Unlock()
	if len(program) > 0 {
		var doc struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(program, &doc); err != nil {
			return fmt.Errorf("reading program trace: %w", err)
		}
		for _, ev := range doc.TraceEvents {
			ev.PID += programPIDOff
			if ev.Ph == "X" {
				ev.TS += float64(programOffset) / 1e3
			}
			if ev.Name == "process_name" && ev.Args != nil {
				ev.Args["name"] = fmt.Sprintf("program: %v", ev.Args["name"])
			}
			events = append(events, ev)
		}
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", PID: programPIDOff,
			Args: map[string]any{"name": "program: sweep"}})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}
