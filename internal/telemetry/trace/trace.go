// Package trace is the execution profiler of the simulator itself:
// where internal/telemetry observes the *simulated* network (power,
// queues, latency), this package observes the *simulator* — which
// shard worker, sweep worker or characterization owns each slice of
// wall-clock time. Recorders capture begin/end spans into track-private
// ring buffers and export Chrome trace-event JSON that loads directly
// in Perfetto (ui.perfetto.dev) or chrome://tracing, one timeline row
// per track.
//
// The design constraints mirror the telemetry spine's:
//
//   - Recording never perturbs results. Spans are write-only
//     measurements of wall-clock time; a run with a recorder attached
//     produces bit-identical simulation output.
//   - The hot path is allocation-free and lock-free. Each Track has
//     one writer at a time (whichever goroutine computes a netsim
//     shard this slot, a sweep worker, the merge thread), handed on
//     only through synchronization; Emit writes into the track's
//     preallocated ring with no synchronization. Capacity is fixed at
//     construction and the ring drops its oldest spans when full, so a
//     long run keeps the most recent window instead of growing without
//     bound.
//
// Cold paths with no private track (Table 1's gate-level
// characterizations) record through Recorder.EmitShared, which takes
// the registration lock — acceptable because they emit a handful of
// spans per run, not per slot.
package trace

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// DefaultSpanCap is the per-track ring capacity used when NewRecorder
// is given a non-positive one. At the kernels' default 64-slot sampling
// interval it holds the trailing ~100k sampled slots of a shard worker.
const DefaultSpanCap = 4096

// Span is one completed interval on a track. Times are nanoseconds
// since the recorder's epoch.
type Span struct {
	Name   string
	Start  int64
	Dur    int64
	Arg    int64 // rendered as args {"v": Arg} when HasArg
	HasArg bool
}

// Track is one timeline row: a fixed-capacity ring of spans with a
// single writer at a time. The writing goroutine calls Emit; a next
// writer, and everything else (export, Dropped), must run after the
// writer has quiesced or synchronized with it — the kernels guarantee
// this by handing a shard's track on only across a slot's join and
// exporting only after Run returns.
type Track struct {
	pid, tid int
	name     string
	buf      []Span
	head     int // index of the oldest span
	size     int
	dropped  uint64
}

// Emit records one span. It never allocates; when the ring is full the
// oldest span is dropped to make room.
func (t *Track) Emit(name string, start, end int64) {
	t.push(Span{Name: name, Start: start, Dur: end - start})
}

// EmitArg is Emit with one integer argument attached (rendered in the
// exported JSON as args {"v": arg} — e.g. a sweep point index).
func (t *Track) EmitArg(name string, start, end, arg int64) {
	t.push(Span{Name: name, Start: start, Dur: end - start, Arg: arg, HasArg: true})
}

func (t *Track) push(s Span) {
	if t.size == len(t.buf) {
		t.buf[t.head] = s
		t.head = (t.head + 1) % len(t.buf)
		t.dropped++
		return
	}
	t.buf[(t.head+t.size)%len(t.buf)] = s
	t.size++
}

// Len returns the number of retained spans.
func (t *Track) Len() int { return t.size }

// Dropped returns the number of spans the ring evicted to stay within
// capacity.
func (t *Track) Dropped() uint64 { return t.dropped }

// Name returns the track's display name.
func (t *Track) Name() string { return t.name }

// spans calls fn for each retained span in emission order.
func (t *Track) spans(fn func(Span)) {
	for i := 0; i < t.size; i++ {
		fn(t.buf[(t.head+i)%len(t.buf)])
	}
}

type trackKey struct {
	pid  int
	name string
}

// Recorder owns a set of tracks sharing one time epoch. Track
// registration (Track, SetProcessName, EmitShared) is mutex-guarded and
// belongs on setup or cold paths; span emission on a registered Track
// is the lock-free hot path.
type Recorder struct {
	epoch   time.Time
	spanCap int

	mu      sync.Mutex
	tracks  []*Track
	byKey   map[trackKey]*Track
	nextTID map[int]int
	procs   map[int]string
}

// NewRecorder returns an empty recorder whose tracks hold spanCap spans
// each (DefaultSpanCap when spanCap <= 0). The epoch — time zero of
// every span — is the moment of construction.
func NewRecorder(spanCap int) *Recorder {
	if spanCap <= 0 {
		spanCap = DefaultSpanCap
	}
	return &Recorder{
		epoch:   time.Now(),
		spanCap: spanCap,
		byKey:   make(map[trackKey]*Track),
		nextTID: make(map[int]int),
		procs:   make(map[int]string),
	}
}

// Now returns the current time in nanoseconds since the recorder's
// epoch — the timestamps Emit consumes. Monotonic and allocation-free.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// Track returns the named track under pid, creating it on first use.
// Tracks under one pid group into one Perfetto process row; the track
// name becomes the thread name. The returned pointer is stable, and
// repeated lookups with the same (pid, name) return the same track —
// callers own the single-writer discipline.
func (r *Recorder) Track(pid int, name string) *Track {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trackLocked(pid, name)
}

func (r *Recorder) trackLocked(pid int, name string) *Track {
	key := trackKey{pid, name}
	if t, ok := r.byKey[key]; ok {
		return t
	}
	t := &Track{pid: pid, tid: r.nextTID[pid], name: name, buf: make([]Span, r.spanCap)}
	r.nextTID[pid]++
	r.byKey[key] = t
	r.tracks = append(r.tracks, t)
	return t
}

// SetProcessName names a pid's Perfetto process row (e.g. "sweep",
// "p3 netsim fattree").
func (r *Recorder) SetProcessName(pid int, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.procs[pid] = name
}

// EmitShared records one span on a get-or-create track under the
// recorder lock — the cold-path alternative to a private Track for
// goroutines that record a handful of spans per run (Table 1's
// characterizations).
func (r *Recorder) EmitShared(pid int, track, span string, start, end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trackLocked(pid, track).Emit(span, start, end)
}

// Dropped sums the spans evicted across all tracks.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n uint64
	for _, t := range r.tracks {
		n += t.dropped
	}
	return n
}

// event is one Chrome trace-event record. "X" events are complete
// spans (ts/dur in microseconds); "M" events are the process/thread
// name metadata Perfetto labels rows with.
type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceDoc is the JSON-object form of the Chrome trace-event format.
type traceDoc struct {
	TraceEvents     []event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// WriteJSON exports every track as Chrome trace-event JSON, loadable in
// Perfetto or chrome://tracing. Call it after the recording goroutines
// have quiesced (after Run/Grid.Run returns): export takes the
// registration lock but cannot synchronize with a Track's private
// writer mid-span.
func (r *Recorder) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	tracks := make([]*Track, len(r.tracks))
	copy(tracks, r.tracks)
	procs := make(map[int]string, len(r.procs))
	for pid, name := range r.procs {
		procs[pid] = name
	}
	r.mu.Unlock()

	sort.SliceStable(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})
	doc := traceDoc{DisplayTimeUnit: "ms", TraceEvents: []event{}}
	seenPID := make(map[int]bool)
	for _, t := range tracks {
		if name, ok := procs[t.pid]; ok && !seenPID[t.pid] {
			doc.TraceEvents = append(doc.TraceEvents, event{
				Name: "process_name", Ph: "M", PID: t.pid, TID: t.tid,
				Args: map[string]any{"name": name},
			})
		}
		seenPID[t.pid] = true
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: "thread_name", Ph: "M", PID: t.pid, TID: t.tid,
			Args: map[string]any{"name": t.name},
		})
		t.spans(func(s Span) {
			dur := float64(s.Dur) / 1e3
			ev := event{
				Name: s.Name, Ph: "X", PID: t.pid, TID: t.tid,
				TS: float64(s.Start) / 1e3, Dur: &dur,
			}
			if s.HasArg {
				ev.Args = map[string]any{"v": s.Arg}
			}
			doc.TraceEvents = append(doc.TraceEvents, ev)
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
