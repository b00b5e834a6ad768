// Package telemetry is the instrumentation spine of the platform:
// process-wide named counters and gauges (exported through expvar for
// live inspection), fixed-bucket histograms cheap enough for slot-loop
// hot paths, and a line-oriented JSON emitter that turns sampled time
// series into a stream any io.Writer can carry.
//
// The package deliberately contains no sampling policy of its own: the
// kernels (internal/sim, internal/netsim) own *when* to observe — at
// their slot barriers, where state is quiescent and shard-private
// buffers can be merged deterministically — and this package owns the
// primitive data types, so every layer of the stack speaks the same
// wire format. Two properties matter everywhere it is used:
//
//   - Observation never perturbs results. Counters and histograms are
//     write-only from the simulation's point of view; a run with
//     telemetry attached is bit-identical to one without.
//   - Merging is order-independent. Histograms and counters merge by
//     integer addition, so per-shard private buffers summed in any
//     order — or for any shard count — produce identical series.
package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count, safe for
// concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (pool occupancy, open resources),
// safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set pins the gauge to v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry holds named counters, gauges and shared histograms. Lookups
// are get-or-create, so instrumentation sites need no registration
// ceremony; the returned pointers are stable for the registry's
// lifetime and should be cached by hot callers.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*SharedHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*SharedHistogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named shared histogram, creating it with n
// buckets on first use (later lookups ignore n).
func (r *Registry) Histogram(name string, n int) *SharedHistogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &SharedHistogram{h: NewHistogram(n)}
	r.hists[name] = h
	return h
}

// Histograms returns a copy of every shared histogram's bucket counts
// keyed by name.
func (r *Registry) Histograms() map[string][]uint64 {
	r.mu.RLock()
	hists := make(map[string]*SharedHistogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.RUnlock()
	out := make(map[string][]uint64, len(hists))
	for name, h := range hists {
		out[name] = h.Counts()
	}
	return out
}

// WriteJSON renders the registry — counters and gauges flat, shared
// histograms as bare bucket arrays — as one indented JSON document: the
// `-metrics out.json` snapshot shape.
func (r *Registry) WriteJSON(w io.Writer) error {
	doc := struct {
		Metrics    map[string]int64    `json:"metrics"`
		Histograms map[string][]uint64 `json:"histograms"`
	}{Metrics: r.Snapshot(), Histograms: r.Histograms()}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Snapshot returns every metric's current value keyed by name, with
// gauges and counters in one flat map — the expvar export shape.
// Histograms are excluded: the expvar document's flat shape is part of
// the wire contract (see PublishExpvar); histograms travel through
// WriteJSON instead.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = int64(c.Load())
	}
	for name, g := range r.gauges {
		out[name] = g.Load()
	}
	return out
}

// Each calls fn for every metric in sorted name order.
func (r *Registry) Each(fn func(name string, value int64)) {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn(name, snap[name])
	}
}

// defaultRegistry is the process-wide registry behind Default: the
// network kernel's shard and pool gauges, the study server's metrics
// and any other library-level instrumentation all land here.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

var publishOnce sync.Once

// PublishExpvar exposes the default registry under the expvar name
// "fabricpower" (one JSON object of every counter and gauge), next to
// expvar's own cmdline/memstats. Safe to call more than once; only the
// first call publishes.
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("fabricpower", expvar.Func(func() any {
			return defaultRegistry.Snapshot()
		}))
	})
}

// Histogram is a fixed-size exponential-bucket histogram: bucket 0
// counts zero values and bucket i >= 1 counts values in [2^(i-1), 2^i).
// Everything at or beyond the last bucket's lower bound lands in the
// last bucket. The value type is built for slot-loop hot paths: Observe
// is two instructions and never allocates, and a shard-private
// histogram merges into another by plain addition, so merged totals are
// independent of shard count and merge order.
//
// Histogram is not safe for concurrent writers; give each writer its
// own and Merge at a barrier.
type Histogram struct {
	counts []uint64
}

// NewHistogram returns a histogram with n buckets (minimum 2); n = 16
// spans latencies up to 2^15-1 slots before clipping.
func NewHistogram(n int) *Histogram {
	if n < 2 {
		n = 2
	}
	return &Histogram{counts: make([]uint64, n)}
}

// Bucket returns the bucket index of v in an n-bucket histogram.
func Bucket(v uint64, n int) int {
	b := bits.Len64(v) // 0 for 0, k for [2^(k-1), 2^k)
	if b >= n {
		b = n - 1
	}
	return b
}

// Observe counts one value.
func (h *Histogram) Observe(v uint64) {
	h.counts[Bucket(v, len(h.counts))]++
}

// Merge adds other's counts into h. The histograms must have the same
// bucket count.
func (h *Histogram) Merge(other *Histogram) {
	if len(other.counts) != len(h.counts) {
		panic(fmt.Sprintf("telemetry: merging %d-bucket histogram into %d buckets", len(other.counts), len(h.counts)))
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
}

// MergeCounts adds a raw bucket slice (a shard-private buffer) into h.
func (h *Histogram) MergeCounts(counts []uint64) {
	if len(counts) != len(h.counts) {
		panic(fmt.Sprintf("telemetry: merging %d buckets into %d", len(counts), len(h.counts)))
	}
	for i, c := range counts {
		h.counts[i] += c
	}
}

// Reset zeroes every bucket.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
}

// Total returns the number of observed values.
func (h *Histogram) Total() uint64 {
	var t uint64
	for _, c := range h.counts {
		t += c
	}
	return t
}

// Counts returns the bucket counts (shared; treat as read-only).
func (h *Histogram) Counts() []uint64 { return h.counts }

// BucketLow returns bucket i's inclusive lower bound (0, 1, 2, 4, …).
func BucketLow(i int) uint64 {
	if i == 0 {
		return 0
	}
	return uint64(1) << (i - 1)
}

// Quantile returns an upper-bound estimate of the q-quantile: the
// inclusive upper edge (2^i − 1) of the bucket holding the ⌈q·total⌉-th
// smallest observation. Bucket 0 reports 0 exactly; the open-ended last
// bucket reports its lower bound. q is clamped to [0, 1]; an empty
// histogram reports 0.
func (h *Histogram) Quantile(q float64) uint64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i == 0 {
				return 0
			}
			if i == len(h.counts)-1 {
				return BucketLow(i)
			}
			return (uint64(1) << i) - 1
		}
	}
	return BucketLow(len(h.counts) - 1)
}

// sparkRamp is the eight-level unicode ramp Sparkline draws with.
var sparkRamp = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders vals as a unicode sparkline scaled to the series
// maximum — the one text rendering every CLI and example shares. An
// all-zero (or empty) series renders as all-minimum bars.
func Sparkline(vals []float64) string {
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		idx := 0
		if max > 0 && v > 0 {
			idx = int(v / max * float64(len(sparkRamp)-1))
		}
		out[i] = sparkRamp[idx]
	}
	return string(out)
}

// SparklineCounts renders a histogram-style uint64 bucket slice.
func SparklineCounts(counts []uint64) string {
	vals := make([]float64, len(counts))
	for i, c := range counts {
		vals[i] = float64(c)
	}
	return Sparkline(vals)
}

// SharedHistogram is a mutex-guarded histogram for registry-resident
// metrics with more than one writer (e.g. barrier-wait times from many
// networks). The lock keeps Observe off slot-loop fast paths — kernels
// observe into it only at sampled barriers, where a handful of
// nanoseconds of locking is noise.
type SharedHistogram struct {
	mu sync.Mutex
	h  *Histogram
}

// Observe counts one value. Safe for concurrent use; never allocates.
func (s *SharedHistogram) Observe(v uint64) {
	s.mu.Lock()
	s.h.Observe(v)
	s.mu.Unlock()
}

// Counts returns a copy of the bucket counts.
func (s *SharedHistogram) Counts() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, len(s.h.counts))
	copy(out, s.h.counts)
	return out
}

// Total returns the number of observed values.
func (s *SharedHistogram) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Total()
}

// Quantile is Histogram.Quantile under the lock.
func (s *SharedHistogram) Quantile(q float64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Quantile(q)
}

// MarshalJSON renders the histogram as its bare bucket-count array.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(h.counts)
}

// UnmarshalJSON parses the bare bucket-count array form.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	return json.Unmarshal(data, &h.counts)
}

// Writer emits one JSON document per line (JSONL) to an underlying
// io.Writer. Emit is safe for concurrent use: each record is encoded
// off-lock, then written atomically, so lines from concurrent sweep
// points interleave whole, never torn. The first write error sticks and
// short-circuits every later Emit.
type Writer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
	// Lines counts successfully emitted records.
	lines uint64
}

// NewWriter wraps w in a JSONL emitter.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Emit writes v as one JSON line.
func (w *Writer) Emit(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if _, err := w.w.Write(data); err != nil {
		w.err = err
		return err
	}
	w.lines++
	return nil
}

// Lines returns the number of records emitted so far.
func (w *Writer) Lines() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lines
}

// Err returns the sticky write error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
