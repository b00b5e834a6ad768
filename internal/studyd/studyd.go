// Package studyd is the long-running sweep service: an HTTP server
// that accepts versioned scenario specs (the same JSON `fabricpower
// run` executes), runs them on the deterministic sweep engine, and
// streams results back as NDJSON while points complete.
//
// # Wire protocol
//
// `POST /v1/studies` takes a study.Spec document as its body and
// answers with a `application/x-ndjson` stream, one JSON document per
// line, flushed as it is produced. Three existing line shapes from the
// study layer interleave with two server framing lines:
//
//   - `{"kind":"study_start","id":...,"points":N,"workers":W}` —
//     always first; carries the study id, the enumerated point count
//     and the sweep worker count.
//   - study.Event lines (`"kind":"point_start"` / `"point_finish"`) —
//     per-point progress with worker id and duration, exactly as
//     Grid.Run emits them.
//   - study.ResultRecord lines (`{"index":...,"scenario":...,
//     "result":...}`, no "kind" field) — byte-identical to the lines
//     `fabricpower run -json` writes, one per completed point, in
//     completion order (the submit client restores enumeration order).
//   - point-tagged kernel telemetry lines (`"kind":"sim_sample"` /
//     `"net_sample"` / `"net_flows"`, with a "point" field) when the
//     request opts in with `?telemetry=1[&tsample=N]`.
//   - `{"kind":"trace","trace":{...}}` — the request's execution
//     profile as Chrome trace-event JSON, when requested with
//     `?trace=1`; emitted once, just before the finish line.
//   - `{"kind":"study_finish","id":...,"completed":M,"records":R,
//     "durationMS":...,"err":...}` — always last on a complete stream.
//     A stream that ends without it was truncated.
//
// # Request lifecycle
//
// Studies share nothing but the process: each request runs its own
// Grid.Run with its own options (and its own trace recorder when it
// asks for one). What the resident server adds over N CLI invocations
// is admission control, cancellation, a study listing and live
// metrics. Execution is bounded by a concurrency limit: up to
// MaxConcurrent studies run at once, up to MaxQueue more wait, and
// anything beyond that is refused with 429 and a Retry-After estimate
// derived from the observed study-duration histogram. A study is
// cancelled by its client disconnecting, by `DELETE /v1/studies/{id}`,
// by the per-study timeout, or by server shutdown — all through the
// same context, which Grid.Run honors between points with every
// completed point's record already on the wire.
//
// The same mux serves `GET /healthz`, `GET /v1/studies` (+ `/{id}`),
// expvar under /debug/vars (including every studyd.* metric) and
// net/http/pprof under /debug/pprof/.
package studyd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"fabricpower/internal/telemetry"
	"fabricpower/internal/telemetry/trace"
	"fabricpower/study"
)

// maxSpecBytes bounds a submitted spec document.
const maxSpecBytes = 8 << 20

// keepDone bounds how many finished studies the listing retains.
const keepDone = 64

// Config tunes a Server. The zero value is usable: two concurrent
// studies, eight queued, all-core sweeps, no per-study deadline,
// metrics on the process-wide registry.
type Config struct {
	// MaxConcurrent bounds the studies executing at once (default 2).
	MaxConcurrent int
	// MaxQueue bounds the studies waiting for a slot beyond that
	// (default 8). A submission past both limits is refused with 429.
	MaxQueue int
	// Workers is the per-study sweep worker count when the request
	// does not pin one with ?workers= (0 = one per core).
	Workers int
	// StudyTimeout caps each study's run (0 = none). The deadline
	// cancels between points like any other cancellation.
	StudyTimeout time.Duration
	// Registry receives the studyd.* metrics (default the process-wide
	// telemetry.Default()).
	Registry *telemetry.Registry
	// Logf, when non-nil, receives one line per request lifecycle
	// transition.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 8
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default()
	}
	return c
}

// StudyStatus is one study's lifecycle snapshot, as listed by
// GET /v1/studies.
type StudyStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // "queued", "running" or "done"
	// Study is the spec's study kind ("" for the generic grid).
	Study string `json:"study,omitempty"`
	// Points is the enumerated grid size; Completed counts finished
	// points; Records counts result lines streamed.
	Points    int    `json:"points"`
	Completed int    `json:"completed"`
	Records   uint64 `json:"records"`
	// StartedAt is when the study began executing, RFC 3339 ("" while
	// queued); DurationMS its wall-clock run time once done.
	StartedAt  string  `json:"startedAt,omitempty"`
	DurationMS float64 `json:"durationMS,omitempty"`
	// Err carries a finished study's error ("" on success).
	Err string `json:"err,omitempty"`
}

// handle is the server-side state of one study request.
type handle struct {
	mu         sync.Mutex
	st         StudyStatus
	seq        uint64
	cancel     context.CancelFunc
	cancelOnce sync.Once
	cancelCh   chan struct{}
}

func (h *handle) status() StudyStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.st
}

func (h *handle) setState(state string) {
	h.mu.Lock()
	h.st.State = state
	h.mu.Unlock()
}

func (h *handle) start(cancel context.CancelFunc) {
	h.mu.Lock()
	h.st.State = "running"
	h.st.StartedAt = time.Now().UTC().Format(time.RFC3339)
	h.cancel = cancel
	h.mu.Unlock()
	// A DELETE that raced the queue wait lands here: honor it now that
	// there is a context to cancel.
	select {
	case <-h.cancelCh:
		cancel()
	default:
	}
}

func (h *handle) notePoint(records uint64) {
	h.mu.Lock()
	h.st.Completed++
	h.st.Records = records
	h.mu.Unlock()
}

func (h *handle) finish(completed int, records uint64, durMS float64, errStr string) {
	h.mu.Lock()
	h.st.State = "done"
	h.st.Completed = completed
	h.st.Records = records
	h.st.DurationMS = durMS
	h.st.Err = errStr
	h.cancel = nil
	h.mu.Unlock()
}

// cancelNow cancels the study whatever its state: a queued study's
// admission wait sees the closed channel, a running one its context.
func (h *handle) cancelNow() {
	h.cancelOnce.Do(func() { close(h.cancelCh) })
	h.mu.Lock()
	cancel := h.cancel
	h.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// slotTaken, when set, runs in every study once it holds a run slot and
// has started streaming, just before its grid runs: a test hook that
// keeps a slot occupied until the test releases it.
var slotTaken func()

// Server is the studyd HTTP front-end. Create it with New and mount
// Handler on any http.Server.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	tickets chan struct{} // admission: running + queued
	slots   chan struct{} // execution: running
	closeCh chan struct{}

	mu      sync.Mutex
	closed  bool
	seq     uint64
	studies map[string]*handle

	mRequests  *telemetry.Counter
	mRejected  *telemetry.Counter
	mCompleted *telemetry.Counter
	mFailed    *telemetry.Counter
	mCancelled *telemetry.Counter
	mRecords   *telemetry.Counter
	gActive    *telemetry.Gauge
	gQueued    *telemetry.Gauge
	hDuration  *telemetry.SharedHistogram
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Server{
		cfg:     cfg,
		tickets: make(chan struct{}, cfg.MaxConcurrent+cfg.MaxQueue),
		slots:   make(chan struct{}, cfg.MaxConcurrent),
		closeCh: make(chan struct{}),
		studies: make(map[string]*handle),

		mRequests:  reg.Counter("studyd.requests"),
		mRejected:  reg.Counter("studyd.rejected"),
		mCompleted: reg.Counter("studyd.completed"),
		mFailed:    reg.Counter("studyd.failed"),
		mCancelled: reg.Counter("studyd.cancelled"),
		mRecords:   reg.Counter("studyd.records"),
		gActive:    reg.Gauge("studyd.active"),
		gQueued:    reg.Gauge("studyd.queue_depth"),
		hDuration:  reg.Histogram("studyd.request_ms", 24),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/studies", s.handleSubmit)
	mux.HandleFunc("GET /v1/studies", s.handleList)
	mux.HandleFunc("GET /v1/studies/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/studies/{id}", s.handleDelete)
	telemetry.PublishExpvar()
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// Handler returns the server's mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Stop refuses new submissions (503) and cancels every queued and
// running study; their streams flush a study_finish line carrying the
// cancellation and end. Safe to call more than once. Call it before
// http.Server.Shutdown so in-flight streams can drain.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.closeCh)
	hs := make([]*handle, 0, len(s.studies))
	for _, h := range s.studies {
		hs = append(hs, h)
	}
	s.mu.Unlock()
	for _, h := range hs {
		h.cancelNow()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// register creates and tracks a new study handle in state "queued",
// pruning the oldest finished studies past the retention cap.
func (s *Server) register(kind string, points int) *handle {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	h := &handle{seq: s.seq, cancelCh: make(chan struct{}), st: StudyStatus{
		ID:     fmt.Sprintf("s-%d", s.seq),
		State:  "queued",
		Study:  kind,
		Points: points,
	}}
	s.studies[h.st.ID] = h
	s.pruneLocked()
	return h
}

// pruneLocked drops the oldest finished studies beyond keepDone.
func (s *Server) pruneLocked() {
	type done struct {
		id  string
		seq uint64
	}
	var finished []done
	for id, h := range s.studies {
		if h.status().State == "done" {
			finished = append(finished, done{id, h.seq})
		}
	}
	if len(finished) <= keepDone {
		return
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].seq < finished[j].seq })
	for _, d := range finished[:len(finished)-keepDone] {
		delete(s.studies, d.id)
	}
}

func (s *Server) lookup(id string) *handle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.studies[id]
}

// statuses snapshots every tracked study, oldest first.
func (s *Server) statuses() []StudyStatus {
	s.mu.Lock()
	hs := make([]*handle, 0, len(s.studies))
	for _, h := range s.studies {
		hs = append(hs, h)
	}
	s.mu.Unlock()
	sort.Slice(hs, func(i, j int) bool { return hs[i].seq < hs[j].seq })
	out := make([]StudyStatus, len(hs))
	for i, h := range hs {
		out[i] = h.status()
	}
	return out
}

// retryAfterSeconds estimates how long a refused client should wait: a
// median observed study duration, clamped to [1s, 600s].
func (s *Server) retryAfterSeconds() int {
	ms := s.hDuration.Quantile(0.5)
	sec := int((ms + 999) / 1000)
	if sec < 1 {
		sec = 1
	}
	if sec > 600 {
		sec = 600
	}
	return sec
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return
	}
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"active": s.gActive.Load(),
		"queued": s.gQueued.Load(),
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"studies": s.statuses(),
		"active":  s.gActive.Load(),
		"queued":  s.gQueued.Load(),
	})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	h := s.lookup(r.PathValue("id"))
	if h == nil {
		writeError(w, http.StatusNotFound, "unknown study %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, h.status())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	h := s.lookup(r.PathValue("id"))
	if h == nil {
		writeError(w, http.StatusNotFound, "unknown study %q", r.PathValue("id"))
		return
	}
	h.cancelNow()
	s.logf("studyd: %s cancel requested", h.status().ID)
	writeJSON(w, http.StatusOK, h.status())
}

// submitParams are the per-request execution options parsed from the
// POST query string.
type submitParams struct {
	workers   int
	telemetry bool
	tsample   uint64
	trace     bool
}

func (s *Server) parseSubmitParams(r *http.Request) (submitParams, error) {
	q := r.URL.Query()
	p := submitParams{workers: s.cfg.Workers}
	if v := q.Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, fmt.Errorf("bad workers %q (want a non-negative integer)", v)
		}
		p.workers = n
	}
	switch v := q.Get("telemetry"); v {
	case "", "0", "false":
	case "1", "true":
		p.telemetry = true
	default:
		return p, fmt.Errorf("bad telemetry %q (want 0 or 1)", v)
	}
	if v := q.Get("tsample"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			return p, fmt.Errorf("bad tsample %q (want a positive integer)", v)
		}
		p.tsample = n
	}
	switch v := q.Get("trace"); v {
	case "", "0", "false":
	case "1", "true":
		p.trace = true
	default:
		return p, fmt.Errorf("bad trace %q (want 0 or 1)", v)
	}
	return p, nil
}

// startLine is the stream's first framing line.
type startLine struct {
	Kind    string `json:"kind"` // "study_start"
	ID      string `json:"id"`
	Study   string `json:"study,omitempty"`
	Points  int    `json:"points"`
	Workers int    `json:"workers"`
}

// finishLine is the stream's terminal framing line; a stream without
// one was truncated.
type finishLine struct {
	Kind       string  `json:"kind"` // "study_finish"
	ID         string  `json:"id"`
	Points     int     `json:"points"`
	Completed  int     `json:"completed"`
	Records    uint64  `json:"records"`
	DurationMS float64 `json:"durationMS"`
	Err        string  `json:"err,omitempty"`
}

// traceLine carries the request's execution profile when ?trace=1.
type traceLine struct {
	Kind  string          `json:"kind"` // "trace"
	Trace json.RawMessage `json:"trace"`
}

// lineWriter serializes whole NDJSON lines onto the response,
// flushing each so clients see points as they complete. The first
// write or flush error sticks and fires onErr (which cancels the
// study — a disconnected client stops paying for its sweep).
type lineWriter struct {
	mu    sync.Mutex
	w     io.Writer
	rc    *http.ResponseController
	onErr func()
	err   error
}

// Write appends one pre-encoded line (trailing newline included).
// telemetry.Writer hands it whole lines; emit goes through it too.
func (lw *lineWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err != nil {
		return 0, lw.err
	}
	n, err := lw.w.Write(p)
	if err == nil && lw.rc != nil {
		err = lw.rc.Flush()
	}
	if err != nil {
		lw.err = err
		if lw.onErr != nil {
			lw.onErr()
		}
	}
	return n, err
}

func (lw *lineWriter) emit(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = lw.Write(append(data, '\n'))
	return err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Inc()
	if s.isClosed() {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	params, err := s.parseSubmitParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec, err := study.DecodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if spec.Kind == "table1" {
		writeError(w, http.StatusBadRequest, "study kind table1 characterizes gates; it has no per-point result records")
		return
	}
	// DecodeSpec validated the base; an axis can still sweep a field
	// out of range, so every point is checked before it takes a slot.
	scenarios, err := spec.Grid.Points()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A trace point opens its file on the server, so a client may only
	// name a file under the server's working directory.
	for i, sc := range scenarios {
		if sc.Traffic.Kind == "trace" && !filepath.IsLocal(sc.Traffic.Trace) {
			writeError(w, http.StatusBadRequest,
				"point %d: trace %q is not a relative path inside the server's working directory", i, sc.Traffic.Trace)
			return
		}
	}
	n := len(scenarios)

	// Admission: one ticket covers the whole queued+running residency.
	select {
	case s.tickets <- struct{}{}:
	default:
		s.mRejected.Inc()
		retry := s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests,
			"study queue is full (%d running, %d queued); retry in ~%ds",
			s.cfg.MaxConcurrent, s.cfg.MaxQueue, retry)
		return
	}
	defer func() { <-s.tickets }()

	h := s.register(spec.Kind, n)
	id := h.status().ID
	s.logf("studyd: %s queued (%s, %d points)", id, specKindLabel(spec.Kind), n)
	s.gQueued.Add(1)
	select {
	case s.slots <- struct{}{}:
		s.gQueued.Add(-1)
	case <-r.Context().Done():
		s.gQueued.Add(-1)
		s.mCancelled.Inc()
		h.finish(0, 0, 0, "client disconnected while queued")
		return
	case <-h.cancelCh:
		s.gQueued.Add(-1)
		s.mCancelled.Inc()
		h.finish(0, 0, 0, "cancelled while queued")
		writeError(w, http.StatusGone, "study %s cancelled while queued", id)
		return
	case <-s.closeCh:
		s.gQueued.Add(-1)
		h.finish(0, 0, 0, "server shut down while queued")
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	defer func() { <-s.slots }()

	// The study's context: client disconnect, DELETE, per-study
	// timeout and server shutdown all funnel into one cancellation.
	ctx := r.Context()
	if s.cfg.StudyTimeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, s.cfg.StudyTimeout)
		defer tcancel()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The handle reads "running" before the active gauge counts it, so
	// a study /healthz counts as active is never listed as queued.
	h.start(cancel)
	s.gActive.Add(1)
	// The study_finish frame is the last thing a client observes, so
	// the gauge drops before it is written; the defer covers the exits
	// that never reach it.
	settleActive := sync.OnceFunc(func() { s.gActive.Add(-1) })
	defer settleActive()
	started := time.Now()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Study-Id", id)
	w.WriteHeader(http.StatusOK)
	lw := &lineWriter{w: w, rc: http.NewResponseController(w), onErr: cancel}

	lw.emit(startLine{
		Kind: "study_start", ID: id, Study: spec.Kind,
		Points: n, Workers: params.workers,
	})
	s.logf("studyd: %s running (workers=%d)", id, params.workers)

	opt := study.RunOptions{Workers: params.workers}
	var rec *trace.Recorder
	if params.trace {
		rec = trace.NewRecorder(0)
		opt.Trace = rec
	}
	if params.telemetry {
		opt.Telemetry = &study.TelemetryOptions{Out: lw, Every: params.tsample}
	}
	var records uint64 // result-record lines; written under Grid.Run's callback lock
	opt.OnEvent = func(ev study.Event) { lw.emit(ev) }
	opt.OnPoint = func(i, total int, sc study.Scenario, res study.Result, info study.PointInfo) {
		s.mRecords.Inc()
		data, merr := json.Marshal(study.ResultRecord{Index: i, Scenario: sc, Result: res})
		if merr != nil {
			return
		}
		if _, werr := lw.Write(append(data, '\n')); werr == nil {
			records++
		}
		h.notePoint(records)
	}

	if slotTaken != nil {
		slotTaken()
	}
	gr, runErr := spec.Grid.Run(ctx, opt)
	completed := 0
	if gr != nil {
		completed = gr.Completed()
	}
	if rec != nil {
		var buf bytes.Buffer
		if terr := rec.WriteJSON(&buf); terr == nil {
			lw.emit(traceLine{Kind: "trace", Trace: buf.Bytes()})
		}
	}
	durMS := float64(time.Since(started).Nanoseconds()) / 1e6
	errStr := ""
	switch {
	case runErr == nil:
		s.mCompleted.Inc()
	case errors.Is(runErr, context.Canceled), errors.Is(runErr, context.DeadlineExceeded):
		s.mCancelled.Inc()
		errStr = runErr.Error()
	default:
		s.mFailed.Inc()
		errStr = runErr.Error()
	}
	s.hDuration.Observe(uint64(durMS))
	settleActive()
	h.finish(completed, records, durMS, errStr)
	lw.emit(finishLine{
		Kind: "study_finish", ID: id, Points: n, Completed: completed,
		Records: records, DurationMS: durMS, Err: errStr,
	})
	s.logf("studyd: %s done (%d/%d points, %.1f ms, err=%q)", id, completed, n, durMS, errStr)
}

func specKindLabel(kind string) string {
	if kind == "" {
		return "grid"
	}
	return kind
}
