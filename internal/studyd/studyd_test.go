package studyd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fabricpower/internal/studyd"
	"fabricpower/internal/telemetry"
	"fabricpower/study"
)

// newTestServer boots a studyd instance behind httptest with its own
// metric registry, torn down with the test.
func newTestServer(t *testing.T, cfg studyd.Config) (*studyd.Server, *httptest.Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg.Registry = reg
	s := studyd.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Stop()
		ts.Close()
	})
	return s, ts, reg
}

// localRecords is the reference output: DecodeSpec + Grid.Run +
// WriteResultRecords, exactly what `fabricpower run -json` prints.
func localRecords(t *testing.T, specJSON string, workers int) []byte {
	t.Helper()
	spec, err := study.DecodeSpec(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	gr, err := spec.Grid.Run(context.Background(), study.RunOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := study.WriteResultRecords(&buf, gr.Points); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// submit streams specJSON through the server and returns the record
// bytes plus the stream summary.
func submit(t *testing.T, url, specJSON string, opt studyd.SubmitOptions) ([]byte, *studyd.SubmitResult) {
	t.Helper()
	var buf bytes.Buffer
	res, err := studyd.Submit(context.Background(), nil, url, strings.NewReader(specJSON), opt, studyd.SubmitSinks{Records: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteErr != "" {
		t.Fatalf("server-side error: %s", res.RemoteErr)
	}
	return buf.Bytes(), res
}

const quickSpec = `{
  "version": 1,
  "base": {
    "fabric": {"arch": "crossbar", "ports": 8},
    "sim": {"warmupSlots": 60, "measureSlots": 300, "seed": 11}
  },
  "axes": [
    {"name": "arch", "strings": ["crossbar", "banyan"]},
    {"name": "load", "floats": [0.1, 0.3]}
  ]
}`

// bigSpec sweeps enough points (40) that a cancellation mid-stream
// always lands strictly inside the grid.
const bigSpec = `{
  "version": 1,
  "base": {
    "fabric": {"arch": "crossbar", "ports": 8},
    "traffic": {"load": 0.3},
    "sim": {"warmupSlots": 200, "measureSlots": 3000, "seed": 1}
  },
  "axes": [
    {"name": "seed", "ints": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,
                              21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40]}
  ]
}`

// TestStreamByteEquivalence: the acceptance gate — golden scenario
// specs submitted over HTTP stream records byte-identical to
// `fabricpower run -json`, for sequential and parallel server sweeps
// (the client restores enumeration order).
func TestStreamByteEquivalence(t *testing.T) {
	_, ts, _ := newTestServer(t, studyd.Config{})
	goldens := []string{
		filepath.Join("..", "..", "scenarios", "fig10-quick.json"),
		filepath.Join("..", "..", "scenarios", "voq-dvfs-grid.json"),
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		specJSON := string(data)
		want := localRecords(t, specJSON, 1)
		if len(want) == 0 {
			t.Fatalf("%s: reference run produced no records", path)
		}
		for _, workers := range []int{1, 3} {
			got, res := submit(t, ts.URL, specJSON, studyd.SubmitOptions{Workers: workers})
			if !bytes.Equal(got, want) {
				t.Errorf("%s workers=%d: streamed records differ from run -json (%d vs %d bytes)",
					filepath.Base(path), workers, len(got), len(want))
			}
			if res.Completed != res.Points || res.Records != res.Points {
				t.Errorf("%s workers=%d: completed %d, records %d, want %d",
					filepath.Base(path), workers, res.Completed, res.Records, res.Points)
			}
		}
	}
}

// TestClientDisconnectCancels: dropping the connection mid-stream
// cancels the underlying Grid.Run — the study lands "done" with a
// strict subset of its points and a cancellation error.
func TestClientDisconnectCancels(t *testing.T) {
	_, ts, _ := newTestServer(t, studyd.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := 0
	var id string
	_, err := studyd.Submit(ctx, nil, ts.URL, strings.NewReader(bigSpec), studyd.SubmitOptions{Workers: 1},
		studyd.SubmitSinks{
			Records: writerFunc(func(p []byte) (int, error) {
				if got++; got == 1 {
					cancel() // first record in hand: hang up
				}
				return len(p), nil
			}),
			Events: func(line []byte) {
				var probe struct {
					Kind string `json:"kind"`
					ID   string `json:"id"`
				}
				if json.Unmarshal(line, &probe) == nil && probe.Kind == "study_start" {
					id = probe.ID
				}
			},
		})
	if err == nil {
		t.Fatal("an interrupted stream must return an error")
	}
	if id == "" {
		t.Fatal("never saw the study_start line")
	}

	st := waitDone(t, ts.URL, id, 10*time.Second)
	if st.Err == "" {
		t.Errorf("disconnected study finished without an error: %+v", st)
	}
	if st.Completed == 0 || st.Completed >= st.Points {
		t.Errorf("disconnect should leave a strict subset of points, got %d/%d", st.Completed, st.Points)
	}
}

// TestDeleteCancelsRunning: DELETE /v1/studies/{id} stops a running
// sweep; the stream still completes cleanly (records so far, then a
// study_finish carrying the cancellation).
func TestDeleteCancelsRunning(t *testing.T) {
	_, ts, _ := newTestServer(t, studyd.Config{})
	firstRecord := make(chan string, 1)
	type outcome struct {
		res *studyd.SubmitResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		var id string
		got := 0
		res, err := studyd.Submit(context.Background(), nil, ts.URL, strings.NewReader(bigSpec),
			studyd.SubmitOptions{Workers: 1}, studyd.SubmitSinks{
				Records: writerFunc(func(p []byte) (int, error) {
					if got++; got == 1 {
						firstRecord <- id
					}
					return len(p), nil
				}),
				Events: func(line []byte) {
					var probe struct {
						Kind string `json:"kind"`
						ID   string `json:"id"`
					}
					if json.Unmarshal(line, &probe) == nil && probe.Kind == "study_start" {
						id = probe.ID
					}
				},
			})
		done <- outcome{res, err}
	}()

	var id string
	select {
	case id = <-firstRecord:
	case <-time.After(10 * time.Second):
		t.Fatal("no record within 10s")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/studies/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d, want 200", resp.StatusCode)
	}

	var out outcome
	select {
	case out = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not finish after DELETE")
	}
	if out.err != nil {
		t.Fatalf("a DELETE-cancelled stream should still finish cleanly, got %v", out.err)
	}
	if out.res.RemoteErr == "" {
		t.Errorf("cancelled study reported no error: %+v", out.res)
	}
	if out.res.Completed >= out.res.Points {
		t.Errorf("DELETE did not stop the sweep: %d/%d points", out.res.Completed, out.res.Points)
	}
}

// gate blocks every study using the "studyd-test-gate" traffic kind
// until released — how the backpressure tests hold a slot occupied.
var gate = struct {
	once sync.Once
	mu   sync.Mutex
	ch   chan struct{}
}{}

func gateReset() chan struct{} {
	gate.once.Do(func() {
		study.RegisterTraffic("studyd-test-gate", func(spec study.TrafficSpec, ports int, seed int64) (study.TrafficSource, error) {
			gate.mu.Lock()
			ch := gate.ch
			gate.mu.Unlock()
			return gateSource{ch: ch}, nil
		})
	})
	ch := make(chan struct{})
	gate.mu.Lock()
	gate.ch = ch
	gate.mu.Unlock()
	return ch
}

type gateSource struct{ ch chan struct{} }

func (g gateSource) Cells(slot uint64, emit func(study.Injection)) {
	if g.ch != nil {
		<-g.ch
	}
}

const gatedSpec = `{
  "version": 1,
  "base": {
    "fabric": {"arch": "crossbar", "ports": 4},
    "traffic": {"kind": "studyd-test-gate"},
    "sim": {"warmupSlots": 5, "measureSlots": 20, "seed": 1}
  }
}`

// waitActive polls /healthz until the server reports n running studies.
func waitActive(t *testing.T, url string, n int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Active int64 `json:"active"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err == nil && h.Active == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never reached %d active studies", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitDone polls GET /v1/studies/{id} until the study reaches "done".
func waitDone(t *testing.T, url, id string, timeout time.Duration) studyd.StudyStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url + "/v1/studies/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st studyd.StudyStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil && st.State == "done" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("study %s never reached done (last: %+v)", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueueFull429: past MaxConcurrent+MaxQueue the server refuses with
// 429 and a Retry-After estimate instead of stacking work.
func TestQueueFull429(t *testing.T) {
	release := gateReset()
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	_, ts, reg := newTestServer(t, studyd.Config{MaxConcurrent: 1, MaxQueue: -1})

	type outcome struct {
		res *studyd.SubmitResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := studyd.Submit(context.Background(), nil, ts.URL,
			strings.NewReader(gatedSpec), studyd.SubmitOptions{Workers: 1}, studyd.SubmitSinks{})
		done <- outcome{res, err}
	}()
	waitActive(t, ts.URL, 1, 10*time.Second)

	resp, err := http.Post(ts.URL+"/v1/studies", "application/json", strings.NewReader(quickSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if n := reg.Counter("studyd.rejected").Load(); n != 1 {
		t.Errorf("studyd.rejected = %d, want 1", n)
	}

	close(release)
	released = true
	out := <-done
	if out.err != nil {
		t.Fatalf("gated study failed after release: %v", out.err)
	}
	if out.res.RemoteErr != "" || out.res.Completed != 1 {
		t.Errorf("gated study should complete once released: %+v", out.res)
	}
}

// TestDeleteWhileQueued: a study cancelled before it ever gets a slot
// answers its waiting POST with 410 Gone.
func TestDeleteWhileQueued(t *testing.T) {
	release := gateReset()
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	_, ts, _ := newTestServer(t, studyd.Config{MaxConcurrent: 1, MaxQueue: 1})

	runnerDone := make(chan error, 1)
	go func() {
		res, err := studyd.Submit(context.Background(), nil, ts.URL,
			strings.NewReader(gatedSpec), studyd.SubmitOptions{Workers: 1}, studyd.SubmitSinks{})
		if err == nil && res.RemoteErr != "" {
			err = fmt.Errorf("server: %s", res.RemoteErr)
		}
		runnerDone <- err
	}()
	waitActive(t, ts.URL, 1, 10*time.Second)

	queuedDone := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/studies", "application/json", strings.NewReader(quickSpec))
		if err != nil {
			queuedDone <- nil
			return
		}
		queuedDone <- resp
	}()

	// Find the queued study's id off the listing.
	var queuedID string
	deadline := time.Now().Add(10 * time.Second)
	for queuedID == "" {
		if time.Now().After(deadline) {
			t.Fatal("never saw a queued study in the listing")
		}
		resp, err := http.Get(ts.URL + "/v1/studies")
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Studies []studyd.StudyStatus `json:"studies"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err == nil {
			for _, st := range list.Studies {
				if st.State == "queued" {
					queuedID = st.ID
				}
			}
		}
		if queuedID == "" {
			time.Sleep(5 * time.Millisecond)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/studies/"+queuedID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	select {
	case resp := <-queuedDone:
		if resp == nil {
			t.Fatal("queued POST failed at the transport")
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGone {
			t.Errorf("queued-then-cancelled POST status = %d, want 410", resp.StatusCode)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued POST never returned after DELETE")
	}

	close(release)
	released = true
	if err := <-runnerDone; err != nil {
		t.Fatalf("gated study failed after release: %v", err)
	}
}

// TestBadRequests: malformed input fails fast with 400s, before any
// queue residency.
func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, studyd.Config{})
	cases := []struct {
		name, url, body string
		want            int
	}{
		{"malformed json", "/v1/studies", `{"version": 1, "base": {`, http.StatusBadRequest},
		{"unknown field", "/v1/studies", `{"version": 1, "base": {"frabric": {}}}`, http.StatusBadRequest},
		{"bad version", "/v1/studies", `{"version": 99, "base": {}}`, http.StatusBadRequest},
		{"table1 kind", "/v1/studies", `{"version": 1, "study": "table1", "base": {"char": {}}}`, http.StatusBadRequest},
		{"bad workers", "/v1/studies?workers=-2", quickSpec, http.StatusBadRequest},
		{"bad telemetry", "/v1/studies?telemetry=maybe", quickSpec, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/studies/no-such-study")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown study GET status = %d, want 404", resp.StatusCode)
	}
}

// TestStopRefusesNewWork: after Stop the server answers POSTs with 503
// — the serve subcommand's drain sequence relies on this.
func TestStopRefusesNewWork(t *testing.T) {
	s, ts, _ := newTestServer(t, studyd.Config{})
	s.Stop()
	resp, err := http.Post(ts.URL+"/v1/studies", "application/json", strings.NewReader(quickSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST after Stop = %d, want 503", resp.StatusCode)
	}
}

// TestServerMetrics: the studyd.* metrics land on the configured
// registry, so -metrics snapshots and expvar cover the server.
func TestServerMetrics(t *testing.T) {
	_, ts, reg := newTestServer(t, studyd.Config{})
	_, res := submit(t, ts.URL, quickSpec, studyd.SubmitOptions{})
	if res.Completed != res.Points {
		t.Fatalf("study incomplete: %+v", res)
	}
	if n := reg.Counter("studyd.requests").Load(); n != 1 {
		t.Errorf("studyd.requests = %d, want 1", n)
	}
	if n := reg.Counter("studyd.completed").Load(); n != 1 {
		t.Errorf("studyd.completed = %d, want 1", n)
	}
	if n := reg.Counter("studyd.records").Load(); n != uint64(res.Points) {
		t.Errorf("studyd.records = %d, want %d", n, res.Points)
	}
	if n := reg.Gauge("studyd.active").Load(); n != 0 {
		t.Errorf("studyd.active = %d after the study finished, want 0", n)
	}
	if reg.Histogram("studyd.request_ms", 24).Total() == 0 {
		t.Errorf("studyd.request_ms histogram never observed the request")
	}
}

// TestTelemetryAndTraceStream: ?telemetry=1 interleaves point-tagged
// kernel samples and ?trace=1 appends the request's execution profile,
// without perturbing the record bytes.
func TestTelemetryAndTraceStream(t *testing.T) {
	_, ts, _ := newTestServer(t, studyd.Config{})
	want := localRecords(t, quickSpec, 1)

	var records, tel, traceBuf bytes.Buffer
	res, err := studyd.Submit(context.Background(), nil, ts.URL, strings.NewReader(quickSpec),
		studyd.SubmitOptions{Workers: 1, Telemetry: true, TSample: 50, Trace: true},
		studyd.SubmitSinks{Records: &records, Telemetry: &tel, Trace: &traceBuf})
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteErr != "" {
		t.Fatalf("server-side error: %s", res.RemoteErr)
	}
	if !bytes.Equal(records.Bytes(), want) {
		t.Errorf("telemetry/trace options changed the record bytes")
	}
	if tel.Len() == 0 {
		t.Errorf("no telemetry lines on the stream")
	}
	for i, line := range strings.Split(strings.TrimSpace(tel.String()), "\n") {
		var sample struct {
			Point *int `json:"point"`
		}
		if err := json.Unmarshal([]byte(line), &sample); err != nil || sample.Point == nil {
			t.Fatalf("telemetry line %d is not point-tagged: %s", i, line)
		}
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceBuf.Bytes(), &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("trace sink did not receive a Chrome trace document (err=%v)", err)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
