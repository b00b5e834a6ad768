package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"fabricpower/internal/studyd"
	"fabricpower/study"
)

// Thread budget of the served workload: two studies run at once, each
// on one sweep worker, fed by two closed-loop clients.
const (
	serveConcurrent = 2
	serveWorkers    = 1
	serveClients    = 2
)

// corpusEntry is one generated corpus spec with the records the server
// must stream for it, computed in-process during set-up.
type corpusEntry struct {
	*prepared
	expected [][]byte // ResultRecord JSON per point index
}

// expectedRecords runs the spec in-process and encodes every point's
// ResultRecord exactly as the server streams it.
func expectedRecords(p *prepared) ([][]byte, error) {
	sr := runStudy(context.Background(), p, serveWorkers, false, nil)
	if sr.err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, sr.err)
	}
	if _, err := checkGrid(sr.gr, ""); err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	return encodeRecords(sr.gr)
}

func encodeRecords(gr *study.GridResult) ([][]byte, error) {
	out := make([][]byte, len(gr.Points))
	for i, pt := range gr.Points {
		b, err := json.Marshal(study.ResultRecord{Index: i, Scenario: pt.Scenario, Result: pt.Result})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// server is an in-process studyd behind a loopback listener.
type server struct {
	sd   *studyd.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		sd:   studyd.New(studyd.Config{MaxConcurrent: serveConcurrent, Workers: serveWorkers}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	s.hs = &http.Server{Handler: s.sd.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// stop drains the server and waits for its serving goroutine to exit.
func (s *server) stop() {
	s.sd.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
}

// streamStats is one submitted study as its client saw it. Times are
// measured from the moment the POST was sent.
type streamStats struct {
	entry                   int
	sent                    time.Time
	status                  int
	startFrame, firstRecord time.Duration
	finish                  time.Duration
	startSeen, finishSeen   bool
	bytes                   int64
	records, mismatched     int
	completed               int
	finishErr               string
	err                     error
	// program is the request's execution profile (the stream's trace
	// frame) when the request asked for one and the caller keeps it.
	program []byte
}

// ok reports whether the study completed with every record correct.
func (st *streamStats) ok(points int) bool {
	return st.err == nil && st.status == http.StatusOK && st.finishSeen && st.finishErr == "" &&
		st.completed == points && st.records == points && st.mismatched == 0
}

// failure names why a study failed, for the report.
func (st *streamStats) failure(points int) string {
	switch {
	case st.err != nil:
		return st.err.Error()
	case st.status != http.StatusOK:
		return fmt.Sprintf("HTTP %d", st.status)
	case !st.finishSeen:
		return "stream ended without study_finish"
	case st.finishErr != "":
		return "study error: " + st.finishErr
	case st.mismatched > 0:
		return fmt.Sprintf("%d records differ from the in-process run", st.mismatched)
	}
	return fmt.Sprintf("%d of %d records, %d of %d points completed", st.records, points, st.completed, points)
}

// readStream consumes one NDJSON study stream, timing its frames and
// comparing every ResultRecord line against expected.
func readStream(body io.Reader, sent time.Time, expected [][]byte, keepTrace bool, st *streamStats) {
	br := bufio.NewReaderSize(body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		st.bytes += int64(len(line))
		if len(line) > 0 && line[len(line)-1] == '\n' {
			at := time.Since(sent)
			line = line[:len(line)-1]
			// ResultRecord lines lead with their index; every other line
			// is a framing or progress line carrying a kind.
			if !bytes.HasPrefix(line, []byte(`{"index":`)) {
				var fr struct {
					Kind      string          `json:"kind"`
					Completed int             `json:"completed"`
					Err       string          `json:"err"`
					Trace     json.RawMessage `json:"trace"`
				}
				if jerr := json.Unmarshal(line, &fr); jerr != nil {
					st.err = fmt.Errorf("bad frame: %w", jerr)
					return
				}
				switch fr.Kind {
				case "study_start":
					st.startSeen, st.startFrame = true, at
				case "study_finish":
					st.finishSeen, st.finish = true, at
					st.completed, st.finishErr = fr.Completed, fr.Err
				case "trace":
					if keepTrace {
						st.program = fr.Trace
					}
				}
			} else {
				var rec struct {
					Index int `json:"index"`
				}
				if jerr := json.Unmarshal(line, &rec); jerr != nil {
					st.err = fmt.Errorf("bad record: %w", jerr)
					return
				}
				if st.records == 0 {
					st.firstRecord = at
				}
				st.records++
				if rec.Index < 0 || rec.Index >= len(expected) || !bytes.Equal(line, expected[rec.Index]) {
					st.mismatched++
				}
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				st.err = err
			}
			return
		}
	}
}

// submit POSTs one spec and reads its stream to the end.
func submit(client *http.Client, url string, e *corpusEntry, query string, keepTrace bool) streamStats {
	st := streamStats{sent: time.Now()}
	resp, err := client.Post(url+"/v1/studies"+query, "application/json", bytes.NewReader(e.body))
	if err != nil {
		st.err = err
		return st
	}
	defer resp.Body.Close()
	st.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return st
	}
	readStream(resp.Body, st.sent, e.expected, keepTrace, &st)
	return st
}

// clientLoop runs serveClients closed-loop clients for d (each submits
// the corpus in its own seed-shuffled order, next study after the last
// one's stream ends) and returns every study, the loop's wall time and
// its unstolen share (see unstolenShare). With spans set, each request
// becomes a span tree.
func clientLoop(srv *server, entries []*corpusEntry, seed int64, d time.Duration, query string,
	spans *spanRecorder, parent int) ([]streamStats, time.Duration, float64) {
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	var mu sync.Mutex
	var all []streamStats
	var wg sync.WaitGroup
	steal0 := hostSteal()
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
			for n := 0; ; {
				for _, i := range rng.Perm(len(entries)) {
					if time.Since(start) >= d {
						return
					}
					st := submit(client, srv.url, entries[i], query, spans != nil && c == 0 && n == 0)
					st.entry = i
					recordRequest(spans, parent, c, int64(c)<<32|int64(n), &st)
					n++
					mu.Lock()
					all = append(all, st)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	return all, wall, unstolenShare(wall, hostSteal()-steal0)
}

// recordRequest turns one request's client-side timestamps into spans:
// the request, its admission wait and its result stream.
func recordRequest(spans *spanRecorder, parent, client int, key int64, st *streamStats) {
	if spans == nil {
		return
	}
	lane := 1 + client
	end := st.sent.Add(st.finish)
	if !st.finishSeen {
		end = time.Now()
	}
	req := spans.add("studyd.request", parent, lane, key, st.sent, end)
	if st.startSeen {
		spans.add("studyd.queue_wait", req, lane, key, st.sent, st.sent.Add(st.startFrame))
		if st.finishSeen {
			spans.add("studyd.stream", req, lane, key, st.sent.Add(st.startFrame), end)
		}
	}
}

// serveSetup is what the served workload prepares before timing.
type serveSetup struct {
	o       options
	entries []*corpusEntry
	srv     *server
	times   []float64 // every set-up repetition, seconds
}

// serveSetupReps is how many times the served workload sets up before
// and again after its timed loop; each repetition runs the corpus
// twice, so there are fewer than a batch workload's.
const serveSetupReps = 3

// once generates the corpus specs, computes their expected records
// in-process, boots a server and makes one untimed warm-up pass over
// the corpus. The new server replaces (and stops) the previous one.
func (ss *serveSetup) once() error {
	t := time.Now()
	names, bodies, err := corpusSpecs(root, ss.o.seed)
	if err != nil {
		return err
	}
	var entries []*corpusEntry
	for i, b := range bodies {
		p, err := prepare(names[i], b)
		if err != nil {
			return err
		}
		exp, err := expectedRecords(p)
		if err != nil {
			return err
		}
		entries = append(entries, &corpusEntry{prepared: p, expected: exp})
	}
	srv, err := startServer()
	if err != nil {
		return err
	}
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	for _, e := range entries {
		if st := submit(client, srv.url, e, "", false); !st.ok(len(e.points)) {
			srv.stop()
			return fmt.Errorf("warm-up %s: %s", e.name, st.failure(len(e.points)))
		}
	}
	ss.times = append(ss.times, time.Since(t).Seconds())
	if ss.srv != nil {
		ss.srv.stop()
	}
	ss.entries, ss.srv = entries, srv
	return nil
}

// reps runs the set-up n more times.
func (ss *serveSetup) reps(n int) error {
	for i := 0; i < n; i++ {
		if err := ss.once(); err != nil {
			return err
		}
	}
	return nil
}

// setupS is setup_s: main-package initialization to main plus the
// median set-up repetition.
func (ss *serveSetup) setupS() float64 { return initS + median(ss.times) }

func setupServe(o options) (*serveSetup, error) {
	ss := &serveSetup{o: o}
	if err := ss.reps(serveSetupReps); err != nil {
		if ss.srv != nil {
			ss.srv.stop()
		}
		return nil, err
	}
	return ss, nil
}

// serveSummary is a client loop's outcome.
type serveSummary struct {
	attempted, failed int
	// Latencies, steal-adjusted: scaled by the loop's unstolen share.
	reqMS, firstMS []float64
	// Request and first-record latencies by corpus entry.
	perSpecMS, perSpecFirst [][]float64
	nodeSlots               float64
	wall                    time.Duration
	share                   float64 // the loop's unstolen share
	fails                   []string
}

func summarize(entries []*corpusEntry, all []streamStats, wall time.Duration, share float64) serveSummary {
	s := serveSummary{attempted: len(all), wall: wall, share: share,
		perSpecMS: make([][]float64, len(entries)), perSpecFirst: make([][]float64, len(entries))}
	for i := range all {
		st := &all[i]
		e := entries[st.entry]
		if !st.ok(len(e.points)) {
			s.failed++
			s.fails = append(s.fails, e.name+": "+st.failure(len(e.points)))
			continue
		}
		req, first := ms(st.finish)*share, ms(st.firstRecord)*share
		s.reqMS = append(s.reqMS, req)
		s.perSpecMS[st.entry] = append(s.perSpecMS[st.entry], req)
		s.perSpecFirst[st.entry] = append(s.perSpecFirst[st.entry], first)
		s.firstMS = append(s.firstMS, first)
		s.nodeSlots += e.nodeSlots
	}
	return s
}

// unstolenS is the loop's wall time less its stolen share, seconds.
func (s serveSummary) unstolenS() float64 { return s.wall.Seconds() * s.share }

func (s serveSummary) studiesPerS() float64 {
	return float64(len(s.reqMS)) / s.unstolenS()
}

// runServe is the untraced end-to-end run of serve-corpus.
func runServe(w io.Writer, o options) (*outcome, error) {
	ss, err := setupServe(o)
	if err != nil {
		return nil, err
	}
	defer func() { ss.srv.stop() }()
	rss := startRSSWindows()
	before := readRuntime()
	all, wall, share := clientLoop(ss.srv, ss.entries, o.seed, secondsDur(o.seconds), "", nil, 0)
	rt := readRuntime().sub(before)
	rssMiB, rssN := rss.finish()
	s := summarize(ss.entries, all, wall, share)
	// Setting up again after the loop spreads the set-up samples over
	// the run instead of its first second.
	if err := ss.reps(serveSetupReps); err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"setup_s":              ss.setupS(),
		"node_slots_per_s":     s.nodeSlots / s.unstolenS(),
		"allocs_per_node_slot": float64(rt.allocs) / s.nodeSlots,
		"peak_rss_mb":          rssMiB,
		"request_ms_p50":       geoMeanOfMedians(s.perSpecMS),
		"request_ms_p95":       quantile(s.reqMS, tailQ(len(s.reqMS))),
		"first_record_ms_p50":  geoMeanOfMedians(s.perSpecFirst),
		"studies_per_s":        s.studiesPerS(),
	}
	printServeSizes(w, ss.entries, s)
	notes := map[string]string{
		"request_ms_p50": fmt.Sprintf("geometric mean of %d per-spec medians, n=%d studies, POST sent to study_finish read (pooled median %.4g)",
			len(ss.entries), len(s.reqMS), median(s.reqMS)),
		"request_ms_p95":      tailNote(len(s.reqMS)),
		"peak_rss_mb":         fmt.Sprintf("median of %d %v windows", rssN, rssWindow),
		"first_record_ms_p50": fmt.Sprintf("geometric mean of per-spec medians, POST sent to first ResultRecord read (pooled median %.4g)", median(s.firstMS)),
		"setup_s":             fmt.Sprintf("median of %d set-ups plus %.6fs main-package init to main", len(ss.times), initS),
	}
	fmt.Fprintln(w, "end-to-end:")
	printMetrics(w, endToEnd, vals, notes)
	m, err := metricsFrom(endToEnd, vals)
	if err != nil {
		return nil, err
	}
	return &outcome{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}, nil
}

func printServeSizes(w io.Writer, entries []*corpusEntry, s serveSummary) {
	points := 0
	slots := 0.0
	for _, e := range entries {
		points += len(e.points)
		slots += e.nodeSlots
	}
	fmt.Fprintf(w, "size corpus_specs=%d points/pass=%d node_slots/pass=%.0f clients=%d max_concurrent=%d workers/study=%d\n",
		len(entries), points, slots, serveClients, serveConcurrent, serveWorkers)
	fmt.Fprintf(w, "size studies_attempted=%d studies_completed=%d node_slots_completed=%.0f wall_s=%.3f unstolen_share=%.4f\n",
		s.attempted, len(s.reqMS), s.nodeSlots, s.wall.Seconds(), s.share)
	fmt.Fprintf(w, "failed_frac=%g (%d of %d studies)\n", float64(s.failed)/float64(max(s.attempted, 1)), s.failed, s.attempted)
	for i, e := range entries {
		fmt.Fprintf(w, "spec %-20s points=%-3d node_slots=%-7.0f request_ms_p50=%.2f (n=%d)\n",
			e.name, len(e.points), e.nodeSlots, median(s.perSpecMS[i]), len(s.perSpecMS[i]))
	}
	for _, f := range s.fails {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
