package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"fabricpower/internal/telemetry"
	"fabricpower/internal/telemetry/trace"
	"fabricpower/study"
)

// batchSetup is what a batch run prepares before its first timed
// study: the workload's spec generated, decoded and enumerated, every
// point's model built, and the seed's pinned digest looked up.
type batchSetup struct {
	o      options
	w      workload
	p      *prepared
	pinned string    // pinned result digest for the seed ("" if none)
	times  []float64 // every set-up repetition, seconds
	err    error     // first failed repetition
}

// once runs the set-up one more time and records how long it took.
func (bs *batchSetup) once() {
	t := time.Now()
	body, err := encodeSpec(bs.w.spec(bs.o.seed))
	if err == nil {
		bs.p, err = prepare(bs.w.name, body)
	}
	if err == nil {
		bs.pinned, err = pinnedDigest(digestsJSON, bs.w.name, bs.o.seed)
	}
	if err != nil && bs.err == nil {
		bs.err = err
	}
	bs.times = append(bs.times, time.Since(t).Seconds())
}

// setupS is setup_s: main-package initialization to main plus the
// median set-up repetition.
func (bs *batchSetup) setupS() float64 { return initS + median(bs.times) }

// setupBatch sets a batch workload up setupReps times. Runs repeat it
// once more after every study, outside the timed region, so the median
// samples the host across the whole run rather than its first
// milliseconds.
func setupBatch(o options, w workload) (*batchSetup, error) {
	bs := &batchSetup{o: o, w: w}
	for i := 0; i < setupReps && bs.err == nil; i++ {
		bs.once()
	}
	return bs, bs.err
}

// studyRun is one timed Grid.Run of a batch spec.
type studyRun struct {
	startAt    time.Time
	dur, first time.Duration
	steal      time.Duration // host steal time over the Grid.Run, all CPUs
	rt         rtSnap        // runtime counter deltas over the Grid.Run
	gr         *study.GridResult
	infos      []study.PointInfo
	events     []pointEvent
	err        error
	// program is the program-side profile of a traced study (Chrome
	// trace JSON), recorded by a trace.Recorder created at programAt.
	program   []byte
	programAt time.Time
}

// unstolen is the study's unstolen share (see unstolenShare).
func (sr *studyRun) unstolen() float64 { return unstolenShare(sr.dur, sr.steal) }

// pointEvent is a sweep progress event with the benchmark's own
// timestamp, for the traced run's sweep metrics and point spans.
type pointEvent struct {
	ev study.Event
	at time.Duration // since the study started
}

// runStudy executes the spec once. With traced set it records the
// sweep's progress events and attaches the program's profiler.
func runStudy(ctx context.Context, p *prepared, workers int, traced bool, rec *trace.Recorder) studyRun {
	var sr studyRun
	var mu sync.Mutex
	var start time.Time
	opt := study.RunOptions{
		Workers: workers,
		OnPoint: func(i, total int, sc study.Scenario, r study.Result, info study.PointInfo) {
			mu.Lock()
			if sr.first == 0 {
				sr.first = time.Since(start)
			}
			sr.infos = append(sr.infos, info)
			mu.Unlock()
		},
		Trace: rec,
	}
	if traced {
		opt.OnEvent = func(ev study.Event) {
			at := time.Since(start)
			mu.Lock()
			sr.events = append(sr.events, pointEvent{ev, at})
			mu.Unlock()
		}
	}
	before := readRuntime()
	steal0 := hostSteal()
	start = time.Now()
	sr.startAt = start
	sr.gr, sr.err = p.spec.Grid.Run(ctx, opt)
	sr.dur = time.Since(start)
	sr.steal = hostSteal() - steal0
	sr.rt = readRuntime().sub(before)
	return sr
}

// batchLoop is the outcome of loopBatch.
type batchLoop struct {
	runs   []studyRun
	ok     []bool
	failed int // failed points
	digest string
	errs   []string
	rssMiB float64 // median windowed peak RSS over the loop
	rssN   int     // windows behind rssMiB
	rawMS  float64 // median correct study's wall time, not steal-adjusted
}

// loopBatch repeats the study until seconds have passed (at least
// once), checking every result. want is the pinned digest, or "" to
// pin the first study's digest and hold the rest to it. Each study
// starts from a collected heap, as a fresh `fabricpower run` process
// does, so one study's garbage does not tax the next one's first
// points. between, when non-nil, runs after every study, outside the
// timed region.
func loopBatch(p *prepared, workers int, seconds float64, want string, traced bool, between func()) *batchLoop {
	bl := &batchLoop{digest: want}
	ctx := context.Background()
	rss := startRSSWindows()
	start := time.Now()
	for len(bl.runs) == 0 || time.Since(start).Seconds() < seconds {
		var rec *trace.Recorder
		var recAt time.Time
		if traced && len(bl.runs) == 0 {
			recAt = time.Now()
			rec = trace.NewRecorder(0)
		}
		runtime.GC()
		sr := runStudy(ctx, p, workers, traced, rec)
		if rec != nil {
			var buf bytes.Buffer
			if rec.WriteJSON(&buf) == nil {
				sr.program, sr.programAt = buf.Bytes(), recAt
			}
		}
		ok := sr.err == nil
		if ok {
			got, err := checkGrid(sr.gr, bl.digest)
			if err != nil {
				ok = false
				sr.err = err
			} else if bl.digest == "" {
				bl.digest = got
			}
		}
		if !ok {
			bl.failed += len(p.points)
			bl.errs = append(bl.errs, sr.err.Error())
		}
		bl.runs = append(bl.runs, sr)
		bl.ok = append(bl.ok, ok)
		if between != nil {
			between()
		}
	}
	bl.rssMiB, bl.rssN = rss.finish()
	return bl
}

// e2eMetrics derives the end-to-end metrics of a batch loop.
func (bl *batchLoop) e2eMetrics(p *prepared, setupS float64) (map[string]float64, int) {
	var durs, firsts, raw []float64
	correct := 0
	var allocs uint64
	for i, r := range bl.runs {
		allocs += r.rt.allocs
		if !bl.ok[i] {
			continue
		}
		correct++
		durs = append(durs, ms(r.dur)*r.unstolen())
		firsts = append(firsts, ms(r.first)*r.unstolen())
		raw = append(raw, ms(r.dur))
	}
	bl.rawMS = median(raw)
	vals := map[string]float64{
		"setup_s":              setupS,
		"peak_rss_mb":          bl.rssMiB,
		"allocs_per_node_slot": float64(allocs) / (float64(len(bl.runs)) * p.nodeSlots),
		"request_ms_p50":       median(durs),
		"request_ms_p95":       quantile(durs, tailQ(len(durs))),
		"first_record_ms_p50":  median(firsts),
	}
	if correct > 0 {
		// Every study of a batch workload is the same work, so its
		// rates follow the median study rather than the mean, which one
		// descheduled study would move.
		vals["node_slots_per_s"] = p.nodeSlots / (median(durs) / 1e3)
		vals["studies_per_s"] = 1e3 / median(durs)
	} else {
		vals["node_slots_per_s"], vals["studies_per_s"] = 0, 0
	}
	return vals, correct
}

// printSizes writes the workload's size, the base every ratio divides
// by.
func printSizes(w io.Writer, p *prepared, bl *batchLoop, correct int) {
	var offered, delivered float64
	var haveOffered bool
	if len(bl.runs) > 0 && bl.runs[0].gr != nil {
		for _, pt := range bl.runs[0].gr.Points {
			r := pt.Result
			if r.Net != nil {
				haveOffered = true
				offered += float64(r.Net.OfferedCells)
				delivered += float64(r.Net.DeliveredCells)
			} else {
				delivered += r.Throughput * float64(r.Ports) * float64(r.Slots)
			}
		}
	}
	fmt.Fprintf(w, "size points/study=%d node_slots/study=%.0f studies_attempted=%d studies_completed=%d points_attempted=%d points_failed=%d\n",
		len(p.points), p.nodeSlots, len(bl.runs), correct, len(bl.runs)*len(p.points), bl.failed)
	off := "n/a (single-router results carry no offered count)"
	if haveOffered {
		off = strconv.FormatFloat(offered, 'f', 0, 64)
	}
	fmt.Fprintf(w, "size measured_cells/study delivered=%.0f offered=%s\n", delivered, off)
	var samples []string
	for _, r := range bl.runs {
		samples = append(samples, strconv.FormatFloat(ms(r.dur), 'f', 1, 64))
	}
	fmt.Fprintf(w, "samples request_ms=[%s]\n", strings.Join(samples, " "))
	samples = samples[:0]
	for _, r := range bl.runs {
		samples = append(samples, strconv.FormatFloat(r.unstolen(), 'f', 3, 64))
	}
	fmt.Fprintf(w, "samples unstolen_share=[%s]\n", strings.Join(samples, " "))
	fmt.Fprintf(w, "oracle digest=%s\n", bl.digest)
	for _, e := range bl.errs {
		fmt.Fprintf(w, "FAIL %s\n", e)
	}
}

// runBatch is the untraced end-to-end run of a batch workload.
func runBatch(w io.Writer, o options, wl workload) (*outcome, error) {
	bs, err := setupBatch(o, wl)
	if err != nil {
		return nil, err
	}
	pinNote := "pinned"
	if bs.pinned == "" {
		pinNote = "none pinned for this seed: invariants plus repeat-identity"
	}
	fmt.Fprintf(w, "oracle expected=%s (%s)\n", orDash(bs.pinned), pinNote)
	bl := loopBatch(bs.p, wl.workers, o.seconds, bs.pinned, false, bs.once)
	if bs.err != nil {
		return nil, bs.err
	}
	vals, correct := bl.e2eMetrics(bs.p, bs.setupS())
	printSizes(w, bs.p, bl, correct)
	attempted := len(bl.runs) * len(bs.p.points)
	fmt.Fprintf(w, "failed_frac=%g (%d of %d points)\n", float64(bl.failed)/float64(attempted), bl.failed, attempted)
	notes := map[string]string{
		"request_ms_p50":      fmt.Sprintf("n=%d studies (one study = one Grid.Run of the spec), steal-adjusted; raw wall median %.6g ms", correct, bl.rawMS),
		"request_ms_p95":      tailNote(correct),
		"peak_rss_mb":         fmt.Sprintf("median of %d %v windows", bl.rssN, rssWindow),
		"first_record_ms_p50": fmt.Sprintf("n=%d studies", correct),
		"setup_s":             fmt.Sprintf("median of %d set-ups plus %.6fs main-package init to main", len(bs.times), initS),
	}
	fmt.Fprintln(w, "end-to-end:")
	printMetrics(w, endToEnd, vals, notes)
	m, err := metricsFrom(endToEnd, vals)
	if err != nil {
		return nil, err
	}
	return &outcome{Correct: bl.failed == 0, Attempted: attempted, Failed: bl.failed, Metrics: m}, nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// writeDigests runs every batch workload once per seed, sequentially
// and with one shard (unlike the timed configurations, so pinning
// also checks worker- and shard-count independence), and prints the
// digests as JSON.
func writeDigests(w io.Writer, seedList string) error {
	var seeds []int64
	for _, s := range strings.Split(seedList, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", s)
		}
		seeds = append(seeds, v)
	}
	var sb strings.Builder
	sb.WriteString("{\n")
	first := true
	for _, wl := range workloads {
		if wl.spec == nil {
			continue
		}
		if !first {
			sb.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(&sb, "  %q: {", wl.name)
		for i, seed := range seeds {
			spec := wl.spec(seed)
			if spec.Base.Network != nil {
				spec.Base.Network.Shards = 1
			}
			body, err := encodeSpec(spec)
			if err != nil {
				return err
			}
			p, err := prepare(wl.name, body)
			if err != nil {
				return err
			}
			sr := runStudy(context.Background(), p, 1, false, nil)
			if sr.err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, seed, sr.err)
			}
			d, err := checkGrid(sr.gr, "")
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
			}
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "\n    \"%d\": %q", seed, d)
			fmt.Fprintf(os.Stderr, "pinned %s seed %d\n", wl.name, seed)
		}
		sb.WriteString("\n  }")
	}
	sb.WriteString("\n}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// cacheRatio is hits ÷ (hits + misses) of a process-wide model cache,
// over the process's lifetime; lookups is the denominator.
func cacheRatio(prefix string) (ratio float64, lookups uint64) {
	reg := telemetry.Default()
	h, m := reg.Counter(prefix+".hits").Load(), reg.Counter(prefix+".misses").Load()
	if h+m == 0 {
		return 0, 0
	}
	return float64(h) / float64(h+m), h + m
}

// traceFile is where a traced run writes its Chrome trace.
func traceFile(o options) string {
	return filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
}
