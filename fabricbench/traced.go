package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"fabricpower/internal/telemetry"
	"fabricpower/study"
)

// traced carries the state every traced run shares: the benchmark's
// spans, the probe accumulator and the per-layer values.
type traced struct {
	o     options
	spans *spanRecorder
	root  int
	acc   layerAcc
	vals  map[string]float64
	notes map[string]string
	// Correctness over everything the traced run executed.
	attempted, failed int
	fails             []string
}

func newTraced(o options) *traced {
	t := &traced{o: o, spans: newSpanRecorder(), vals: map[string]float64{}, notes: map[string]string{}}
	t.spans.nameLane(0, "benchmark")
	t.spans.nameLane(probeLane, "layer probes")
	t.root = t.spans.open("bench."+o.workload, 0, 0, -1)
	t.acc.clock = clockCost() / 2
	return t
}

// sweepMetrics derives the sweep and per-point metrics from traced
// studies and records their point spans.
func (t *traced) sweepMetrics(runs []studyRun, workers int, parent int) {
	var busy, tails, p50s, maxes []float64
	for r, sr := range runs {
		if sr.gr == nil {
			continue
		}
		begin := sr.startAt
		gid := t.spans.add("study.grid_run", parent, 0, int64(r), begin, begin.Add(sr.dur))
		open := map[int]time.Duration{}
		lastStart, idleAt := time.Duration(-1), time.Duration(-1)
		for _, pe := range sr.events {
			switch pe.ev.Kind {
			case "point_start":
				open[pe.ev.Index] = pe.at
				lastStart = pe.at
				idleAt = -1
			case "point_finish":
				lane := 1 + pe.ev.Worker
				t.spans.nameLane(lane, "sweep worker "+strconv.Itoa(pe.ev.Worker))
				t.spans.add("study.point", gid, lane, int64(pe.ev.Index), begin.Add(open[pe.ev.Index]), begin.Add(pe.at))
				if lastStart >= 0 && idleAt < 0 && pe.at >= lastStart {
					idleAt = pe.at
				}
			}
		}
		// The tail runs from the first moment a worker found no point
		// left (its first finish after the last point started) to the
		// grid run's return.
		if idleAt >= 0 {
			tails = append(tails, ms(sr.dur-idleAt))
		}
		var pts []float64
		var sum time.Duration
		for _, in := range sr.infos {
			pts = append(pts, ms(in.Duration))
			sum += in.Duration
		}
		busy = append(busy, float64(sum)/(float64(workers)*float64(sr.dur)))
		p50s = append(p50s, median(pts))
		maxes = append(maxes, quantile(pts, 1))
	}
	t.vals["sweep.busy_frac"] = median(busy)
	t.vals["sweep.tail_ms"] = median(tails)
	t.vals["study.point_ms_p50"] = median(p50s)
	t.vals["study.point_ms_max"] = median(maxes)
	t.notes["sweep.busy_frac"] = fmt.Sprintf("median of %d traced studies, %d workers", len(busy), workers)
	t.notes["study.point_ms_max"] = "median over traced studies of the slowest point"
}

// codecMetrics times the spec decoder and the result-record encoder.
func (t *traced) codecMetrics(bodies [][]byte, grs []*study.GridResult) error {
	id := t.spans.open("study.decode", t.root, 0, -1)
	var dec []float64
	for rep := 0; rep < 20; rep++ {
		for _, b := range bodies {
			s := time.Now()
			if _, err := study.DecodeSpec(bytes.NewReader(b)); err != nil {
				return err
			}
			dec = append(dec, float64(time.Since(s))/1e3)
		}
	}
	t.spans.close(id)
	id = t.spans.open("study.encode", t.root, 0, -1)
	var enc []float64
	var buf bytes.Buffer
	for rep := 0; rep < 10; rep++ {
		for _, gr := range grs {
			buf.Reset()
			s := time.Now()
			if err := study.WriteResultRecords(&buf, gr.Points); err != nil {
				return err
			}
			enc = append(enc, float64(time.Since(s))/1e3/float64(len(gr.Points)))
		}
	}
	t.spans.close(id)
	t.vals["study.decode_us"] = median(dec)
	t.vals["study.encode_us_per_record"] = median(enc)
	t.notes["study.decode_us"] = fmt.Sprintf("median of %d DecodeSpec calls", len(dec))
	return nil
}

// probePoints replays the seed's probe subset of points through the
// layers.
func (t *traced) probePoints(points []study.Scenario) error {
	id := t.spans.open("bench.layer_probes", t.root, probeLane, -1)
	defer t.spans.close(id)
	sub := probeSubset(len(points), t.o.seed)
	for _, i := range sub {
		if err := t.acc.probe(points[i], i, t.spans, id); err != nil {
			return fmt.Errorf("probing point %d (%s): %w", i, points[i].Label(), err)
		}
	}
	t.acc.layerMetrics(t.vals)
	t.notes["router.step_ns_per_slot"] = t.acc.probeNote(len(sub))
	return nil
}

// studydMetrics derives the service metrics from client-side frame
// timestamps and the server's registry counters (deltas since reg0).
func (t *traced) studydMetrics(stats []streamStats, reg0 map[string]int64) {
	var qw, stream, bytesPer []float64
	for _, st := range stats {
		if !st.startSeen || !st.finishSeen {
			continue
		}
		qw = append(qw, ms(st.startFrame))
		stream = append(stream, ms(st.finish-st.startFrame))
		bytesPer = append(bytesPer, float64(st.bytes))
	}
	reg := telemetry.Default().Snapshot()
	req := reg["studyd.requests"] - reg0["studyd.requests"]
	rej := reg["studyd.rejected"] - reg0["studyd.rejected"]
	t.vals["studyd.queue_wait_ms"] = median(qw)
	t.vals["studyd.stream_ms"] = median(stream)
	t.vals["studyd.bytes_per_study"] = median(bytesPer)
	t.vals["studyd.rejected_frac"] = 0
	if req > 0 {
		t.vals["studyd.rejected_frac"] = float64(rej) / float64(req)
	}
	t.notes["studyd.queue_wait_ms"] = fmt.Sprintf("median of %d studies, POST sent to study_start read", len(qw))
	t.notes["studyd.rejected_frac"] = fmt.Sprintf("%d of %d requests refused", rej, req)
}

// cacheMetrics reads the process-wide model-cache hit ratios.
func (t *traced) cacheMetrics() {
	var n uint64
	t.vals["energy.papermux.hit_ratio"], n = cacheRatio("energy.papermux")
	t.notes["energy.papermux.hit_ratio"] = fmt.Sprintf("%d lookups since process start", n)
	t.vals["thompson.stagegrid.hit_ratio"], n = cacheRatio("thompson.stagegrid")
	t.notes["thompson.stagegrid.hit_ratio"] = fmt.Sprintf("%d lookups since process start", n)
}

// gcMetrics records the GC's share of CPU and its cycles per study,
// from runtime counter deltas over untraced studies.
func (t *traced) gcMetrics(rt rtSnap, cyclesPerStudy float64, note string) {
	t.vals["gc.cpu_frac"] = 0
	if rt.totalCPU > 0 {
		t.vals["gc.cpu_frac"] = rt.gcCPU / rt.totalCPU
	}
	t.vals["gc.cycles"] = cyclesPerStudy
	t.notes["gc.cycles"] = note
}

// batchGC sums the untraced studies' runtime deltas for gcMetrics.
func (t *traced) batchGC(runs []studyRun) {
	var rt rtSnap
	var cycles []float64
	for _, r := range runs {
		rt.gcCPU += r.rt.gcCPU
		rt.totalCPU += r.rt.totalCPU
		cycles = append(cycles, float64(r.rt.gcCycles))
	}
	t.gcMetrics(rt, median(cycles), fmt.Sprintf("per study, median of %d untraced studies", len(cycles)))
}

// finish writes the trace, prints the per-layer report and builds the
// outcome.
func (t *traced) finish(w io.Writer, program []byte, programAt time.Time) (*outcome, error) {
	t.spans.close(t.root)
	path := traceFile(t.o)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	werr := t.spans.writeChrome(f, "fabricbench "+t.o.workload, program, programAt.Sub(t.spans.epoch))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, fmt.Errorf("writing trace: %w", werr)
	}
	fmt.Fprintf(w, "trace %s (Chrome trace JSON; open in ui.perfetto.dev)\n", path)
	fmt.Fprintln(w, "span self time (span duration minus its children's cover):")
	for _, lt := range t.spans.selfTimes() {
		fmt.Fprintf(w, "  %-26s n=%-6d total=%10.3fms self=%10.3fms\n", lt.name, lt.count, ms(lt.total), ms(lt.self))
	}
	fmt.Fprintf(w, "failed_frac=%g (%d of %d)\n", float64(t.failed)/float64(max(t.attempted, 1)), t.failed, t.attempted)
	for _, f := range t.fails {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	fmt.Fprintln(w, "per-layer:")
	printMetrics(w, perLayer, t.vals, t.notes)
	m, err := metricsFrom(perLayer, t.vals)
	if err != nil {
		return nil, err
	}
	return &outcome{Correct: t.failed == 0, Attempted: max(t.attempted, 1), Failed: t.failed, Metrics: m}, nil
}

// tracedBatch is the traced per-layer run of a batch workload: a
// quarter of the time untraced and a quarter traced (for the overhead
// and the sweep metrics), then the codec timings, the layer probes
// and one round trip of the spec through an in-process studyd.
func tracedBatch(w io.Writer, o options, wl workload) (*outcome, error) {
	t := newTraced(o)
	sid := t.spans.open("bench.setup", t.root, 0, -1)
	bs, err := setupBatch(o, wl)
	t.spans.close(sid)
	if err != nil {
		return nil, err
	}
	p := bs.p
	phase := o.seconds / 4

	id := t.spans.open("bench.untraced_studies", t.root, 0, -1)
	base := loopBatch(p, wl.workers, phase, bs.pinned, false, nil)
	t.spans.close(id)
	id = t.spans.open("bench.traced_studies", t.root, 0, -1)
	tr := loopBatch(p, wl.workers, phase, bs.pinned, true, nil)
	t.spans.close(id)
	for _, bl := range []*batchLoop{base, tr} {
		t.attempted += len(bl.runs) * len(p.points)
		t.failed += bl.failed
		t.fails = append(t.fails, bl.errs...)
	}
	ref := firstCorrect(base)
	if ref == nil {
		return nil, fmt.Errorf("no untraced study was correct: %s", base.errs[0])
	}
	baseVals, _ := base.e2eMetrics(p, 0)
	trVals, _ := tr.e2eMetrics(p, 0)
	t.overhead(baseVals["node_slots_per_s"], trVals["node_slots_per_s"], "node_slots_per_s")
	t.batchGC(base.runs)
	t.sweepMetrics(tr.runs, wl.workers, id)
	t.cacheMetrics()

	if err := t.codecMetrics([][]byte{p.body}, []*study.GridResult{ref}); err != nil {
		return nil, err
	}
	if err := t.probePoints(p.points); err != nil {
		return nil, err
	}

	// One round trip of the spec through the service, three times.
	id = t.spans.open("bench.studyd_round_trip", t.root, 0, -1)
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	exp, err := encodeRecords(ref)
	if err != nil {
		srv.stop()
		return nil, err
	}
	e := &corpusEntry{prepared: p, expected: exp}
	reg0 := telemetry.Default().Snapshot()
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	var stats []streamStats
	for i := 0; i < 3; i++ {
		st := submit(client, srv.url, e, "?workers="+strconv.Itoa(wl.workers), false)
		recordRequest(t.spans, id, 0, int64(i), &st)
		t.attempted += len(p.points)
		if !st.ok(len(p.points)) {
			t.failed += len(p.points)
			t.fails = append(t.fails, "studyd round trip: "+st.failure(len(p.points)))
		}
		stats = append(stats, st)
	}
	client.CloseIdleConnections()
	srv.stop()
	t.spans.close(id)
	t.studydMetrics(stats, reg0)

	first := tr.runs[0]
	return t.finish(w, first.program, first.programAt)
}

// firstCorrect returns the first correct study's grid result.
func firstCorrect(bl *batchLoop) *study.GridResult {
	for i, ok := range bl.ok {
		if ok {
			return bl.runs[i].gr
		}
	}
	return nil
}

// overhead records trace_overhead_frac = 1 − traced ÷ untraced rate.
func (t *traced) overhead(base, traced float64, what string) {
	t.vals["trace_overhead_frac"] = 0
	if base > 0 {
		t.vals["trace_overhead_frac"] = 1 - traced/base
	}
	t.notes["trace_overhead_frac"] = fmt.Sprintf("%s untraced %.6g, traced %.6g", what, base, traced)
}

// tracedServe is the traced per-layer run of serve-corpus: a third of
// the time untraced (service metrics), a third with the program's
// profiler on every request and client spans (overhead), then one
// traced in-process run of each corpus spec (sweep metrics), the codec
// timings and the layer probes over the corpus points.
func tracedServe(w io.Writer, o options) (*outcome, error) {
	t := newTraced(o)
	sid := t.spans.open("bench.setup", t.root, 0, -1)
	ss, err := setupServe(o)
	t.spans.close(sid)
	if err != nil {
		return nil, err
	}
	phase := secondsDur(o.seconds / 3)
	reg0 := telemetry.Default().Snapshot()

	id := t.spans.open("bench.untraced_requests", t.root, 0, -1)
	before := readRuntime()
	baseStats, baseWall, baseShare := clientLoop(ss.srv, ss.entries, o.seed, phase, "", nil, 0)
	rt := readRuntime().sub(before)
	t.spans.close(id)
	id = t.spans.open("bench.traced_requests", t.root, 0, -1)
	trStats, trWall, trShare := clientLoop(ss.srv, ss.entries, o.seed, phase, "?trace=1", t.spans, id)
	t.spans.close(id)
	ss.srv.stop()
	for i := 0; i < serveClients; i++ {
		t.spans.nameLane(1+i, "client "+strconv.Itoa(i))
	}
	base, tr := summarize(ss.entries, baseStats, baseWall, baseShare), summarize(ss.entries, trStats, trWall, trShare)
	for _, s := range []serveSummary{base, tr} {
		t.attempted += s.attempted
		t.failed += s.failed
		t.fails = append(t.fails, s.fails...)
	}
	t.overhead(base.studiesPerS(), tr.studiesPerS(), "studies_per_s")
	t.studydMetrics(baseStats, reg0)
	t.gcMetrics(rt, float64(rt.gcCycles)/float64(max(len(baseStats), 1)),
		fmt.Sprintf("per study, over %d untraced studies", len(baseStats)))

	// One traced in-process run of each corpus spec.
	id = t.spans.open("bench.traced_studies", t.root, 0, -1)
	var runs []studyRun
	var bodies [][]byte
	var grs []*study.GridResult
	var points []study.Scenario
	for _, e := range ss.entries {
		sr := runStudy(context.Background(), e.prepared, serveWorkers, true, nil)
		t.attempted++
		if sr.err == nil {
			sr.err = sameRecords(sr.gr, e.expected)
		}
		if sr.err != nil {
			t.failed++
			t.fails = append(t.fails, e.name+": "+sr.err.Error())
			continue
		}
		runs = append(runs, sr)
		bodies = append(bodies, e.body)
		grs = append(grs, sr.gr)
		points = append(points, e.points...)
	}
	t.spans.close(id)
	t.sweepMetrics(runs, serveWorkers, id)
	t.cacheMetrics()
	if err := t.codecMetrics(bodies, grs); err != nil {
		return nil, err
	}
	if err := t.probePoints(points); err != nil {
		return nil, err
	}
	// Merge the program's profile of the first traced request; its
	// recorder started when the server began executing the study.
	for _, st := range trStats {
		if st.program != nil {
			return t.finish(w, st.program, st.sent.Add(st.startFrame))
		}
	}
	return t.finish(w, nil, time.Time{})
}

// sameRecords checks a grid run's records against the expected lines.
func sameRecords(gr *study.GridResult, expected [][]byte) error {
	got, err := encodeRecords(gr)
	if err != nil {
		return err
	}
	if len(got) != len(expected) {
		return fmt.Errorf("%d records, want %d", len(got), len(expected))
	}
	for i := range got {
		if !bytes.Equal(got[i], expected[i]) {
			return fmt.Errorf("record %d differs from the set-up run", i)
		}
	}
	return nil
}
