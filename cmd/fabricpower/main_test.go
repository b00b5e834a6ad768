package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fabricpower/internal/exp"
	"fabricpower/study"
)

// paperSpec decodes a study alias's embedded spec, for tests to edit
// the way a user edits -print-scenario output.
func paperSpec(t *testing.T, cmd string) study.Spec {
	t.Helper()
	data, ok := exp.PaperSpec(cmd)
	if !ok {
		t.Fatalf("no embedded spec for %s", cmd)
	}
	spec, err := study.DecodeSpec(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// specFile encodes spec into a temp file for `run`.
func specFile(t *testing.T, spec study.Spec) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := spec.Encode(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// netSpec is the embedded net study narrowed to the given grid and
// measured window of slots.
func netSpec(t *testing.T, topos, routings, policies []string, loads []float64, slots uint64) study.Spec {
	t.Helper()
	spec := paperSpec(t, "net")
	spec.Base.Sim.MeasureSlots = slots
	spec.Axes = []study.Axis{
		{Name: "topology", Strings: topos},
		{Name: "routing", Strings: routings},
		{Name: "dpm", Strings: policies},
		{Name: "load", Floats: loads},
	}
	return spec
}

// bothRoutings and bothPolicies are the net study's default routing
// and DPM axes.
var (
	bothRoutings = []string{"shortest", "consolidate"}
	bothPolicies = []string{"alwayson", "idlegate"}
)

// TestRunNetTiny runs a small net study spec end to end and checks the
// CSV side channel carries every point.
func TestRunNetTiny(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "net.csv")
	spec := netSpec(t, []string{"fattree"}, bothRoutings, bothPolicies, []float64{0.1}, 400)
	// Discard the rendered table: the test only asserts the CSV.
	if err := dispatch(context.Background(), "run", []string{"-csv", csv, specFile(t, spec)}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if want := 1 + 2*2; len(lines) != want {
		t.Fatalf("CSV rows = %d, want %d:\n%s", len(lines), want, data)
	}
	if !strings.Contains(lines[0], "topology,routing,policy") {
		t.Fatalf("CSV header = %q", lines[0])
	}
}

// TestRunNetRejectsBadFlags: a net spec naming an unknown topology,
// architecture or traffic matrix fails.
func TestRunNetRejectsBadFlags(t *testing.T) {
	ctx := context.Background()
	run := func(spec study.Spec) error {
		return dispatch(ctx, "run", []string{specFile(t, spec)}, io.Discard)
	}
	if err := run(netSpec(t, []string{"moebius"}, bothRoutings, bothPolicies, []float64{0.1}, 50)); err == nil {
		t.Error("unknown topology should fail")
	}
	arch := paperSpec(t, "net")
	arch.Base.Fabric.Arch = "toroidal"
	if err := run(arch); err == nil {
		t.Error("unknown architecture should fail")
	}
	matrix := netSpec(t, []string{"ring"}, bothRoutings, bothPolicies, []float64{0.1}, 50)
	matrix.Base.Network.Matrix = "chaos"
	if err := run(matrix); err == nil {
		t.Error("unknown matrix should fail")
	}
}

// TestPrintScenarioRoundTripByteIdentical pins the contract of the
// study aliases: for each of the paper's studies at its embedded
// default, `<cmd>` ≡ `<cmd> -print-scenario | run -` ≡ the pinned
// report in scenarios/golden/paper/. Extra args are run's flags, which
// both sides accept. Re-pin deliberately with UPDATE_GOLDEN=1.
func TestPrintScenarioRoundTripByteIdentical(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		cmd  string
		args []string
	}{
		{"fig9", nil},
		{"fig10", nil},
		{"crossover", nil},
		{"saturate", nil},
		{"simulate", nil},
		{"dpm", nil},
		{"net", nil},
		{"net", []string{"-timeout", "10m"}},
		{"table1", nil},
	}
	for _, tc := range cases {
		t.Run(tc.cmd, func(t *testing.T) {
			var alias strings.Builder
			if err := dispatch(ctx, tc.cmd, tc.args, &alias); err != nil {
				t.Fatal(err)
			}
			var spec strings.Builder
			if err := dispatch(ctx, tc.cmd, []string{"-print-scenario"}, &spec); err != nil {
				t.Fatal(err)
			}
			specPath := filepath.Join(t.TempDir(), "spec.json")
			if err := os.WriteFile(specPath, []byte(spec.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			var viaSpec strings.Builder
			if err := dispatch(ctx, "run", append(append([]string{}, tc.args...), specPath), &viaSpec); err != nil {
				t.Fatal(err)
			}
			if alias.String() != viaSpec.String() {
				t.Fatalf("printed-scenario run diverged from the alias:\n--- alias ---\n%s\n--- via spec ---\n%s",
					alias.String(), viaSpec.String())
			}
			golden := filepath.Join("..", "..", "scenarios", "golden", "paper", tc.cmd+".txt")
			if updateGolden {
				if err := os.WriteFile(golden, []byte(alias.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if alias.String() != string(want) {
				t.Errorf("%s drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", tc.cmd, golden, alias.String(), want)
			}
		})
	}
}

// TestStudyAliasFlags: an alias takes exactly run's flags plus
// -print-scenario, which prints the embedded file verbatim, and no
// positional spec path.
func TestStudyAliasFlags(t *testing.T) {
	ctx := context.Background()
	var out strings.Builder
	if err := dispatch(ctx, "simulate", []string{"-print-scenario"}, &out); err != nil {
		t.Fatal(err)
	}
	if want, _ := exp.PaperSpec("simulate"); out.String() != string(want) {
		t.Errorf("-print-scenario is not the embedded file:\n%s", out.String())
	}
	if err := dispatch(ctx, "simulate", []string{"extra.json"}, io.Discard); err == nil {
		t.Error("an alias should refuse a positional spec path")
	}
	out.Reset()
	if err := dispatch(ctx, "simulate", []string{"-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rec study.ResultRecord
	if err := json.Unmarshal([]byte(out.String()), &rec); err != nil || rec.Result.Arch != "banyan" {
		t.Errorf("simulate -json = %q (%v), want one banyan record", out.String(), err)
	}
}

// TestRunRejectsBadSpecs: the run subcommand surfaces decode errors.
func TestRunRejectsBadSpecs(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"study": "fig9", "base": {"farbic": {}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dispatch(ctx, "run", []string{bad}, io.Discard); err == nil {
		t.Error("unknown field should fail")
	}
	if err := dispatch(ctx, "run", []string{filepath.Join(dir, "missing.json")}, io.Discard); err == nil {
		t.Error("missing file should fail")
	}
	if err := dispatch(ctx, "run", nil, io.Discard); err == nil {
		t.Error("missing path should fail")
	}
	// A single-point kind renders one scenario, so an axis would be
	// silently dropped: both the report and -json refuse it.
	point := paperSpec(t, "simulate")
	point.Base.Traffic.Load = 0.2
	point.Axes = []study.Axis{{Name: "load", Floats: []float64{0.1, 0.4}}}
	pointPath := specFile(t, point)
	for _, args := range [][]string{{pointPath}, {"-json", pointPath}} {
		if err := dispatch(ctx, "run", args, io.Discard); err == nil || !strings.Contains(err.Error(), "takes no axes") {
			t.Errorf("run %v on a point spec with axes: err = %v", args, err)
		}
	}
}

// TestRunJSON: `run -json` emits one machine-readable record per grid
// point instead of the rendered report.
func TestRunJSON(t *testing.T) {
	ctx := context.Background()
	spec := filepath.Join(t.TempDir(), "spec.json")
	doc := `{
  "version": 1,
  "base": {
    "fabric": {"arch": "crossbar", "ports": 4},
    "sim": {"warmupSlots": 50, "measureSlots": 200, "seed": 2}
  },
  "axes": [{"name": "load", "floats": [0.1, 0.3]}]
}`
	if err := os.WriteFile(spec, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := dispatch(ctx, "run", []string{"-json", spec}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("records = %d, want 2:\n%s", len(lines), out.String())
	}
	for i, line := range lines {
		var rec study.ResultRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not a record: %v", i, err)
		}
		if rec.Index != i || rec.Result.Slots != 200 {
			t.Errorf("record %d = index %d, slots %d", i, rec.Index, rec.Result.Slots)
		}
	}
	// -json and -csv cannot both be honored.
	if err := dispatch(ctx, "run", []string{"-json", "-csv", "x.csv", spec}, io.Discard); err == nil {
		t.Error("-json with -csv should fail")
	}
}

// TestRunNetFaultFlags drives the failure plumbing end to end from a
// spec's failures block: generated link flaps (mtbf/mttr) grow the
// table's lost column, explicit events do too, and bad inputs — a
// missing spec file, mtbf without mttr — fail loudly.
func TestRunNetFaultFlags(t *testing.T) {
	ctx := context.Background()
	ring := func(failures *study.FailureSpec, loads []float64, slots uint64) string {
		spec := netSpec(t, []string{"ring"}, []string{"shortest"}, []string{"alwayson"}, loads, slots)
		spec.Base.Network.Failures = failures
		return specFile(t, spec)
	}
	var out strings.Builder
	if err := dispatch(ctx, "run", []string{ring(&study.FailureSpec{MTBF: 150, MTTR: 40}, []float64{0.2}, 400)}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "lost") {
		t.Errorf("fault run did not render the lost column:\n%s", out.String())
	}

	node := 1
	events := &study.FailureSpec{
		Events:     []study.FaultEventSpec{{Slot: 100, Node: &node, Down: true}, {Slot: 200, Node: &node, Down: false}},
		ResidualMW: 2,
	}
	out.Reset()
	if err := dispatch(ctx, "run", []string{ring(events, []float64{0.2}, 400)}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "lost") {
		t.Errorf("explicit-event run did not render the lost column:\n%s", out.String())
	}

	if err := dispatch(ctx, "run", []string{filepath.Join(t.TempDir(), "missing.json")}, io.Discard); err == nil {
		t.Error("missing spec file should fail")
	}
	noMTTR := netSpec(t, []string{"ring"}, bothRoutings, bothPolicies, []float64{0.1}, 50)
	noMTTR.Base.Network.Failures = &study.FailureSpec{MTBF: 100}
	if err := dispatch(ctx, "run", []string{specFile(t, noMTTR)}, io.Discard); err == nil {
		t.Error("mtbf without mttr should fail validation")
	}
}

// TestObservabilityFlagsLeaveStdoutIdentical pins the observability
// contract at the CLI: -v, -telemetry/-tsample, -trace and -metrics
// change nothing on stdout — the rendered report is byte-identical
// with and without them — while the side files fill with point-tagged
// JSONL, a Chrome trace, and a metrics snapshot.
func TestObservabilityFlagsLeaveStdoutIdentical(t *testing.T) {
	ctx := context.Background()
	spec := specFile(t, netSpec(t, []string{"ring"}, bothRoutings, []string{"idlegate"}, []float64{0.1, 0.3}, 300))
	var plain strings.Builder
	if err := dispatch(ctx, "run", []string{spec}, &plain); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	telPath := filepath.Join(dir, "tel.jsonl")
	tracePath := filepath.Join(dir, "run.trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	var tapped strings.Builder
	withObs := []string{spec,
		"-v", "-telemetry", telPath, "-tsample", "50",
		"-trace", tracePath, "-metrics", metricsPath}
	if err := dispatch(ctx, "run", withObs, &tapped); err != nil {
		t.Fatal(err)
	}
	if plain.String() != tapped.String() {
		t.Errorf("observability flags changed stdout:\n--- plain ---\n%s\n--- tapped ---\n%s",
			plain.String(), tapped.String())
	}
	data, err := os.ReadFile(telPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("telemetry file is empty")
	}
	for i, line := range lines {
		var rec struct {
			Point *int   `json:"point"`
			Kind  string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("telemetry line %d: %v", i, err)
		}
		if rec.Point == nil || rec.Kind == "" {
			t.Fatalf("telemetry line %d missing point/kind: %s", i, line)
		}
	}
	checkTraceFile(t, tracePath)
	var snap struct {
		Metrics    map[string]int64    `json:"metrics"`
		Histograms map[string][]uint64 `json:"histograms"`
	}
	mdata, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mdata, &snap); err != nil {
		t.Fatalf("-metrics output is not a registry snapshot: %v", err)
	}
	if snap.Metrics["netsim.networks.built"] == 0 {
		t.Error("-metrics snapshot carries no netsim counters")
	}
	if len(snap.Histograms["netsim.step.barrier_wait_ns"]) == 0 {
		t.Error("-metrics snapshot carries no barrier-wait histogram")
	}
}

// checkTraceFile machine-validates a -trace output: well-formed Chrome
// trace JSON whose spans cover all three instrumented layers — the
// sweep engine and the sharded kernel.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  *int           `json:"pid"`
			TID  *int           `json:"tid"`
			TS   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-trace output is not valid JSON: %v", err)
	}
	spans := make(map[string]int)
	threads := make(map[string]int)
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				threads[fmt.Sprint(ev.Args["name"])]++
			}
		case "X":
			if ev.PID == nil || ev.TID == nil || ev.TS == nil || ev.Dur == nil {
				t.Fatalf("X event %q missing pid/tid/ts/dur: %+v", ev.Name, ev)
			}
			spans[ev.Name]++
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	for _, want := range []string{"slot", "compute", "exchange", "wait", "point"} {
		if spans[want] == 0 {
			t.Errorf("trace has no %q spans (spans: %v)", want, spans)
		}
	}
	if threads["sweep worker 0"] == 0 {
		t.Errorf("trace has no sweep worker row (threads: %v)", threads)
	}
	kernelRow := false
	for name := range threads {
		if strings.Contains(name, "coordinator") {
			kernelRow = true
		}
	}
	if !kernelRow {
		t.Errorf("trace has no kernel coordinator row (threads: %v)", threads)
	}
}

// TestRunSpecTelemetry: the `run` subcommand accepts the observability
// flags on either side of the spec path and writes the time series.
func TestRunSpecTelemetry(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	doc := `{
  "version": 1,
  "base": {
    "fabric": {"arch": "crossbar", "ports": 4},
    "sim": {"warmupSlots": 50, "measureSlots": 200, "seed": 2}
  },
  "axes": [{"name": "load", "floats": [0.1, 0.3]}]
}`
	if err := os.WriteFile(spec, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	telPath := filepath.Join(dir, "tel.jsonl")
	var out strings.Builder
	if err := dispatch(ctx, "run", []string{spec, "-telemetry", telPath, "-tsample", "64"}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(telPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"sim_sample"`) {
		t.Errorf("telemetry file carries no sim samples:\n%s", data)
	}
	if out.Len() == 0 {
		t.Error("run produced no report")
	}
}

// TestServePprof: the diagnostics server exposes the pprof index and
// the telemetry registry over expvar, and stops cleanly.
func TestServePprof(t *testing.T) {
	addr, stop, err := servePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if body := get("/debug/vars"); !strings.Contains(body, `"fabricpower"`) {
		t.Error("expvar endpoint does not publish the fabricpower registry")
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Error("pprof index missing")
	}
	if err := stop(); err != nil {
		t.Error(err)
	}
}
