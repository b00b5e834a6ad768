package study_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"fabricpower/study"
)

// TestGridRunEvents pins the structured progress stream: one
// start/finish pair per point with the right identity fields, in
// strict order on a sequential run.
func TestGridRunEvents(t *testing.T) {
	var events []study.Event
	gr, err := quickGrid().Run(context.Background(), study.RunOptions{
		Workers: 1,
		OnEvent: func(ev study.Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	n := len(gr.Points)
	if len(events) != 2*n {
		t.Fatalf("got %d events for %d points, want %d", len(events), n, 2*n)
	}
	for i := 0; i < n; i++ {
		start, finish := events[2*i], events[2*i+1]
		if start.Kind != "point_start" || finish.Kind != "point_finish" {
			t.Fatalf("point %d: kinds %q,%q, want point_start,point_finish", i, start.Kind, finish.Kind)
		}
		if start.Index != i || finish.Index != i {
			t.Errorf("point %d: event indices %d,%d", i, start.Index, finish.Index)
		}
		if start.Total != n || finish.Total != n {
			t.Errorf("point %d: totals %d,%d, want %d", i, start.Total, finish.Total, n)
		}
		if start.Worker != 0 || finish.Worker != 0 {
			t.Errorf("point %d: sequential run attributed to workers %d,%d, want 0", i, start.Worker, finish.Worker)
		}
		if start.Label == "" || start.Label != finish.Label {
			t.Errorf("point %d: labels %q,%q", i, start.Label, finish.Label)
		}
		if finish.DurationMS <= 0 {
			t.Errorf("point %d: duration %g ms, want > 0", i, finish.DurationMS)
		}
		if finish.Err != "" {
			t.Errorf("point %d: unexpected error %q", i, finish.Err)
		}
	}
	// The scenario label is the coordinates, not internals.
	if lbl := events[0].Label; !strings.Contains(lbl, "crossbar") {
		t.Errorf("label %q does not name the architecture", lbl)
	}
}

// telemetryLines runs a grid sequentially with a telemetry sink and
// returns the raw JSONL plus each parsed line's point tag and kind.
func telemetryLines(t *testing.T, g study.Grid) (string, []int, []string) {
	t.Helper()
	var buf bytes.Buffer
	_, err := g.Run(context.Background(), study.RunOptions{
		Workers:   1,
		Telemetry: &study.TelemetryOptions{Out: &buf, Every: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	points := make([]int, 0, len(lines))
	kinds := make([]string, 0, len(lines))
	for i, line := range lines {
		var rec struct {
			Point *int   `json:"point"`
			Kind  string `json:"kind"`
			Slot  uint64 `json:"slot"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.Point == nil {
			t.Fatalf("line %d has no point tag: %s", i, line)
		}
		points = append(points, *rec.Point)
		kinds = append(kinds, rec.Kind)
	}
	return buf.String(), points, kinds
}

// TestGridRunTelemetryJSONL: a sequential grid run streams per-point
// kernel samples as JSON lines — point-tagged, contiguous per point,
// and byte-identical across repeated runs.
func TestGridRunTelemetryJSONL(t *testing.T) {
	raw, points, kinds := telemetryLines(t, quickGrid())
	if len(points) == 0 {
		t.Fatal("no telemetry lines")
	}
	seen := map[int]bool{}
	last := -1
	for i, p := range points {
		if p != last && seen[p] {
			t.Fatalf("line %d: point %d's block is not contiguous", i, p)
		}
		seen[p] = true
		if p < last {
			t.Fatalf("line %d: sequential run emitted point %d after %d", i, p, last)
		}
		last = p
		if kinds[i] != "sim_sample" {
			t.Errorf("line %d: kind %q, want sim_sample for a single-router grid", i, kinds[i])
		}
	}
	if len(seen) != 4 {
		t.Errorf("telemetry covered %d points, want all 4", len(seen))
	}
	if again, _, _ := telemetryLines(t, quickGrid()); again != raw {
		t.Error("telemetry stream not byte-identical across identical sequential runs")
	}
}

// TestGridRunTelemetryNetwork: a network point streams net_sample lines
// and ends with the per-flow net_flows summary; sim sample intervals
// cover exactly the measured window after the warmup rebase.
func TestGridRunTelemetryNetwork(t *testing.T) {
	g := study.Grid{
		Base: study.Scenario{
			Model:   study.ModelSpec{Static: true},
			Traffic: study.TrafficSpec{Load: 0.2},
			DPM:     "idlegate",
			Sim:     quickSim(),
			Network: &study.NetworkSpec{Topology: "ring", Nodes: 4, Shards: 2},
		},
	}
	_, _, kinds := telemetryLines(t, g)
	if len(kinds) < 2 {
		t.Fatalf("got %d lines, want samples plus a summary", len(kinds))
	}
	for i, k := range kinds[:len(kinds)-1] {
		if k != "net_sample" {
			t.Errorf("line %d: kind %q, want net_sample", i, k)
		}
	}
	if last := kinds[len(kinds)-1]; last != "net_flows" {
		t.Errorf("final line kind %q, want the net_flows summary", last)
	}
}

// TestGridRunTelemetryWindow pins the warmup rebase at the study level:
// the single-router sample stream's post-warmup intervals sum to
// exactly the measured slot count, with power flowing in every sample.
func TestGridRunTelemetryWindow(t *testing.T) {
	warmup := uint64(60)
	g := study.Grid{
		Base: study.Scenario{
			Fabric:  study.FabricSpec{Arch: "crossbar", Ports: 8},
			Traffic: study.TrafficSpec{Load: 0.3},
			Sim:     study.SimSpec{WarmupSlots: &warmup, MeasureSlots: 300, Seed: 11},
		},
	}
	var buf bytes.Buffer
	_, err := g.Run(context.Background(), study.RunOptions{
		Workers:   1,
		Telemetry: &study.TelemetryOptions{Out: &buf, Every: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	var measured uint64
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var s struct {
			Slot      uint64  `json:"slot"`
			Interval  uint64  `json:"interval"`
			DynamicMW float64 `json:"dynamicMW"`
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if s.Slot > warmup {
			measured += s.Interval
		}
		if s.DynamicMW <= 0 {
			t.Errorf("sample at slot %d: dynamic power %g mW, want > 0 under load", s.Slot, s.DynamicMW)
		}
	}
	if measured != 300 {
		t.Errorf("measured-window intervals sum to %d slots, want 300", measured)
	}
}
