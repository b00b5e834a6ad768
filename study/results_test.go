package study_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"fabricpower/study"
)

// failAfterWriter fails every Write once budget bytes have passed —
// a full pipe or closed socket under the JSONL stream.
type failAfterWriter struct {
	budget  int
	written int
	errs    int
}

var errSinkFull = errors.New("sink full")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.budget {
		w.errs++
		return 0, errSinkFull
	}
	w.written += len(p)
	return len(p), nil
}

// TestWriteResultRecordsWriteError: the streaming handler leans on
// WriteResultRecords surfacing the sink's error immediately — no
// swallowed failures, no writes after the first one.
func TestWriteResultRecordsWriteError(t *testing.T) {
	gr, err := quickGrid().Run(context.Background(), study.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := study.WriteResultRecords(&full, gr.Points); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(full.String(), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("need at least 2 records to probe mid-stream failure, got %d", len(lines))
	}

	// Budget exactly one record: the second Encode must fail and stop
	// the stream.
	w := &failAfterWriter{budget: len(lines[0])}
	err = study.WriteResultRecords(w, gr.Points)
	if !errors.Is(err, errSinkFull) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	if w.errs != 1 {
		t.Errorf("writer failed %d times; WriteResultRecords must stop at the first error", w.errs)
	}
	if w.written != len(lines[0]) {
		t.Errorf("wrote %d bytes before failing, want exactly the first record (%d)", w.written, len(lines[0]))
	}

	// Budget zero: even the first record fails.
	if err := study.WriteResultRecords(&failAfterWriter{}, gr.Points); !errors.Is(err, errSinkFull) {
		t.Fatalf("zero-budget err = %v, want the sink's error", err)
	}
}

// TestWriteResultRecordsUnmarshalableResult: a record that cannot be
// marshaled surfaces the encoder's error rather than emitting a
// corrupt line.
func TestWriteResultRecordsUnmarshalableResult(t *testing.T) {
	points := []study.GridPoint{gridPointNaN(t)}
	var buf bytes.Buffer
	err := study.WriteResultRecords(&buf, points)
	if err == nil {
		t.Fatal("NaN in a result must fail the JSON encode")
	}
	var ue *json.UnsupportedValueError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *json.UnsupportedValueError", err)
	}
}

// gridPointNaN builds a single done point whose result cannot be JSON
// encoded (NaN throughput).
func gridPointNaN(t *testing.T) study.GridPoint {
	t.Helper()
	gr, err := quickGrid().Run(context.Background(), study.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt := gr.Points[0]
	pt.Result.Throughput = nan()
	return pt
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}

// TestGridRunCancellationParallel: the mid-stream cancellation
// contract holds under a parallel pool too — every Done point is
// bit-identical to the uninterrupted run, every undone point is
// zero-valued, and WriteResultRecords over the partial grid emits
// exactly the Done indices in order.
func TestGridRunCancellationParallel(t *testing.T) {
	grid := study.Grid{
		Base: study.Scenario{
			Fabric: study.FabricSpec{Arch: "crossbar", Ports: 8},
			Sim:    quickSim(),
		},
		Axes: []study.Axis{
			{Name: "load", Floats: []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}},
			{Name: "seed", Ints: []int{1, 2, 3}},
		},
	}
	full, err := grid.Run(context.Background(), study.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	partial, err := grid.Run(ctx, study.RunOptions{
		Workers: 4,
		OnPoint: func(i, total int, sc study.Scenario, r study.Result, _ study.PointInfo) {
			if seen.Add(1) == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(partial.Points) != len(full.Points) {
		t.Fatalf("partial grid lost its shape: %d vs %d points", len(partial.Points), len(full.Points))
	}
	completed := 0
	for i, pt := range partial.Points {
		if !pt.Done {
			if pt.Result.Slots != 0 {
				t.Fatalf("unrun point %d carries a result", i)
			}
			continue
		}
		completed++
		if !reflect.DeepEqual(pt.Result, full.Points[i].Result) {
			t.Fatalf("partial point %d differs from the uninterrupted run", i)
		}
	}
	if completed == 0 || completed == len(partial.Points) {
		t.Fatalf("cancellation should leave a strict subset, got %d/%d", completed, len(partial.Points))
	}
	if got := partial.Completed(); got != completed {
		t.Fatalf("Completed() = %d, want %d", got, completed)
	}

	// The partial grid streams exactly its Done indices, in order.
	var buf bytes.Buffer
	if err := study.WriteResultRecords(&buf, partial.Points); err != nil {
		t.Fatal(err)
	}
	var gotIdx []int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec study.ResultRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		gotIdx = append(gotIdx, rec.Index)
	}
	var wantIdx []int
	for i, pt := range partial.Points {
		if pt.Done {
			wantIdx = append(wantIdx, i)
		}
	}
	if !reflect.DeepEqual(gotIdx, wantIdx) {
		t.Fatalf("record indices %v, want the Done indices %v", gotIdx, wantIdx)
	}
	for _, i := range gotIdx {
		if i >= len(full.Points) {
			t.Fatalf("record index %d out of range", i)
		}
	}
}

// TestResultJSONShape pins the result record's wire format: a Result
// with every field set, DPM, Net and Resilience included, must encode
// byte for byte as the checked-in golden file. The values are
// literals, so the encoding does not depend on the platform. The
// README's table of result keys must name every key of the encoding.
func TestResultJSONShape(t *testing.T) {
	r := study.Result{
		Arch:            "banyan",
		Ports:           16,
		Slots:           2000,
		SlotNS:          5120,
		Throughput:      0.4375,
		AvgLatencySlots: 6.25,
		MaxLatencySlots: 31,
		Energy:          study.Energy{SwitchFJ: 1.5e6, BufferFJ: 2.25e5, WireFJ: 3.125e6},
		Power:           study.Power{SwitchMW: 1.25, BufferMW: 0.5, WireMW: 2.75, StaticMW: 0.125},
		EnergyPerBitFJ:  0.875,
		BufferEvents:    12,
		DroppedCells:    3,
		QueuedCells:     7,
		DPM: &study.DPMReport{
			Policy:           "composite",
			Slots:            2000,
			StaticFJ:         4.5e5,
			AlwaysOnStaticFJ: 9e5,
			TransitionFJ:     1.5e3,
			DynamicAdjustFJ:  -2.5e4,
			Transitions:      40,
			WakeEvents:       18,
			DVFSShifts:       4,
			GatedPortSlots:   12000,
			DrowsySlots:      900,
			StalledSlots:     25,
		},
		Net: &study.NetReport{
			Topology:         "fattree",
			Nodes:            6,
			OfferedCells:     5000,
			DeliveredCells:   4800,
			NodeDroppedCells: 120,
			LinkDroppedCells: 30,
			DeliveryRatio:    0.96,
			AvgHops:          2.5,
			Resilience: &study.ResilienceReport{
				LostCells:        50,
				Flows:            []study.FlowResilience{{Src: 0, Dst: 3, Offered: 900, Delivered: 850, Lost: 50}},
				Links:            []study.LinkResilience{{From: 0, To: 4, DownSlots: 100, Availability: 0.95}},
				NodeDownSlots:    200,
				ReconvergeEvents: 2,
				ReroutedFlows:    5,
				ReconvergeFJ:     5e4,
				ResidualFJ:       1.25e5,
			},
		},
	}
	got, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "result.golden.json")
	if update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("result encoding drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
	var doc any
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	table := readmeResultKeys(t)
	for _, k := range jsonKeys(doc, nil) {
		if !table[k] {
			t.Errorf("README's result key table does not name %q", k)
		}
	}
}

// jsonKeys appends every object key in a decoded JSON value.
func jsonKeys(v any, keys []string) []string {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			keys = jsonKeys(e, append(keys, k))
		}
	case []any:
		for _, e := range v {
			keys = jsonKeys(e, keys)
		}
	}
	return keys
}

// readmeResultKeys returns the back-quoted names in the key column of
// the README's "Result key" table.
func readmeResultKeys(t *testing.T) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile(filepath.Join("..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	in := false
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "| Result key |") {
			in = true
			continue
		}
		if !in {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		col := strings.Split(line, "|")[1]
		for i, part := range strings.Split(col, "`") {
			if i%2 == 1 {
				keys[part] = true
			}
		}
	}
	if len(keys) == 0 {
		t.Fatal("README has no result key table")
	}
	return keys
}
