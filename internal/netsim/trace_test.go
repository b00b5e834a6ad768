package netsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"fabricpower/internal/sim"
	"fabricpower/internal/telemetry/trace"
)

// traceTestConfig is the trace tests' operating point: managed routers
// over live traffic, like the telemetry tests.
func traceTestConfig(t *Topology) Config {
	return telTestConfig(t)
}

// runTraced runs one fat-tree network with the given shard count and an
// optional recorder attached, and returns the report.
func runTraced(t *testing.T, shards int, rec *trace.Recorder) *Report {
	t.Helper()
	topo, err := FatTree2(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traceTestConfig(topo)
	cfg.Shards = shards
	if rec != nil {
		cfg.Trace = &TraceConfig{Recorder: rec, Every: 32}
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	rep, err := net.Run(100, 400)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestTraceDoesNotPerturbReport is the profiler's core contract: the
// recorder observes wall-clock time only, so a traced run's report is
// identical to an untraced one — sequential and sharded.
func TestTraceDoesNotPerturbReport(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			plain := runTraced(t, shards, nil)
			traced := runTraced(t, shards, trace.NewRecorder(0))
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("attaching a trace recorder changed the report:\nplain:  %+v\ntraced: %+v", plain, traced)
			}
		})
	}
}

// TestTraceShardDeterminism: with the profiler attached, results stay
// bit-identical for any shard count (the profiler adds no cross-shard
// coupling). Also the -race exercise of the traced sharded kernel.
func TestTraceShardDeterminism(t *testing.T) {
	base := runTraced(t, 1, trace.NewRecorder(0))
	for _, shards := range []int{2, 3, -1} {
		rep := runTraced(t, shards, trace.NewRecorder(0))
		if !reflect.DeepEqual(base, rep) {
			t.Errorf("shards=%d: traced report differs from sequential", shards)
		}
	}
}

// TestTraceExport: a traced network run produces kernel spans on every
// expected row, and the export is valid Chrome trace JSON.
func TestTraceExport(t *testing.T) {
	rec := trace.NewRecorder(0)
	rec.SetProcessName(0, "test")
	runTraced(t, 2, rec)

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("trace export is not valid JSON")
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	rows := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans[ev.Name]++
		case "M":
			if ev.Name == "thread_name" {
				rows[fmt.Sprint(ev.Args["name"])] = true
			}
		}
	}
	for _, name := range []string{"compute", "exchange", "barrier", "slot"} {
		if spans[name] == 0 {
			t.Errorf("export lacks %q spans (got %v)", name, spans)
		}
	}
	for _, row := range []string{"coordinator", "shard 0", "shard 1"} {
		if !rows[row] {
			t.Errorf("export lacks the %q timeline row (got %v)", row, rows)
		}
	}
}

// TestExecProfile checks the derived summary: per-shard busy time,
// per-node cost, join-wait buckets and the imbalance ratio all line up
// with the sampled slot count.
func TestExecProfile(t *testing.T) {
	topo, err := FatTree2(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traceTestConfig(topo)
	cfg.Shards = 2
	cfg.Trace = &TraceConfig{Recorder: trace.NewRecorder(0), Every: 32}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if _, err := net.Run(100, 400); err != nil {
		t.Fatal(err)
	}
	ep := net.ExecProfile()
	if ep == nil {
		t.Fatal("traced network reports a nil ExecProfile")
	}
	// 500 slots sampled every 32: slots 0, 32, …, 480.
	if want := uint64(500/32 + 1); ep.SampledSlots != want {
		t.Errorf("sampled %d slots, want %d", ep.SampledSlots, want)
	}
	if ep.Every != 32 {
		t.Errorf("Every = %d, want 32", ep.Every)
	}
	if len(ep.ShardBusyNS) != net.Shards() {
		t.Fatalf("%d shard busy entries for %d shards", len(ep.ShardBusyNS), net.Shards())
	}
	var busy uint64
	for _, b := range ep.ShardBusyNS {
		busy += b
	}
	if busy == 0 {
		t.Error("no shard busy time accumulated over sampled slots")
	}
	if len(ep.NodeCostNS) != topo.Nodes {
		t.Fatalf("%d node cost entries for %d nodes", len(ep.NodeCostNS), topo.Nodes)
	}
	var nodeCost uint64
	for _, c := range ep.NodeCostNS {
		nodeCost += c
	}
	if nodeCost == 0 || nodeCost > busy {
		t.Errorf("node cost %d ns should be positive and within shard busy %d ns", nodeCost, busy)
	}
	var waits uint64
	for _, c := range ep.BarrierWaitNS {
		waits += c
	}
	if waits != ep.SampledSlots {
		t.Errorf("barrier-wait histogram holds %d join waits, want one per sampled slot = %d", waits, ep.SampledSlots)
	}
	if ep.Imbalance < 1 {
		t.Errorf("imbalance %g < 1: max/mean cannot undercut the mean", ep.Imbalance)
	}
}

// TestExecProfileNilWithoutTrace: the untraced fast path reports no
// profile.
func TestExecProfileNilWithoutTrace(t *testing.T) {
	topo, err := Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(traceTestConfig(topo))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if net.ExecProfile() != nil {
		t.Error("untraced network reports a non-nil ExecProfile")
	}
}

// TestTraceSummaryNodeCost: with both telemetry and trace attached, the
// end-of-run summary carries the per-node cost estimate.
func TestTraceSummaryNodeCost(t *testing.T) {
	topo, err := Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traceTestConfig(topo)
	var sum *TelemetrySummary
	cfg.Telemetry = &sim.TelemetryConfig{Every: 50, Emit: func(v any) {
		if s, ok := v.(*TelemetrySummary); ok {
			sum = s
		}
	}}
	cfg.Trace = &TraceConfig{Recorder: trace.NewRecorder(0), Every: 32}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if _, err := net.Run(100, 400); err != nil {
		t.Fatal(err)
	}
	if sum == nil {
		t.Fatal("no summary emitted")
	}
	if len(sum.NodeCostNS) != topo.Nodes {
		t.Fatalf("summary carries %d node costs for %d nodes", len(sum.NodeCostNS), topo.Nodes)
	}
}

// TestTraceSlotLoopAllocationFree extends the hot-loop allocation pin
// to an attached profiler: sampled slots emit into preallocated rings
// and registry cells, so the slot loop stays at zero allocations per
// slot even while tracing.
func TestTraceSlotLoopAllocationFree(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			topo, err := Ring(4)
			if err != nil {
				t.Fatal(err)
			}
			cfg := traceTestConfig(topo)
			cfg.Policy = "composite"
			cfg.Load = 0.4
			cfg.Shards = shards
			cfg.Traffic = Traffic{custom: func(f Flow, fi int, seed int64) (FlowSource, error) {
				src, err := new(sources).onOff(f.Rate, 10, seed)
				if err != nil {
					return nil, err
				}
				return &cutoffSource{inner: src, cutoff: 500}, nil
			}}
			// Every=4 so the measured window is dominated by sampled
			// (profiled) slots — the expensive path must be the
			// allocation-free one too.
			cfg.Trace = &TraceConfig{Recorder: trace.NewRecorder(0), Every: 4}
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			slot := uint64(0)
			for ; slot < 500; slot++ {
				net.Step(slot)
			}
			allocs := testing.AllocsPerRun(300, func() {
				net.Step(slot)
				slot++
			})
			if allocs != 0 {
				t.Errorf("slot loop with tracing allocates %.1f times per slot, want 0", allocs)
			}
			if net.ExecProfile().SampledSlots == 0 {
				t.Error("profiler sampled no slots")
			}
		})
	}
}
