package study_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"fabricpower/study"
)

func quickSim() study.SimSpec {
	w := uint64(60)
	return study.SimSpec{WarmupSlots: &w, MeasureSlots: 300, Seed: 11}
}

func quickGrid() study.Grid {
	return study.Grid{
		Base: study.Scenario{
			Fabric: study.FabricSpec{Arch: "crossbar", Ports: 8},
			Sim:    quickSim(),
		},
		Axes: []study.Axis{
			{Name: "arch", Strings: []string{"crossbar", "banyan"}},
			{Name: "load", Floats: []float64{0.1, 0.3}},
		},
	}
}

// TestGridRunWorkerDeterminism extends the sweep guarantee to the
// public grid API: any worker count, bit-identical results.
func TestGridRunWorkerDeterminism(t *testing.T) {
	seq, err := quickGrid().Run(context.Background(), study.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 8} {
		par, err := quickGrid().Run(context.Background(), study.RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d grid differs from sequential run", workers)
		}
	}
}

// TestGridRunCancellation pins the acceptance contract: a context
// cancelled mid-sweep stops the grid between points and the completed
// points' results survive intact, bit-identical to an uninterrupted
// run at the same indices.
func TestGridRunCancellation(t *testing.T) {
	full, err := quickGrid().Run(context.Background(), study.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := quickGrid().Run(ctx, study.RunOptions{
		Workers: 1,
		OnPoint: func(i, total int, sc study.Scenario, r study.Result, _ study.PointInfo) {
			if i == 1 {
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
	if got := len(partial.Results()); got != completed {
		t.Fatalf("Results() returned %d, want %d", got, completed)
	}
}

// TestGridRunStreamsProgress: the callback sees every point exactly
// once with the right total.
func TestGridRunStreamsProgress(t *testing.T) {
	seen := map[int]int{}
	gr, err := quickGrid().Run(context.Background(), study.RunOptions{
		Workers: 4,
		OnPoint: func(i, total int, sc study.Scenario, r study.Result, _ study.PointInfo) {
			if total != 4 {
				t.Errorf("total = %d, want 4", total)
			}
			seen[i]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(gr.Points) {
		t.Fatalf("callback saw %d points, want %d", len(seen), len(gr.Points))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("point %d seen %d times", i, n)
		}
	}
}

// TestRunScenarioNetwork: a network scenario runs end to end and
// reports network-level measurements.
func TestRunScenarioNetwork(t *testing.T) {
	sc := study.Scenario{
		Model:   study.ModelSpec{Static: true},
		Traffic: study.TrafficSpec{Load: 0.2},
		DPM:     "idlegate",
		Sim:     quickSim(),
		Network: &study.NetworkSpec{Topology: "ring", Nodes: 4, Routing: "shortest", Matrix: "uniform"},
	}
	r, err := study.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Net == nil || r.Net.DeliveredCells == 0 {
		t.Fatalf("network scenario should deliver cells: %+v", r.Net)
	}
	if r.Power.TotalMW() <= 0 || r.Power.StaticMW <= 0 {
		t.Fatalf("managed static network should draw power: %+v", r.Power)
	}
}

// TestRunScenarioNetworkShardsIdentical pins the study-level face of
// the sharded kernel: the same network scenario measures bit-identical
// results for any shard count.
func TestRunScenarioNetworkShardsIdentical(t *testing.T) {
	run := func(shards int) study.Result {
		sc := study.Scenario{
			Model:   study.ModelSpec{Static: true},
			Traffic: study.TrafficSpec{Kind: "bursty", Load: 0.2},
			DPM:     "idlegate",
			Sim:     quickSim(),
			Network: &study.NetworkSpec{Topology: "fattree", Nodes: 4, Shards: shards},
		}
		r, err := study.RunScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	seq := run(1)
	for _, shards := range []int{2, -1} {
		if par := run(shards); !reflect.DeepEqual(seq, par) {
			t.Errorf("shards=%d result differs from single-threaded", shards)
		}
	}
}

// TestRunScenarioNetworkIdleSkipIdentical pins the spec-level idleSkip
// escape hatch: the field reaches the kernel (bad values error) and
// "off" reproduces the default fast-path result bit-identically.
func TestRunScenarioNetworkIdleSkipIdentical(t *testing.T) {
	scenario := func(idleSkip string) study.Scenario {
		return study.Scenario{
			Model:   study.ModelSpec{Static: true},
			Traffic: study.TrafficSpec{Kind: "bursty", Load: 0.1},
			DPM:     "idlegate",
			Sim:     quickSim(),
			Network: &study.NetworkSpec{Topology: "fattree", Nodes: 4, IdleSkip: idleSkip},
		}
	}
	run := func(idleSkip string) study.Result {
		r, err := study.RunScenario(scenario(idleSkip))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	def := run("")
	for _, mode := range []string{"auto", "on", "off"} {
		if got := run(mode); !reflect.DeepEqual(def, got) {
			t.Errorf("idleSkip=%q result differs from default", mode)
		}
	}
	if _, err := study.RunScenario(scenario("sometimes")); err == nil {
		t.Error("idleSkip=sometimes was accepted")
	}
}

// TestRunScenarioNetworkTrafficKinds: the traffic zoo crosses hops —
// every network-capable kind runs through a network scenario, and
// burstiness changes the power bill at equal average load.
func TestRunScenarioNetworkTrafficKinds(t *testing.T) {
	run := func(kind string) study.Result {
		sc := study.Scenario{
			Model:   study.ModelSpec{Static: true},
			Traffic: study.TrafficSpec{Kind: kind, Load: 0.2},
			DPM:     "idlegate",
			Sim:     quickSim(),
			Network: &study.NetworkSpec{Topology: "fattree", Nodes: 4},
		}
		r, err := study.RunScenario(sc)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if r.Net == nil || r.Net.DeliveredCells == 0 {
			t.Fatalf("%s: network delivered nothing", kind)
		}
		return r
	}
	base := run("uniform")
	for _, kind := range []string{"bursty", "packet"} {
		if r := run(kind); r.Power.TotalMW() == base.Power.TotalMW() {
			t.Errorf("%s network total %.6f mW identical to Bernoulli — traffic kind not reaching netsim", kind, r.Power.TotalMW())
		}
	}
	// Hotspot is a destination pattern, not an arrival process: network
	// scenarios must reject it toward network.matrix.
	sc := study.Scenario{
		Traffic: study.TrafficSpec{Kind: "hotspot", Load: 0.2},
		Sim:     quickSim(),
		Network: &study.NetworkSpec{Topology: "ring", Nodes: 4},
	}
	if _, err := study.RunScenario(sc); err == nil {
		t.Error("hotspot traffic kind accepted on a network scenario")
	}
}

// TestRunScenarioTrafficKinds: every built-in traffic kind runs, and
// the explicit zeros the schema keeps apart from unset reach the run: a
// hotspotFraction of 0 is a hotspot source sending nothing extra to its
// port, and a warmupSlots of 0 measures from slot 0.
func TestRunScenarioTrafficKinds(t *testing.T) {
	run := func(label string, traffic study.TrafficSpec, sim study.SimSpec) study.Result {
		traffic.Load = 0.3
		r, err := study.RunScenario(study.Scenario{
			Fabric:  study.FabricSpec{Arch: "fullyconnected", Ports: 8},
			Traffic: traffic,
			Sim:     sim,
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if r.Power.TotalMW() <= 0 || r.Throughput <= 0 {
			t.Fatalf("%s: no power or nothing delivered (%+v)", label, r)
		}
		return r
	}
	results := map[string]study.Result{}
	for _, kind := range []string{"uniform", "bursty", "packet", "hotspot"} {
		results[kind] = run(kind, study.TrafficSpec{Kind: kind}, quickSim())
	}
	zero := 0.0
	if r := run("hotspotFraction 0", study.TrafficSpec{Kind: "hotspot", HotspotFraction: &zero}, quickSim()); reflect.DeepEqual(r, results["hotspot"]) {
		t.Error("hotspotFraction 0 ran the default 0.3 fraction")
	}
	cold, unset := quickSim(), quickSim()
	cold.WarmupSlots = new(uint64)
	unset.WarmupSlots = nil
	if r := run("warmupSlots 0", study.TrafficSpec{}, cold); reflect.DeepEqual(r, results["uniform"]) ||
		reflect.DeepEqual(r, run("warmupSlots unset", study.TrafficSpec{}, unset)) {
		t.Error("warmupSlots 0 measured a warmed-up window, not the one from slot 0")
	}
	// Unknown kinds and bad references fail loudly.
	sc := study.Scenario{Traffic: study.TrafficSpec{Kind: "antigravity", Load: 0.1}, Sim: quickSim()}
	if _, err := study.RunScenario(sc); err == nil {
		t.Fatal("unknown traffic kind should fail")
	}
	sc = study.Scenario{DPM: "perpetualmotion", Sim: quickSim()}
	if _, err := study.RunScenario(sc); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

// TestWriteResultRecords: the machine-readable stream carries one
// record per completed point, with its enumeration index and resolved
// scenario.
func TestWriteResultRecords(t *testing.T) {
	gr, err := quickGrid().Run(context.Background(), study.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := study.WriteResultRecords(&buf, gr.Points); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(gr.Points) {
		t.Fatalf("records = %d, want %d", len(lines), len(gr.Points))
	}
	for i, line := range lines {
		var rec study.ResultRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.Index != i {
			t.Errorf("record %d carries index %d", i, rec.Index)
		}
		if rec.Scenario.Fabric.Ports == 0 {
			t.Errorf("record %d scenario is not resolved: %+v", i, rec.Scenario.Fabric)
		}
		if rec.Result.Power.TotalMW() != gr.Points[i].Result.Power.TotalMW() {
			t.Errorf("record %d power diverges from the grid point", i)
		}
	}
}

// TestRunScenarioNetworkFailures runs a network scenario with a
// failures block end to end: the resilience ledger arrives in the
// result, losses are accounted, and an empty block measures
// bit-identically to no block at all.
func TestRunScenarioNetworkFailures(t *testing.T) {
	base := func() study.Scenario {
		return study.Scenario{
			Model:   study.ModelSpec{Static: true},
			Traffic: study.TrafficSpec{Load: 0.2},
			DPM:     "idlegate",
			Sim:     quickSim(),
			Network: &study.NetworkSpec{Topology: "ring", Nodes: 4},
		}
	}
	node := 1
	sc := base()
	sc.Network.Failures = &study.FailureSpec{
		Events: []study.FaultEventSpec{
			{Slot: 100, Node: &node, Down: true},
			{Slot: 200, Node: &node, Down: false},
		},
		ResidualMW:       2,
		ReconvergeCostFJ: 100,
	}
	r, err := study.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Net.Resilience
	if res == nil {
		t.Fatal("failures block produced no resilience report")
	}
	if res.NodeDownSlots != 100 {
		t.Errorf("node down slots = %d, want 100", res.NodeDownSlots)
	}
	if res.ResidualFJ <= 0 || res.ReconvergeEvents == 0 {
		t.Errorf("failure energies missing: %+v", res)
	}
	if len(res.Flows) == 0 || len(res.Links) == 0 {
		t.Errorf("ledger tables missing: %d flows, %d links", len(res.Flows), len(res.Links))
	}

	plain, err := study.RunScenario(base())
	if err != nil {
		t.Fatal(err)
	}
	empty := base()
	empty.Network.Failures = &study.FailureSpec{ResidualMW: 9}
	withEmpty, err := study.RunScenario(empty)
	if err != nil {
		t.Fatal(err)
	}
	if withEmpty.Net.Resilience != nil {
		t.Error("empty failures block attached a resilience report")
	}
	if !reflect.DeepEqual(plain, withEmpty) {
		t.Error("empty failures block changed the measurement")
	}
}
