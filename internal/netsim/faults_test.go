package netsim

import (
	"reflect"
	"strings"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/sim"
	"fabricpower/internal/tech"
)

// TestFaultShardDeterminism pins the headline guarantee of the failure
// model: with an active fault schedule — generated link and router
// flaps plus explicit events — the full report, resilience ledger
// included, is bit-identical for any shard count on every topology.
func TestFaultShardDeterminism(t *testing.T) {
	topos := map[string]func() (*Topology, error){
		"chain":   func() (*Topology, error) { return Chain(6) },
		"ring":    func() (*Topology, error) { return Ring(5) },
		"star":    func() (*Topology, error) { return Star(5) },
		"fattree": func() (*Topology, error) { return FatTree2(2, 4) },
	}
	for name, build := range topos {
		t.Run(name, func(t *testing.T) {
			run := func(shards int) *Report {
				topo, err := build()
				if err != nil {
					t.Fatal(err)
				}
				cfg := testConfig(topo)
				cfg.Model.Static = core.DefaultStaticPower()
				cfg.Policy = "idlegate"
				cfg.Load = 0.25
				cfg.Shards = shards
				l := topo.Links[0]
				cfg.Faults = &FaultPlan{
					MTBF: 120, MTTR: 40,
					NodeMTBF: 300, NodeMTTR: 30,
					Events: []FaultEvent{
						{Slot: 150, Node: -1, From: l.From, To: l.To, Down: true},
						{Slot: 220, Node: -1, From: l.From, To: l.To, Down: false},
					},
					ResidualMW:       2,
					ReconvergeCostFJ: 500,
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
			seq := run(1)
			if seq.Net.Resilience == nil {
				t.Fatal("active fault plan produced no resilience report")
			}
			for _, shards := range []int{2, 3, -1} {
				if par := run(shards); !reflect.DeepEqual(seq, par) {
					t.Errorf("shards=%d report differs from sequential under faults", shards)
				}
			}
		})
	}
}

// TestEmptyFaultPlanMatchesNil pins the fault-free fast path: a present
// but empty plan leaves the kernel bit-identical to no plan at all, and
// neither attaches a resilience report.
func TestEmptyFaultPlanMatchesNil(t *testing.T) {
	run := func(plan *FaultPlan) *Report {
		topo, err := FatTree2(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(topo)
		cfg.Model.Static = core.DefaultStaticPower()
		cfg.Policy = "idlegate"
		cfg.Load = 0.2
		cfg.Shards = 3
		cfg.Faults = plan
		net, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		rep, err := net.Run(100, 500)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	bare, empty := run(nil), run(&FaultPlan{ResidualMW: 5, ReconvergeCostFJ: 100})
	if bare.Net.Resilience != nil || empty.Net.Resilience != nil {
		t.Fatal("empty fault plan attached a resilience report")
	}
	if !reflect.DeepEqual(bare, empty) {
		t.Error("empty fault plan changed the report versus no plan")
	}
}

// TestLinkFaultPartitionsChain cuts the only path of a chain flow with
// an explicit event window and checks the ledger: injections during the
// outage are lost (the flow is parked, not queued), the pair's
// availability reflects the exact outage length, and delivery resumes
// after the repair.
func TestLinkFaultPartitionsChain(t *testing.T) {
	topo, err := Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(topo)
	cfg.Flows = []Flow{{Src: 0, Dst: 3, Rate: 0.5}}
	cfg.Faults = &FaultPlan{
		Events: []FaultEvent{
			{Slot: 500, Node: -1, From: 2, To: 1, Down: true}, // order-insensitive
			{Slot: 900, Node: -1, From: 1, To: 2, Down: false},
		},
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := net.Run(0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Net.Resilience
	if res == nil {
		t.Fatal("no resilience report")
	}
	if res.LostCells == 0 {
		t.Fatal("cutting the only path lost no cells")
	}
	if len(res.Flows) != 1 {
		t.Fatalf("flow ledger has %d entries, want 1", len(res.Flows))
	}
	fs := res.Flows[0]
	if fs.Lost != res.LostCells {
		t.Errorf("flow lost %d cells but total says %d", fs.Lost, res.LostCells)
	}
	if fs.Offered < fs.Delivered+fs.Lost {
		t.Errorf("ledger over-counts: offered %d < delivered %d + lost %d", fs.Offered, fs.Delivered, fs.Lost)
	}
	// ~200 injections at rate 0.5 fall inside the 400-slot outage; all
	// are lost. Allow slack for the Bernoulli stream.
	if fs.Lost < 150 {
		t.Errorf("lost %d cells, want ~200 from the outage window", fs.Lost)
	}
	// Cells keep arriving after the repair: deliveries exceed what fit
	// before the cut.
	if fs.Delivered < 400 {
		t.Errorf("delivered %d cells, want most of the healthy window's ~800", fs.Delivered)
	}
	var cut *sim.LinkAvailability
	for i := range res.Links {
		if res.Links[i].From == 1 && res.Links[i].To == 2 {
			cut = &res.Links[i]
		} else if res.Links[i].Availability != 1 {
			t.Errorf("healthy pair %d–%d reports availability %g", res.Links[i].From, res.Links[i].To, res.Links[i].Availability)
		}
	}
	if cut == nil {
		t.Fatal("pair 1–2 missing from the availability table")
	}
	if cut.DownSlots != 400 {
		t.Errorf("pair 1–2 down %d slots, want exactly 400", cut.DownSlots)
	}
	if want := 1 - 400.0/2000.0; cut.Availability != want {
		t.Errorf("pair 1–2 availability %g, want %g", cut.Availability, want)
	}
	// Down + up each re-converged; only the repair re-installed a path.
	if res.ReconvergeEvents != 2 {
		t.Errorf("reconverge events = %d, want 2", res.ReconvergeEvents)
	}
	if res.ReroutedFlows != 1 {
		t.Errorf("rerouted flows = %d, want 1 (the repair)", res.ReroutedFlows)
	}
}

// TestNodeFaultReroutesRing kills a transit router on a ring and checks
// that the flow re-routes the long way around, the router's residual
// power is integrated exactly over its outage, and the re-convergence
// cost is charged per rerouted flow.
func TestNodeFaultReroutesRing(t *testing.T) {
	topo, err := Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	down := 1
	cfg := testConfig(topo)
	cfg.Flows = []Flow{{Src: 0, Dst: 2, Rate: 0.4}}
	cfg.Faults = &FaultPlan{
		Events: []FaultEvent{
			{Slot: 500, Node: down, Down: true},
			{Slot: 900, Node: down, Down: false},
		},
		ResidualMW:       3,
		ReconvergeCostFJ: 250,
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := net.Run(0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Net.Resilience
	if res == nil {
		t.Fatal("no resilience report")
	}
	// The ring has a detour, so the outage costs at most the in-flight
	// cells, not the whole window's injections.
	fs := res.Flows[0]
	if fs.Delivered < 700 {
		t.Errorf("delivered %d cells, want most of the ~800 offered (detour exists)", fs.Delivered)
	}
	if fs.Lost > 20 {
		t.Errorf("lost %d cells, want only the handful in flight at the cut", fs.Lost)
	}
	// The detour raises the mean path length above the healthy 2 hops.
	if rep.Net.AvgHops <= 2 {
		t.Errorf("avg hops = %g, want > 2 from the detour window", rep.Net.AvgHops)
	}
	if res.NodeDownSlots != 400 {
		t.Errorf("node down slots = %d, want exactly 400", res.NodeDownSlots)
	}
	slotNS := cfg.Model.Tech.CellTimeNS(cfg.CellBits)
	if want := 400 * 3.0 * slotNS * 1e3; res.ResidualFJ != want {
		t.Errorf("residual energy = %g fJ, want %g", res.ResidualFJ, want)
	}
	// Down reroutes onto the detour, up reroutes back: 2 events, 2
	// rerouted flows, each charged the plan's cost.
	if res.ReconvergeEvents != 2 || res.ReroutedFlows != 2 {
		t.Errorf("reconverge events/rerouted = %d/%d, want 2/2", res.ReconvergeEvents, res.ReroutedFlows)
	}
	if want := 2 * 250.0; res.ReconvergeFJ != want {
		t.Errorf("reconverge energy = %g fJ, want %g", res.ReconvergeFJ, want)
	}
	// Both fault energies surface in the power totals.
	durNS := 2000 * slotNS
	if want := tech.PowerMW(res.ResidualFJ+res.ReconvergeFJ, durNS); rep.Power.StaticMW < want {
		t.Errorf("total static %g mW does not include the %g mW fault overhead", rep.Power.StaticMW, want)
	}
}

// TestFaultPlanValidation rejects malformed plans up front.
func TestFaultPlanValidation(t *testing.T) {
	topo, err := Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		plan FaultPlan
		want string
	}{
		{"negative mtbf", FaultPlan{MTBF: -1, MTTR: 1}, "must be >= 0"},
		{"mtbf without mttr", FaultPlan{MTBF: 50}, "needs MTTR > 0"},
		{"node mtbf without mttr", FaultPlan{NodeMTBF: 50}, "needs node MTTR > 0"},
		{"negative residual", FaultPlan{Events: []FaultEvent{{Node: 0, Down: true}}, ResidualMW: -1}, "residual power"},
		{"node out of range", FaultPlan{Events: []FaultEvent{{Node: 9, Down: true}}}, "out of range"},
		{"not a link", FaultPlan{Events: []FaultEvent{{Node: -1, From: 0, To: 2, Down: true}}}, "no link"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(topo)
			cfg.Load = 0.1
			cfg.Faults = &tc.plan
			_, err := New(cfg)
			if err == nil {
				t.Fatalf("plan %+v accepted", tc.plan)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestNetworkCloseIdempotent pins Close-twice as a safe no-op for both
// sharded and single-threaded networks.
func TestNetworkCloseIdempotent(t *testing.T) {
	for _, shards := range []int{1, 3} {
		topo, err := Ring(5)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(topo)
		cfg.Load = 0.1
		cfg.Shards = shards
		net, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(0, 50); err != nil {
			t.Fatal(err)
		}
		net.Close()
		net.Close() // must not panic or hang
	}
}

// TestStepAfterClose pins the closed-network contract: Step panics with
// a message naming the misuse (instead of silently respawning worker
// goroutines), and Run returns an error.
func TestStepAfterClose(t *testing.T) {
	topo, err := Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(topo)
	cfg.Load = 0.1
	cfg.Shards = 2
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(0, 50); err != nil {
		t.Fatal(err)
	}
	net.Close()
	if _, err := net.Run(0, 50); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Run after Close returned %v, want a closed-network error", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Step after Close did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "closed") {
			t.Errorf("Step after Close panicked with %v, want a closed-network message", r)
		}
	}()
	net.Step(0)
}

// TestStepAdvancesRunClock pins that Step advances the clock Run
// continues from: stepping slots 0–9 by hand and then running is the
// same as one run with ten more warmup slots, and a Step that is not
// the network's next slot panics instead of replaying slots.
func TestStepAdvancesRunClock(t *testing.T) {
	build := func() *Network {
		topo, err := FatTree2(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(topo)
		cfg.Load = 0.2
		net, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	stepped := build()
	defer stepped.Close()
	for slot := uint64(0); slot < 10; slot++ {
		stepped.Step(slot)
	}
	got, err := stepped.Run(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	ran := build()
	defer ran.Close()
	want, err := ran.Run(10, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Step(0..9) then Run(0, 200) differs from Run(10, 200): max latency %d vs %d",
			got.MaxLatencySlots, want.MaxLatencySlots)
	}
	for _, slot := range []uint64{0, 209, 211} {
		func() {
			defer func() {
				r := recover()
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "out of order") {
					t.Errorf("Step(%d) at slot 210 panicked with %v, want an out-of-order message", slot, r)
				}
			}()
			stepped.Step(slot)
		}()
	}
	stepped.Step(210)
}
