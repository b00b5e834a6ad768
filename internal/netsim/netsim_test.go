package netsim

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/packet"
	"fabricpower/internal/router"
	"fabricpower/internal/sim"
	"fabricpower/internal/telemetry"
	"fabricpower/internal/telemetry/trace"
	"fabricpower/internal/traffic"
)

func testConfig(t *Topology) Config {
	return Config{
		Topology: t,
		Arch:     core.Crossbar,
		Model:    core.PaperModel(),
		CellBits: 256,
		Seed:     7,
	}
}

func TestTopologyBuilders(t *testing.T) {
	cases := []struct {
		name              string
		topo              func() (*Topology, error)
		nodes, links, deg int
	}{
		{"chain", func() (*Topology, error) { return Chain(4) }, 4, 6, 2},
		{"ring", func() (*Topology, error) { return Ring(5) }, 5, 10, 2},
		{"star", func() (*Topology, error) { return Star(5) }, 5, 8, 4},
		{"fattree", func() (*Topology, error) { return FatTree2(2, 4) }, 6, 16, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := tc.topo()
			if err != nil {
				t.Fatal(err)
			}
			if topo.Nodes != tc.nodes {
				t.Errorf("nodes = %d, want %d", topo.Nodes, tc.nodes)
			}
			if len(topo.Links) != tc.links {
				t.Errorf("links = %d, want %d (directed)", len(topo.Links), tc.links)
			}
			maxDeg := 0
			for u := 0; u < topo.Nodes; u++ {
				if d := topo.Degree(u); d > maxDeg {
					maxDeg = d
				}
			}
			if maxDeg != tc.deg {
				t.Errorf("max degree = %d, want %d", maxDeg, tc.deg)
			}
			if topo.Ports&(topo.Ports-1) != 0 || topo.Ports < maxDeg {
				t.Errorf("ports = %d: want power of two >= degree %d", topo.Ports, maxDeg)
			}
			// Every link pairs with its reverse on the same ports.
			for _, l := range topo.Links {
				ri := topo.LinkIndex(l.To, l.From)
				if ri < 0 {
					t.Fatalf("link %d→%d has no reverse", l.From, l.To)
				}
				r := topo.Links[ri]
				if r.FromPort != l.ToPort || r.ToPort != l.FromPort {
					t.Errorf("link %d→%d ports (%d,%d) reverse (%d,%d): want mirrored",
						l.From, l.To, l.FromPort, l.ToPort, r.FromPort, r.ToPort)
				}
			}
			// Hosts have edge ports.
			for _, h := range topo.Hosts {
				if len(topo.EdgePorts(h)) == 0 {
					t.Errorf("host %d has no edge ports", h)
				}
			}
		})
	}
}

func TestFatTreeSpinesAreTransit(t *testing.T) {
	topo, err := FatTree2(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Hosts) != 4 {
		t.Fatalf("hosts = %v, want the 4 leaves", topo.Hosts)
	}
	for _, h := range topo.Hosts {
		if h < 2 {
			t.Fatalf("spine %d listed as host", h)
		}
	}
}

func TestTopologyRejectsBadInput(t *testing.T) {
	if _, err := NewTopology("x", 3, [][2]int{{0, 0}}, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewTopology("x", 4, [][2]int{{0, 1}, {2, 3}}, 0); err == nil {
		t.Error("disconnected topology accepted")
	}
	if _, err := NewTopology("x", 3, [][2]int{{0, 1}, {1, 2}}, 3); err == nil {
		t.Error("non-power-of-two ports accepted")
	}
}

func TestMatrices(t *testing.T) {
	for _, m := range []TrafficMatrix{UniformMatrix{}, GravityMatrix{}, HotspotMatrix{}} {
		rates, err := m.Rates(4, 0.4)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for i := range rates {
			if rates[i][i] != 0 {
				t.Errorf("%s: self-demand at %d", m.Name(), i)
			}
			row := 0.0
			for _, r := range rates[i] {
				row += r
			}
			if math.Abs(row-0.4) > 1e-12 {
				t.Errorf("%s: host %d offers %g, want 0.4", m.Name(), i, row)
			}
		}
	}
	// Hotspot concentrates half of every other host's load on host 0.
	rates, err := HotspotMatrix{}.Rates(4, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if rates[2][0] != 0.2 || rates[2][1] != 0.1 {
		t.Errorf("hotspot rates %g (to host 0) and %g (to host 1), want 0.2 and 0.1", rates[2][0], rates[2][1])
	}
}

// routePaths routes flows into a fresh Routes and returns a copy of
// every path.
func routePaths(p RoutingPolicy, t *Topology, flows []Flow) ([][]int, error) {
	var out Routes
	return routeInto(p, t, flows, &out)
}

// routeInto routes flows into out, as the network does, and returns a
// copy of every path.
func routeInto(p RoutingPolicy, t *Topology, flows []Flow, out *Routes) ([][]int, error) {
	out.reset(len(flows))
	if err := p.Route(t, flows, out); err != nil {
		return nil, err
	}
	paths := make([][]int, len(flows))
	for k := range paths {
		paths[k] = slices.Clone(out.path(k))
	}
	return paths, nil
}

func TestShortestPathRouting(t *testing.T) {
	topo, err := Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	flows := []Flow{{Src: 0, Dst: 3, Rate: 0.1}}
	paths, err := routePaths(ShortestPath{}, topo, flows)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(paths[0], want) {
		t.Errorf("path = %v, want %v", paths[0], want)
	}
}

// appendingShortestPath is ShortestPath.Route as it was before the BFS
// queue and candidate buffers were reused and paths preallocated: a
// fresh candidate slice per hop and paths grown by append. It is the
// differential oracle for the buffer-reusing Route.
func appendingShortestPath(t *Topology, flows []Flow) [][]int {
	paths := make([][]int, len(flows))
	distTo := map[int][]int{}
	for fi, f := range flows {
		dist, ok := distTo[f.Dst]
		if !ok {
			dist = make([]int, t.Nodes)
			for i := range dist {
				dist[i] = -1
			}
			dist[f.Dst] = 0
			queue := []int{f.Dst}
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for _, v := range t.Neighbors(u) {
					if dist[v] < 0 {
						dist[v] = dist[u] + 1
						queue = append(queue, v)
					}
				}
			}
			distTo[f.Dst] = dist
		}
		path := []int{f.Src}
		for u := f.Src; u != f.Dst; {
			var cand []int
			for _, v := range t.Neighbors(u) {
				if dist[v] == dist[u]-1 {
					cand = append(cand, v)
				}
			}
			u = cand[fi%len(cand)]
			path = append(path, u)
		}
		paths[fi] = path
	}
	return paths
}

// TestShortestPathMatchesAppendingRoute checks Route against the
// appending oracle on every built-in topology shape and on fat-trees
// with random routers and links failed, routing every connected pair.
// One Routes serves every topology, as it serves every re-convergence.
func TestShortestPathMatchesAppendingRoute(t *testing.T) {
	var topos []*Topology
	for _, build := range []func() (*Topology, error){
		func() (*Topology, error) { return Chain(5) },
		func() (*Topology, error) { return Ring(7) },
		func() (*Topology, error) { return Star(6) },
		func() (*Topology, error) { return FatTree2(4, 8) },
	} {
		topo, err := build()
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		ft := topos[3]
		nodeDown := make([]bool, ft.Nodes)
		linkUp := make([]bool, len(ft.Links))
		for u := range nodeDown {
			nodeDown[u] = rng.Intn(8) == 0
		}
		// Links fail as bidirectional pairs, as the fault model does.
		for li, l := range ft.Links {
			if l.From < l.To {
				up := rng.Intn(6) != 0
				linkUp[li], linkUp[ft.LinkIndex(l.To, l.From)] = up, up
			}
		}
		masked := new(Topology)
		ft.maskInto(masked, nodeDown, linkUp)
		topos = append(topos, masked)
	}
	var out Routes
	for ti, topo := range topos {
		comp, _ := components(topo, nil, nil)
		var flows []Flow
		for src := 0; src < topo.Nodes; src++ {
			for dst := 0; dst < topo.Nodes; dst++ {
				if src != dst && comp[src] == comp[dst] {
					flows = append(flows, Flow{Src: src, Dst: dst, Rate: 0.1})
				}
			}
		}
		got, err := routeInto(ShortestPath{}, topo, flows, &out)
		if err != nil {
			t.Fatal(err)
		}
		if want := appendingShortestPath(topo, flows); !reflect.DeepEqual(got, want) {
			t.Fatalf("topology %d (%s): Route paths differ from the appending oracle", ti, topo.Name)
		}
	}
}

func TestShortestPathSpreadsEqualCost(t *testing.T) {
	topo, err := FatTree2(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Leaves are nodes 2 and 3; both spines (0, 1) give 2-hop paths.
	flows := []Flow{
		{Src: 2, Dst: 3, Rate: 0.1},
		{Src: 3, Dst: 2, Rate: 0.1},
	}
	paths, err := routePaths(ShortestPath{}, topo, flows)
	if err != nil {
		t.Fatal(err)
	}
	if paths[0][1] == paths[1][1] {
		t.Errorf("equal-cost flows both chose spine %d; want spread", paths[0][1])
	}
}

func TestConsolidateConcentrates(t *testing.T) {
	topo, err := FatTree2(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := buildFlows(topo, UniformMatrix{}, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := routePaths(Consolidate{}, topo, flows)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, p := range paths {
		for _, u := range p {
			used[u] = true
		}
	}
	if used[0] && used[1] {
		t.Error("consolidating routing used both spines; want one left idle")
	}
	// The baseline touches both spines under the same demand.
	spaths, err := routePaths(ShortestPath{}, topo, flows)
	if err != nil {
		t.Fatal(err)
	}
	sUsed := map[int]bool{}
	for _, p := range spaths {
		for _, u := range p {
			sUsed[u] = true
		}
	}
	if !sUsed[0] || !sUsed[1] {
		t.Error("shortest-path routing left a spine unused; spread broken")
	}
}

// perHopConsolidate is the reference form of Consolidate.Route: fresh
// search arrays per flow, and every relaxation looks its link up with
// LinkIndex instead of reading the adjacency's parallel link index.
func perHopConsolidate(t *Topology, flows []Flow) [][]int {
	paths := make([][]int, len(flows))
	linkRate := make([]float64, len(t.Links))
	nodeUsed := make([]bool, t.Nodes)
	for _, f := range flows {
		nodeUsed[f.Src] = true
		nodeUsed[f.Dst] = true
	}
	order := make([]int, len(flows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if flows[order[a]].Rate != flows[order[b]].Rate {
			return flows[order[a]].Rate > flows[order[b]].Rate
		}
		return order[a] < order[b]
	})
	for _, fi := range order {
		f := &flows[fi]
		dist := make([]float64, t.Nodes)
		prev := make([]int, t.Nodes)
		done := make([]bool, t.Nodes)
		for i := range dist {
			dist[i] = math.MaxFloat64
			prev[i] = -1
		}
		dist[f.Src] = 0
		for {
			u, best := -1, math.MaxFloat64
			for i := 0; i < t.Nodes; i++ {
				if !done[i] && dist[i] < best {
					u, best = i, dist[i]
				}
			}
			if u < 0 || u == f.Dst {
				break
			}
			done[u] = true
			for _, v := range t.Neighbors(u) {
				if done[v] {
					continue
				}
				li := t.LinkIndex(u, v)
				cost := 1.0
				if !nodeUsed[v] {
					cost += nodeWakeCost
				}
				if linkRate[li] == 0 {
					cost += linkWakeCost
				}
				if linkRate[li]+f.Rate > consolidateFill*float64(t.Links[li].Capacity) {
					cost += overloadCost
				}
				if d := dist[u] + cost; d < dist[v] {
					dist[v] = d
					prev[v] = u
				}
			}
		}
		var rev []int
		for u := f.Dst; u >= 0; u = prev[u] {
			rev = append(rev, u)
		}
		path := make([]int, len(rev))
		for i, u := range rev {
			path[len(rev)-1-i] = u
		}
		paths[fi] = path
		for h := 0; h+1 < len(path); h++ {
			nodeUsed[path[h]] = true
			nodeUsed[path[h+1]] = true
			linkRate[t.LinkIndex(path[h], path[h+1])] += f.Rate
		}
	}
	return paths
}

// TestConsolidateMatchesPerHopLinkIndex routes every built-in topology
// shape (and the 64-router benchmark fat-tree, and one with faster
// links) at several loads, and demands the exact paths of the per-hop
// LinkIndex reference.
func TestConsolidateMatchesPerHopLinkIndex(t *testing.T) {
	builds := map[string]func() (*Topology, error){
		"chain":     func() (*Topology, error) { return Chain(6) },
		"ring":      func() (*Topology, error) { return Ring(7) },
		"star":      func() (*Topology, error) { return Star(6) },
		"fattree":   func() (*Topology, error) { return FatTree2(4, 8) },
		"fattree64": func() (*Topology, error) { return FatTree2(21, 43) },
		"fattree-fast": func() (*Topology, error) {
			topo, err := FatTree2(3, 6)
			if err == nil {
				for li := range topo.Links {
					topo.Links[li].Capacity = 1 + li%3
				}
			}
			return topo, err
		},
	}
	var out Routes // reused across topologies, as across re-convergences
	for name, build := range builds {
		topo, err := build()
		if err != nil {
			t.Fatal(err)
		}
		// Gravity demands have distinct rates, so they also check the
		// heaviest-first routing order against the reference's sort.
		for _, m := range []TrafficMatrix{UniformMatrix{}, GravityMatrix{}} {
			for _, load := range []float64{0.05, 0.2, 0.6} {
				flows, err := buildFlows(topo, m, load)
				if err != nil {
					t.Fatal(err)
				}
				got, err := routeInto(Consolidate{}, topo, flows, &out)
				if err != nil {
					t.Fatal(err)
				}
				if want := perHopConsolidate(topo, flows); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s load %g: paths differ from the per-hop LinkIndex reference", name, m.Name(), load)
				}
			}
		}
	}
}

// TestMultiHopDelivery pins the end-to-end path: cells injected at one
// end of a 4-router chain arrive at the far end, crossing every
// intermediate router, with per-hop latency accounted.
func TestMultiHopDelivery(t *testing.T) {
	topo, err := Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(topo)
	cfg.flows = []Flow{{Src: 0, Dst: 3, Rate: 0.3}}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := net.Run(0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Net.DeliveredCells == 0 {
		t.Fatal("no cells delivered end to end")
	}
	if rep.Net.DeliveryRatio < 0.95 {
		t.Errorf("delivery ratio = %.3f, want ~1 at 30%% load", rep.Net.DeliveryRatio)
	}
	if rep.Net.AvgHops != 3 {
		t.Errorf("avg hops = %g, want 3", rep.Net.AvgHops)
	}
	// Each of the 3 links adds at least one slot of latency on top of
	// the source fabric's transit.
	if rep.AvgLatencySlots < 3 {
		t.Errorf("avg end-to-end latency = %.2f slots, want >= 3", rep.AvgLatencySlots)
	}
	// Every router on the path moved the cells (transit egress counts).
	for u := 0; u < 4; u++ {
		if rep.PerNode[u].Throughput == 0 {
			t.Errorf("node %d saw no traffic; chain transit broken", u)
		}
	}
	// Off-path direction stays silent: no cell ever leaves node 3
	// toward node 2.
	if got := net.Router(3).Metrics().DeliveredCells; got != rep.Net.DeliveredCells {
		t.Errorf("node 3 delivered %d cells, want exactly the %d end-to-end deliveries", got, rep.Net.DeliveredCells)
	}
}

// TestNetworkTotalsEqualSum pins the aggregation: the network report's
// total power and energy are exactly the sum of the per-router reports.
func TestNetworkTotalsEqualSum(t *testing.T) {
	topo, err := Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	model := core.PaperModel()
	model.Static = core.DefaultStaticPower()
	cfg := testConfig(topo)
	cfg.Model = model
	cfg.Policy = "idlegate"
	cfg.Load = 0.2
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := net.Run(200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var total [4]float64
	var energy core.Breakdown
	for _, res := range rep.PerNode {
		total[0] += res.Power.SwitchMW
		total[1] += res.Power.BufferMW
		total[2] += res.Power.WireMW
		total[3] += res.Power.StaticMW
		energy = energy.Add(res.Energy)
	}
	if rep.Power.SwitchMW != total[0] || rep.Power.BufferMW != total[1] ||
		rep.Power.WireMW != total[2] || rep.Power.StaticMW != total[3] {
		t.Errorf("Total = %+v, want per-node sum %v", rep.Power, total)
	}
	if rep.Energy != energy {
		t.Errorf("Energy = %+v, want per-node sum %+v", rep.Energy, energy)
	}
	if rep.Power.TotalMW() <= 0 {
		t.Error("network drew no power")
	}
}

// TestNetworkRunDeterministic pins run-to-run determinism of the whole
// kernel: identical configs produce identical reports.
func TestNetworkRunDeterministic(t *testing.T) {
	run := func() *Report {
		topo, err := FatTree2(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(topo)
		cfg.Policy = "composite"
		cfg.Model.Static = core.DefaultStaticPower()
		cfg.Matrix = GravityMatrix{}
		cfg.Routing = Consolidate{}
		cfg.Load = 0.25
		net, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := net.Run(150, 800)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("identical network runs diverged")
	}
}

// TestClosedNetworkStreamsRecycleExactly checks that a network built
// from streams recycled by Close reports exactly what one built from
// fresh streams does, for every built-in traffic kind, including after
// the streams served a network of another seed.
func TestClosedNetworkStreamsRecycleExactly(t *testing.T) {
	for _, kind := range []Traffic{{Kind: "uniform"}, {Kind: "bursty", MeanBurstSlots: 8}, {Kind: "packet"}} {
		t.Run(kind.Kind, func(t *testing.T) {
			run := func(seed int64) *Report {
				topo, err := FatTree2(2, 4)
				if err != nil {
					t.Fatal(err)
				}
				cfg := testConfig(topo)
				cfg.Load, cfg.Traffic, cfg.Seed = 0.3, kind, seed
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
			for streamPool.Get() != nil {
			}
			fresh := run(7)
			run(8)
			if recycled := run(7); !reflect.DeepEqual(fresh, recycled) {
				t.Error("a network on recycled streams diverged from one on fresh streams")
			}
		})
	}
	// Link and router renewal streams come from the same pool. The
	// networks run as parallel subtests, as Grid.Run's workers build
	// and close them, so they take and return streams concurrently.
	t.Run("faulted", func(t *testing.T) {
		run := func(t *testing.T, seed int64) *Report {
			topo, err := FatTree2(2, 4)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(topo)
			cfg.Load, cfg.Seed = 0.3, seed
			cfg.Faults = &FaultPlan{MTBF: 150, MTTR: 40, NodeMTBF: 300, NodeMTTR: 30}
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
		for streamPool.Get() != nil {
		}
		fresh := map[int64]*Report{7: run(t, 7), 8: run(t, 8)}
		if r := fresh[7].Net.Resilience; r == nil || r.ReconvergeEvents == 0 {
			t.Fatal("the fault plan toggled nothing in the window; the renewal streams are untested")
		}
		for i := 0; i < 4; i++ {
			seed := int64(7 + i%2)
			t.Run(fmt.Sprintf("net=%d", i), func(t *testing.T) {
				t.Parallel()
				for round := 0; round < 3; round++ {
					if got := run(t, seed); !reflect.DeepEqual(got, fresh[seed]) {
						t.Errorf("round %d: a seed-%d network on recycled streams diverged from one on fresh streams", round, seed)
					}
				}
			})
		}
	})
}

// TestBackpressure pins the finite-link behavior: a hotspot overload
// backs cells up without losing accounting — every offered cell is
// delivered, dropped or still queued somewhere.
func TestBackpressure(t *testing.T) {
	topo, err := Star(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(topo)
	cfg.MaxQueueCells = 8
	cfg.LinkQueueCells = 4
	// Every other host hammers host 1 at 0.9 cells per slot.
	hot := topo.Hosts[1]
	for _, h := range topo.Hosts {
		if h != hot {
			cfg.flows = append(cfg.flows, Flow{Src: h, Dst: hot, Rate: 0.9})
		}
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := net.Run(0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Net.DeliveryRatio >= 1 {
		t.Error("overloaded hotspot delivered everything; backpressure untested")
	}
	var queued, inFlight uint64
	for u, res := range rep.PerNode {
		queued += uint64(res.QueuedCells)
		inFlight += uint64(net.Router(u).InFlight())
	}
	var onLinks uint64
	for i := range net.links {
		onLinks += uint64(net.links[i].size)
	}
	accounted := rep.Net.DeliveredCells + rep.Net.NodeDroppedCells + rep.Net.LinkDroppedCells + queued + inFlight + onLinks
	if accounted != rep.Net.OfferedCells {
		t.Errorf("cells unaccounted: offered %d, accounted %d (delivered %d dropped %d+%d queued %d fabric %d links %d)",
			rep.Net.OfferedCells, accounted, rep.Net.DeliveredCells, rep.Net.NodeDroppedCells,
			rep.Net.LinkDroppedCells, queued, inFlight, onLinks)
	}
}

// TestConsolidateIdlegateBeatsShortestAlwayson is the headline
// regression of the network subsystem: at low load, energy-aware
// consolidating routing plus idle-gating DPM draws less total network
// power than shortest-path spreading on always-on routers — the
// network-level claim of the switch-off routing literature, priced by
// the DAC 2002 per-device model.
func TestConsolidateIdlegateBeatsShortestAlwayson(t *testing.T) {
	model := core.PaperModel()
	model.Static = core.DefaultStaticPower()
	for _, load := range []float64{0.10, 0.20} {
		run := func(routing RoutingPolicy, policy string) *Report {
			topo, err := FatTree2(2, 4)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(topo)
			cfg.Model = model
			cfg.Routing = routing
			cfg.Policy = policy
			cfg.Load = load
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := net.Run(300, 2000)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		base := run(ShortestPath{}, "alwayson")
		green := run(Consolidate{}, "idlegate")
		if green.Power.TotalMW() >= base.Power.TotalMW() {
			t.Errorf("load %.0f%%: consolidate+idlegate %.3f mW >= shortest+alwayson %.3f mW",
				load*100, green.Power.TotalMW(), base.Power.TotalMW())
		}
		// The savings must not come from undelivered traffic.
		if green.Net.DeliveryRatio < 0.95*base.Net.DeliveryRatio {
			t.Errorf("load %.0f%%: consolidation tanked delivery: %.3f vs %.3f",
				load*100, green.Net.DeliveryRatio, base.Net.DeliveryRatio)
		}
	}
}

// TestNetworkRunContinues pins the slot clock across Run calls: a
// second measured window on the same network must not restart at slot
// 0 (which would underflow latency for cells still in flight).
func TestNetworkRunContinues(t *testing.T) {
	topo, err := Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(topo)
	cfg.flows = []Flow{{Src: 0, Dst: 3, Rate: 0.4}}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(100, 500); err != nil {
		t.Fatal(err)
	}
	rep, err := net.Run(0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Net.DeliveredCells == 0 {
		t.Fatal("second window delivered nothing")
	}
	if rep.MaxLatencySlots > 1000 {
		t.Errorf("second window latency %d slots: slot clock restarted and underflowed", rep.MaxLatencySlots)
	}
}

func TestNetworkRejectsZeroCapacityLink(t *testing.T) {
	topo, err := Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	topo.Links[2].Capacity = 0
	cfg := testConfig(topo)
	cfg.flows = []Flow{{Src: 0, Dst: 3, Rate: 0.1}}
	if _, err := New(cfg); err == nil {
		t.Error("zero-capacity link accepted; transit would silently blackhole")
	}
}

// cutoffSource drives a wrapped source until the cutoff slot and goes
// silent after it, so allocation tests can measure a live, warmed
// network without the (necessarily allocating) cell creation.
type cutoffSource struct {
	inner  FlowSource
	cutoff uint64
}

func (s *cutoffSource) NextBlock(first uint64) uint64 {
	if first >= s.cutoff {
		return 0
	}
	m := s.inner.NextBlock(first)
	if k := s.cutoff - first; k < BlockSlots {
		m &= 1<<k - 1
	}
	return m
}

// TestNetworkRouterSlotAllocationFree extends the single-device
// hot-path guarantee to the network kernel, sequential and sharded
// alike: stepping every managed router, forwarding its delivered cells
// (ring-buffer links, flow state carried in the cells, reused
// outboxes) and running the per-slot fork-join must not touch the
// allocator. This is the drained-network pin: the (non-Bernoulli,
// bursty) sources are cut off after warmup.
// TestNetworkLiveTrafficAllocationFree pins the same with injection
// running.
func TestNetworkRouterSlotAllocationFree(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			topo, err := Ring(4)
			if err != nil {
				t.Fatal(err)
			}
			model := core.PaperModel()
			model.Static = core.DefaultStaticPower()
			cfg := testConfig(topo)
			cfg.Model = model
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
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			// Warm the queues, slice capacities and the shard pool with
			// live traffic.
			slot := uint64(0)
			for ; slot < 500; slot++ {
				net.Step(slot)
			}
			allocs := testing.AllocsPerRun(300, func() {
				net.Step(slot)
				slot++
			})
			if allocs != 0 {
				t.Errorf("sharded slot loop allocates %.1f times per slot, want 0", allocs)
			}
		})
	}
}

// TestNetworkShardDeterminism pins the tentpole guarantee: for every
// topology and traffic kind, the sharded kernel is bit-identical for
// any shard count.
func TestNetworkShardDeterminism(t *testing.T) {
	tr := traffic.Record(mustInjector(t), 200)
	topos := map[string]func() (*Topology, error){
		"chain":   func() (*Topology, error) { return Chain(6) },
		"ring":    func() (*Topology, error) { return Ring(5) },
		"star":    func() (*Topology, error) { return Star(5) },
		"fattree": func() (*Topology, error) { return FatTree2(2, 4) },
	}
	kinds := []Traffic{
		{Kind: "uniform"},
		{Kind: "bursty", MeanBurstSlots: 8},
		{Kind: "packet"},
		{Kind: "trace", Trace: tr},
	}
	for name, build := range topos {
		for _, kind := range kinds {
			kindName := kind.Kind
			t.Run(name+"/"+kindName, func(t *testing.T) {
				run := func(shards int) *Report {
					topo, err := build()
					if err != nil {
						t.Fatal(err)
					}
					cfg := testConfig(topo)
					cfg.Model.Static = core.DefaultStaticPower()
					cfg.Policy = "idlegate"
					cfg.Load = 0.25
					cfg.Traffic = kind
					cfg.Shards = shards
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
				if seq.Net.DeliveredCells == 0 {
					t.Fatalf("%s/%s delivered nothing", name, kindName)
				}
				for _, shards := range []int{2, 3, -1} {
					if par := run(shards); !reflect.DeepEqual(seq, par) {
						t.Errorf("shards=%d report differs from sequential", shards)
					}
				}
			})
		}
	}
}

// TestShardedRunYields: a sharded slot can finish without blocking —
// the coordinator may claim every shard itself — so Run must still
// hand the processor over. With one processor, a goroutine started
// just before a 2-shard Run has to get to run before Run delivers its
// last telemetry sample; a short run ends well inside the runtime's
// 10 ms preemption tick, so only Run's own yields can let it in.
func TestShardedRunYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	topo, err := Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Bool
	ranBeforeLast := false
	cfg := telTestConfig(topo)
	cfg.Shards = 2
	cfg.Telemetry = &sim.TelemetryConfig{Every: 50, Emit: func(v any) {
		if _, ok := v.(*TelemetrySample); ok {
			ranBeforeLast = ran.Load()
		}
	}}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	go ran.Store(true)
	if _, err := net.Run(50, 150); err != nil {
		t.Fatal(err)
	}
	if !ranBeforeLast {
		t.Error("a goroutine started before a 2-shard Run had not run by its last telemetry sample")
	}
}

func mustInjector(tb testing.TB) *traffic.Injector {
	tb.Helper()
	in, err := traffic.NewInjector(4, 0.3, packet.Config{CellBits: 256, BusWidth: 32}, nil, 5)
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// TestNetworkTrafficKindsShapePower pins the point of routing traffic
// kinds through the network: at equal average load, bursty, packet and
// trace arrivals produce different power totals than the Bernoulli
// baseline — traffic shape, not just average load, sets the bill.
func TestNetworkTrafficKindsShapePower(t *testing.T) {
	tr := traffic.Record(mustInjector(t), 200)
	run := func(kind Traffic) *Report {
		topo, err := FatTree2(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(topo)
		cfg.Model.Static = core.DefaultStaticPower()
		cfg.Policy = "idlegate"
		cfg.Load = 0.2
		cfg.Traffic = kind
		net, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		rep, err := net.Run(200, 1500)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Net.DeliveredCells == 0 {
			t.Fatalf("kind %q delivered nothing", kind.Kind)
		}
		return rep
	}
	base := run(Traffic{Kind: "uniform"})
	for _, kind := range []Traffic{
		{Kind: "bursty", MeanBurstSlots: 16},
		{Kind: "packet"},
		{Kind: "trace", Trace: tr},
	} {
		rep := run(kind)
		if diff := math.Abs(rep.Power.TotalMW() - base.Power.TotalMW()); diff < 1e-6 {
			t.Errorf("kind %q total %.6f mW indistinguishable from Bernoulli %.6f mW",
				kind.Kind, rep.Power.TotalMW(), base.Power.TotalMW())
		}
	}
}

// TestNetworkCustomFlowSource: the Traffic.custom hook drives injection
// with a caller-supplied process.
func TestNetworkCustomFlowSource(t *testing.T) {
	topo, err := Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(topo)
	cfg.flows = []Flow{{Src: 0, Dst: 3, Rate: 0.5}}
	cfg.Traffic = Traffic{custom: func(f Flow, fi int, seed int64) (FlowSource, error) {
		return everyThird{}, nil
	}}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := net.Run(0, 300)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Net.OfferedCells != 100 {
		t.Errorf("every-3rd-slot source offered %d cells over 300 slots, want 100", rep.Net.OfferedCells)
	}
	if rep.Net.DeliveredCells == 0 {
		t.Error("custom source delivered nothing")
	}
}

type everyThird struct{}

func (everyThird) NextBlock(first uint64) uint64 {
	var m uint64
	for i := uint64(0); i < BlockSlots; i++ {
		if (first+i)%3 == 0 {
			m |= 1 << i
		}
	}
	return m
}

// TestNetworkUnknownTrafficKind: name resolution fails loudly.
func TestNetworkUnknownTrafficKind(t *testing.T) {
	topo, err := Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(topo)
	cfg.Load = 0.2
	cfg.Traffic = Traffic{Kind: "antigravity"}
	if _, err := New(cfg); err == nil {
		t.Error("unknown traffic kind accepted")
	}
	cfg.Traffic = Traffic{Kind: "trace"} // no trace attached
	if _, err := New(cfg); err == nil {
		t.Error("trace kind without a trace accepted")
	}
}

func BenchmarkNetworkStep(b *testing.B) {
	topo, err := FatTree2(2, 4)
	if err != nil {
		b.Fatal(err)
	}
	model := core.PaperModel()
	model.Static = core.DefaultStaticPower()
	cfg := testConfig(topo)
	cfg.Model = model
	cfg.Policy = "composite"
	cfg.Routing = Consolidate{}
	cfg.Load = 0.3
	net, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	slot := uint64(0)
	for ; slot < 300; slot++ {
		net.Step(slot)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step(slot)
		slot++
	}
}

// bench64Topology builds the ≥64-router ring the sharded benchmark
// scales over, with 16-port routers so each node carries real fabric
// work.
func bench64Topology(tb testing.TB) *Topology {
	const nodes = 64
	edges := make([][2]int, 0, nodes)
	for i := 0; i < nodes; i++ {
		edges = append(edges, [2]int{i, (i + 1) % nodes})
	}
	topo, err := NewTopology("ring64", nodes, edges, 16)
	if err != nil {
		tb.Fatal(err)
	}
	return topo
}

// BenchmarkNetworkStepSharded measures the fork-join kernel on a
// 64-router backbone, sequential versus one shard per core — the
// scale-pass speedup the sharding exists for — and, per shard count,
// with the telemetry collector and the execution profiler detached
// versus attached (each sampling every 64 slots): the CI bench job
// tracks the enabled/off ratios against the <10% overhead budget.
func BenchmarkNetworkStepSharded(b *testing.B) {
	shardCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		shardCounts = append(shardCounts, n)
	}
	for _, shards := range shardCounts {
		for _, tel := range []string{"off", "on"} {
			for _, tr := range []string{"off", "on"} {
				b.Run(fmt.Sprintf("shards=%d/telemetry=%s/trace=%s", shards, tel, tr), func(b *testing.B) {
					model := core.PaperModel()
					model.Static = core.DefaultStaticPower()
					cfg := testConfig(bench64Topology(b))
					cfg.Model = model
					cfg.Policy = "idlegate"
					cfg.Load = 0.3
					cfg.Shards = shards
					if tel == "on" {
						w := telemetry.NewWriter(io.Discard)
						cfg.Telemetry = &sim.TelemetryConfig{
							Every: 64,
							Emit:  func(v any) { w.Emit(v) },
						}
					}
					if tr == "on" {
						cfg.Trace = &TraceConfig{Recorder: trace.NewRecorder(0), Every: 64}
					}
					net, err := New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					defer net.Close()
					slot := uint64(0)
					for ; slot < 100; slot++ {
						net.Step(slot)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						net.Step(slot)
						slot++
					}
				})
			}
		}
	}

	// Low-load group: the operating points the paper's power studies
	// live at (5–20% load) on a 64-router fat-tree, idle skipping on
	// versus the always-step kernel, under bursty permutation traffic —
	// each leaf sends one on/off flow to its ring neighbour at the
	// offered mean load. That is the workload the hybrid kernel exists
	// for (idle gaps between bursts dwarf the gate timeout, so routers
	// actually reach their idle fixpoints); all-pairs uniform Bernoulli
	// would instead bury every slot under 1806 per-flow arrival draws
	// that no kernel can skip. These are the sub-benchmarks the CI
	// bench gate holds against BENCH_baseline.json: at 10% load the
	// hybrid kernel must stay ≥2× faster than idleskip=off.
	for _, load := range []float64{0.05, 0.10, 0.20} {
		for _, skip := range []string{"on", "off"} {
			b.Run(fmt.Sprintf("lowload/load=%.2f/idleskip=%s", load, skip), func(b *testing.B) {
				model := core.PaperModel()
				model.Static = core.DefaultStaticPower()
				topo := bench64FatTree(b)
				cfg := testConfig(topo)
				cfg.Model = model
				cfg.Policy = "idlegate"
				cfg.flows = permutationFlows(topo, load)
				cfg.Traffic = Traffic{Kind: "bursty"}
				cfg.Shards = 1
				cfg.IdleSkip = skip
				net, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer net.Close()
				slot := uint64(0)
				for ; slot < 100; slot++ {
					net.Step(slot)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net.Step(slot)
					slot++
				}
			})
		}
	}
}

// BenchmarkNetworkStepJoin is the netsim/step rung where per-slot
// coordination dominates: the 64-router fat-tree at 5% bursty
// permutation load, where nearly every node-slot takes the idle path,
// stepped by one shard and by two. Results are identical for both; the
// ratio between them is the price (or gain) of the per-slot fork-join
// on the machine at hand.
func BenchmarkNetworkStepJoin(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			model := core.PaperModel()
			model.Static = core.DefaultStaticPower()
			topo := bench64FatTree(b)
			cfg := testConfig(topo)
			cfg.Model = model
			cfg.Policy = "idlegate"
			cfg.flows = permutationFlows(topo, 0.05)
			cfg.Traffic = Traffic{Kind: "bursty"}
			cfg.Shards = shards
			net, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer net.Close()
			slot := uint64(0)
			for ; slot < 100; slot++ {
				net.Step(slot)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step(slot)
				slot++
			}
		})
	}
}

// netFaultsConfig is the fabricbench net-faults network at load 0.30:
// Banyan/VOQ routers under the composite policy, shortest-path routing
// over the uniform matrix, and renewal link failures (MTBF 3000, MTTR
// 200 slots) when faults is set.
func netFaultsConfig(topo *Topology, faults bool) Config {
	cfg := testConfig(topo)
	cfg.Arch = core.Banyan
	cfg.Queue = router.VOQ
	cfg.Model.Static = core.DefaultStaticPower()
	cfg.CellBits = 1024
	cfg.Policy = "composite"
	cfg.Routing = ShortestPath{}
	cfg.Load = 0.30
	if faults {
		cfg.Faults = &FaultPlan{MTBF: 3000, MTTR: 200}
	}
	return cfg
}

// TestNewAllocatesPerNode pins that building a network allocates per
// router and per kind of storage, never per flow or per link: the
// 48-router fat-tree (992 flows, 1,024 links) allocates at most
// perNode more per extra router than the 12-router one (56 flows, 64
// links). Each flow's arrival stream is one allocation of its own
// (streams are pooled, not slabbed), so the builds run on an empty
// pool, are not closed, and the count leaves the streams out.
func TestNewAllocatesPerNode(t *testing.T) {
	build := func(spines, leaves int) (allocs float64, nodes int) {
		topo, err := FatTree2(spines, leaves)
		if err != nil {
			t.Fatal(err)
		}
		cfg := netFaultsConfig(topo, false)
		for streamPool.Get() != nil {
		}
		flows := 0
		allocs = testing.AllocsPerRun(5, func() {
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			flows = len(net.Flows())
		})
		return allocs - float64(flows), topo.Nodes
	}
	small, sn := build(4, 8)
	large, ln := build(16, 32)
	const perNode = 32
	if d := large - small; d > perNode*float64(ln-sn) {
		t.Errorf("%v allocations at %d routers, %v at %d: %.1f per extra router, want <= %d",
			small, sn, large, ln, d/float64(ln-sn), perNode)
	}
}

// BenchmarkNetworkBuild is the netsim/build rung: New on the
// fabricbench net-lowload network — the 48-router fat-tree with
// consolidating routing and 992 bursty flows — with an idle-gated
// manager per router. Each build's streams go back to the pool before
// the next, as between the points of a study.
func BenchmarkNetworkBuild(b *testing.B) {
	topo, err := FatTree2(16, 32)
	if err != nil {
		b.Fatal(err)
	}
	cfg := testConfig(topo)
	cfg.Model.Static = core.DefaultStaticPower()
	cfg.CellBits = 1024
	cfg.Policy = "idlegate"
	cfg.Routing = Consolidate{}
	cfg.Traffic = Traffic{Kind: "bursty"}
	cfg.Load = 0.05
	cfg.Shards = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(net.Flows()) != 992 {
			b.Fatalf("built %d flows, want 992", len(net.Flows()))
		}
		b.StopTimer()
		net.Close()
		b.StartTimer()
	}
}

// BenchmarkNetworkBuildVOQ is the netsim/build rung of the busy path:
// New on the fabricbench net-faults network — the 24-router fat-tree
// with 16 leaf hosts, Banyan/VOQ routers under the composite policy,
// shortest-path routing over the uniform matrix at load 0.30 and
// renewal link failures.
func BenchmarkNetworkBuildVOQ(b *testing.B) {
	topo, err := FatTree2(8, 16)
	if err != nil {
		b.Fatal(err)
	}
	cfg := netFaultsConfig(topo, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		net.Close()
		b.StartTimer()
	}
}

// bench64FatTree builds the 64-router fat-tree (43 leaf hosts under 21
// spines) the low-load benchmarks step: the topology whose transit
// spines sit idle most slots at the paper's 10–20% operating points.
func bench64FatTree(tb testing.TB) *Topology {
	topo, err := FatTree2(21, 43)
	if err != nil {
		tb.Fatal(err)
	}
	return topo
}

// permutationFlows builds the ring-permutation demand: every host
// sources one flow at the offered load toward the next host.
func permutationFlows(topo *Topology, load float64) []Flow {
	flows := make([]Flow, len(topo.Hosts))
	for i, h := range topo.Hosts {
		flows[i] = Flow{Src: h, Dst: topo.Hosts[(i+1)%len(topo.Hosts)], Rate: load}
	}
	return flows
}
