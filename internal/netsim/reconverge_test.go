package netsim

import (
	"math"
	"runtime"
	"slices"
	"testing"
)

// linkEvent and nodeEvent script one fault event at a slot.
func linkEvent(slot uint64, u, v int, down bool) FaultEvent {
	return FaultEvent{Slot: slot, Node: -1, From: u, To: v, Down: down}
}

func nodeEvent(slot uint64, u int, down bool) FaultEvent {
	return FaultEvent{Slot: slot, Node: u, Down: down}
}

// reconvergeScripts are fail/repair sequences over the four built-in
// topologies, one event per slot from slot 1. Between them they
// lengthen paths (a ring cut sends flows the long way round), part a
// network (chain cut, hub down) and heal it again.
var reconvergeScripts = []struct {
	name   string
	build  func() (*Topology, error)
	events []FaultEvent
}{
	{"chain", func() (*Topology, error) { return Chain(5) }, []FaultEvent{
		linkEvent(1, 1, 2, true), linkEvent(2, 2, 1, false),
		nodeEvent(3, 3, true), linkEvent(4, 0, 1, true),
		nodeEvent(5, 3, false), linkEvent(6, 0, 1, false),
	}},
	{"ring", func() (*Topology, error) { return Ring(6) }, []FaultEvent{
		linkEvent(1, 0, 1, true), linkEvent(2, 3, 4, true),
		linkEvent(3, 0, 1, false), nodeEvent(4, 2, true),
		linkEvent(5, 4, 3, false), nodeEvent(6, 2, false),
	}},
	{"star", func() (*Topology, error) { return Star(5) }, []FaultEvent{
		linkEvent(1, 0, 2, true), nodeEvent(2, 0, true),
		linkEvent(3, 0, 2, false), nodeEvent(4, 0, false),
	}},
	{"fattree", func() (*Topology, error) { return FatTree2(2, 4) }, []FaultEvent{
		linkEvent(1, 0, 2, true), nodeEvent(2, 1, true),
		linkEvent(3, 0, 2, false), nodeEvent(4, 3, true),
		nodeEvent(5, 1, false), nodeEvent(6, 3, false),
	}},
}

// TestReconvergeMatchesFreshRouting checks re-convergence, which routes
// and wires into storage the network keeps, against re-routing
// everything from scratch: after each scripted event, every flow's
// path, ports, links and ingress port equal a fresh Route and wireFlow
// on the masked topology, and a parked flow has an empty path. The
// scripts must make some path outgrow its build-time segment and some
// flow park and come back.
func TestReconvergeMatchesFreshRouting(t *testing.T) {
	for _, policy := range []RoutingPolicy{ShortestPath{}, Consolidate{}} {
		var grew, unparked bool
		for _, sc := range reconvergeScripts {
			topo, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(topo)
			cfg.Routing = policy
			cfg.Load = 0.2
			cfg.Faults = &FaultPlan{Events: sc.events}
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			segment := make([]int, len(net.flows))
			parked := make([]bool, len(net.flows))
			for fi := range net.flows {
				segment[fi] = cap(net.flows[fi].path)
			}
			for _, e := range sc.events {
				net.applyFaults(e.Slot)
				if err := net.fail.err; err != nil {
					t.Fatalf("%s %s slot %d: %v", policy.Name(), sc.name, e.Slot, err)
				}
				want := freshWiring(t, net, policy)
				for fi := range net.flows {
					got, w := &net.flows[fi], &want[fi]
					if !slices.Equal(got.path, w.path) || !slices.Equal(got.ports, w.ports) ||
						!slices.Equal(got.links, w.links) || (len(w.path) > 0 && got.src != w.src) {
						t.Fatalf("%s %s slot %d flow %d %d→%d: got path %v ports %v links %v src %d, want %v %v %v %d",
							policy.Name(), sc.name, e.Slot, fi, got.Src, got.Dst,
							got.path, got.ports, got.links, got.src, w.path, w.ports, w.links, w.src)
					}
					if len(got.path) > segment[fi] {
						grew = true
					}
					if len(got.path) == 0 {
						parked[fi] = true
					} else if parked[fi] {
						unparked = true
					}
				}
			}
			net.Close()
		}
		if !grew {
			t.Errorf("%s: no path outgrew its build-time segment", policy.Name())
		}
		if !unparked {
			t.Errorf("%s: no flow parked and came back", policy.Name())
		}
	}
}

// freshWiring re-routes every flow of the network from scratch on its
// current masked topology, into fresh storage: the reference for
// in-place re-convergence. Parked flows come back with an empty path.
func freshWiring(t *testing.T, n *Network, policy RoutingPolicy) []Flow {
	t.Helper()
	fs := n.fail
	masked := new(Topology)
	n.topo.maskInto(masked, fs.nodeDown, fs.linkUp)
	comp, _ := components(masked, nil, nil)
	var idx []int
	var alive []Flow
	for fi, f := range n.flows {
		if !fs.nodeDown[f.Src] && !fs.nodeDown[f.Dst] && comp[f.Src] == comp[f.Dst] {
			idx = append(idx, fi)
			alive = append(alive, Flow{Src: f.Src, Dst: f.Dst, Rate: f.Rate})
		}
	}
	paths, err := routePaths(policy, masked, alive)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Flow, len(n.flows))
	for k, fi := range idx {
		want[fi] = alive[k]
		if err := wireFlow(n.topo, &want[fi], fi, paths[k]); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestReconvergeAllocatesNothing pins that once a network has been
// through its first fault event, a link failure and its repair
// re-route every flow without allocating, under either policy. The
// first fail/repair pair sizes the re-convergence storage: it
// allocates the same count on a 12-router and a 24-router fat-tree.
func TestReconvergeAllocatesNothing(t *testing.T) {
	for _, policy := range []RoutingPolicy{ShortestPath{}, Consolidate{}} {
		t.Run(policy.Name(), func(t *testing.T) {
			a, small, _ := leastFirstFlapMallocs(t, 4, 8, policy, 1)
			small.Close()
			b, net, pair := leastFirstFlapMallocs(t, 8, 16, policy, 400)
			defer net.Close()
			if a != b {
				t.Errorf("first fail/repair pair: %d allocations at 12 routers, %d at 24; want the same", a, b)
			}
			slot := uint64(3)
			allocs := testing.AllocsPerRun(100, func() {
				net.applyFaults(slot)
				net.applyFaults(slot + 1)
				slot += 2
			})
			if net.fail.err != nil {
				t.Fatal(net.fail.err)
			}
			if allocs != 0 {
				t.Errorf("fail/repair of spine link %v: %v allocs, want 0", pair, allocs)
			}
			if net.fail.reroutedFlows == 0 {
				t.Error("the spine link flaps re-routed no flow")
			}
		})
	}
}

// leastFirstFlapMallocs builds three fresh spine-flap networks and
// returns the least allocation count of their first fault event pair,
// with the last network, past that pair. MemStats.Mallocs counts the
// whole process, so a runtime goroutine allocating meanwhile can only
// add to a reading: the least of three is the network's own count.
func leastFirstFlapMallocs(t *testing.T, spines, leaves int, policy RoutingPolicy, flaps int) (uint64, *Network, [2]int) {
	least := uint64(math.MaxUint64)
	var net *Network
	var pair [2]int
	for i := 0; i < 3; i++ {
		if net != nil {
			net.Close()
		}
		net, pair = newSpineFlapNetwork(t, spines, leaves, policy, flaps)
		least = min(least, firstFlapMallocs(net))
	}
	return least, net, pair
}

// firstFlapMallocs counts the allocations of a network's first fault
// event pair, the failure and repair at slots 1 and 2.
func firstFlapMallocs(n *Network) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n.applyFaults(1)
	n.applyFaults(2)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// newSpineFlapNetwork builds a fat-tree under the uniform matrix at
// load 0.3 — net-faults' network shape at 8 spines and 16 leaves —
// with no generated faults and an explicit schedule that fails the
// link from spine 0 to the first leaf at every odd slot from 1 and
// repairs it at the even slot after, flaps times.
func newSpineFlapNetwork(tb testing.TB, spines, leaves int, policy RoutingPolicy, flaps int) (*Network, [2]int) {
	topo, err := FatTree2(spines, leaves)
	if err != nil {
		tb.Fatal(err)
	}
	pair := [2]int{0, topo.Hosts[0]}
	events := make([]FaultEvent, 0, 2*flaps)
	for i := 0; i < flaps; i++ {
		slot := uint64(2*i + 1)
		events = append(events, linkEvent(slot, pair[0], pair[1], true), linkEvent(slot+1, pair[0], pair[1], false))
	}
	cfg := testConfig(topo)
	cfg.Routing = policy
	cfg.Load = 0.3
	cfg.Faults = &FaultPlan{Events: events}
	net, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return net, pair
}

// BenchmarkReconverge is the netsim/reconverge rung: one failure and
// one repair of a spine link on net-faults' fat-tree (24 routers, 240
// uniform flows, shortest-path routing), each re-routing every flow.
func BenchmarkReconverge(b *testing.B) {
	net, _ := newSpineFlapNetwork(b, 8, 16, ShortestPath{}, b.N+1)
	defer net.Close()
	net.applyFaults(1)
	net.applyFaults(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := uint64(2*i + 3)
		net.applyFaults(slot)
		net.applyFaults(slot + 1)
	}
	b.StopTimer()
	if net.fail.err != nil {
		b.Fatal(net.fail.err)
	}
}
