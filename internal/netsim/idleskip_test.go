package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/dpm"
	"fabricpower/internal/router"
	"fabricpower/internal/sim"
	"fabricpower/internal/telemetry/trace"
)

// idleSkipTopos are the four golden topologies the determinism suite
// sweeps, mirroring TestNetworkShardDeterminism.
func idleSkipTopos() map[string]func() (*Topology, error) {
	return map[string]func() (*Topology, error){
		"chain":   func() (*Topology, error) { return Chain(6) },
		"ring":    func() (*Topology, error) { return Ring(5) },
		"star":    func() (*Topology, error) { return Star(5) },
		"fattree": func() (*Topology, error) { return FatTree2(2, 4) },
	}
}

// idleSkipFaultPlan is the renewal-process plan variant of the suite:
// generated link and router faults plus pinned events, so skips are
// bounded by fault activity and flushed/rerouted state re-derives the
// activity flags.
func idleSkipFaultPlan(topo *Topology) *FaultPlan {
	l := topo.Links[0]
	return &FaultPlan{
		MTBF: 120, MTTR: 40,
		NodeMTBF: 300, NodeMTTR: 30,
		Events: []FaultEvent{
			{Slot: 150, Node: -1, From: l.From, To: l.To, Down: true},
			{Slot: 220, Node: -1, From: l.From, To: l.To, Down: false},
		},
		ResidualMW:       2,
		ReconvergeCostFJ: 500,
	}
}

// TestIdleSkipDeterminism pins the hybrid kernel's core contract:
// fast-forwarding provably idle nodes is bit-identical to always
// stepping them. Every golden topology × {no faults, renewal faults} ×
// shard counts 1/2/-1 must produce a report DeepEqual to the
// skip-disabled kernel's. Load is low so most node-slots actually take
// the idle path.
func TestIdleSkipDeterminism(t *testing.T) {
	for name, build := range idleSkipTopos() {
		for _, faults := range []string{"none", "renewal"} {
			t.Run(name+"/faults="+faults, func(t *testing.T) {
				run := func(idleSkip string, shards int) *Report {
					topo, err := build()
					if err != nil {
						t.Fatal(err)
					}
					cfg := testConfig(topo)
					cfg.Model.Static = core.DefaultStaticPower()
					cfg.Policy = "idlegate"
					cfg.Load = 0.08
					cfg.Shards = shards
					cfg.IdleSkip = idleSkip
					if faults == "renewal" {
						cfg.Faults = idleSkipFaultPlan(topo)
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
				for _, shards := range []int{1, 2, -1} {
					off := run("off", shards)
					on := run("on", shards)
					if off.Net.DeliveredCells == 0 {
						t.Fatalf("shards=%d delivered nothing", shards)
					}
					if !reflect.DeepEqual(off, on) {
						t.Errorf("shards=%d: idle-skip report differs from always-step", shards)
					}
					if auto := run("auto", shards); !reflect.DeepEqual(on, auto) {
						t.Errorf("shards=%d: auto differs from on", shards)
					}
				}
			})
		}
	}
}

// TestIdleSkipTelemetrySampleSlots pins that skipping does not move the
// telemetry clock: with the collector attached, samples land on exactly
// the same slots — and carry identical contents — whether idle nodes
// are fast-forwarded or stepped in full.
func TestIdleSkipTelemetrySampleSlots(t *testing.T) {
	run := func(idleSkip string) ([]uint64, []TelemetrySample) {
		topo, err := FatTree2(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(topo)
		cfg.Model.Static = core.DefaultStaticPower()
		cfg.Policy = "idlegate"
		cfg.Load = 0.08
		cfg.IdleSkip = idleSkip
		var slots []uint64
		var samples []TelemetrySample
		cfg.Telemetry = &sim.TelemetryConfig{
			Every: 50,
			Emit: func(v any) {
				s, ok := v.(*TelemetrySample)
				if !ok {
					return
				}
				slots = append(slots, s.Slot)
				// The collector reuses the sample's slices: copy them.
				c := *s
				c.NodeQueues = append([]int(nil), s.NodeQueues...)
				c.Links = append([]LinkSample(nil), s.Links...)
				c.Latency = append([]uint64(nil), s.Latency...)
				samples = append(samples, c)
			},
		}
		net, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		if _, err := net.Run(100, 400); err != nil {
			t.Fatal(err)
		}
		return slots, samples
	}
	offSlots, offSamples := run("off")
	onSlots, onSamples := run("on")
	if len(offSlots) == 0 {
		t.Fatal("no telemetry samples emitted")
	}
	if !reflect.DeepEqual(offSlots, onSlots) {
		t.Errorf("sample slots moved under idle skipping:\noff: %v\non:  %v", offSlots, onSlots)
	}
	if !reflect.DeepEqual(offSamples, onSamples) {
		t.Errorf("sample contents differ under idle skipping")
	}
}

// TestIdleSkipRejectsUnknownMode pins the IdleSkip escape hatch's
// surface: only auto, on, off (and empty, meaning auto) are accepted.
func TestIdleSkipRejectsUnknownMode(t *testing.T) {
	topo, err := Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(topo)
	cfg.Load = 0.1
	cfg.IdleSkip = "sometimes"
	if _, err := New(cfg); err == nil {
		t.Fatal("IdleSkip=sometimes was accepted")
	}
}

// TestIdleSkipSlotAllocationFree pins that the idle fast path honors
// the kernel's 0 allocs/op invariant: once traffic cuts off and the
// network drains, every node rides the idle path every slot and the
// allocator is never touched.
func TestIdleSkipSlotAllocationFree(t *testing.T) {
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
			cfg.Load = 0.3
			cfg.Shards = shards
			cfg.Traffic = Traffic{custom: func(f Flow, fi int, seed int64) (FlowSource, error) {
				src, err := new(sources).onOff(f.Rate, 10, seed)
				if err != nil {
					return nil, err
				}
				return &cutoffSource{inner: src, cutoff: 300}, nil
			}}
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			// Warm with live traffic, then drain: from here on every
			// slot is pure idle path.
			slot := uint64(0)
			for ; slot < 500; slot++ {
				net.Step(slot)
			}
			for u := 0; u < topo.Nodes; u++ {
				if net.nodeBusy[u] {
					t.Fatalf("node %d still busy after drain", u)
				}
			}
			allocs := testing.AllocsPerRun(300, func() {
				net.Step(slot)
				slot++
			})
			if allocs != 0 {
				t.Errorf("idle slot loop allocates %.1f times per slot, want 0", allocs)
			}
		})
	}
}

// TestConfigPartitionOverride pins the Config.partition contract: a
// custom node→shard assignment is honored (the shard node lists follow
// it), never changes the results, and malformed assignments are
// rejected.
func TestConfigPartitionOverride(t *testing.T) {
	build := func(partition []int) (*Network, *Report, error) {
		topo, err := Ring(6)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(topo)
		cfg.Model.Static = core.DefaultStaticPower()
		cfg.Policy = "idlegate"
		cfg.Load = 0.2
		cfg.Shards = 2
		cfg.partition = partition
		net, err := New(cfg)
		if err != nil {
			return nil, nil, err
		}
		defer net.Close()
		rep, err := net.Run(50, 200)
		if err != nil {
			t.Fatal(err)
		}
		return net, rep, nil
	}
	net, def, err := build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(net.shards[0].nodes) + len(net.shards[1].nodes); got != 6 {
		t.Fatalf("default partition covers %d of 6 nodes", got)
	}
	netP, custom, err := build([]int{1, 0, 1, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3, 5}; !reflect.DeepEqual(netP.shards[0].nodes, want) {
		t.Errorf("shard 0 nodes = %v, want %v", netP.shards[0].nodes, want)
	}
	if !reflect.DeepEqual(def, custom) {
		t.Error("custom partition changed the report")
	}
	if _, _, err := build([]int{0, 1}); err == nil {
		t.Error("short partition was accepted")
	}
	if _, _, err := build([]int{0, 1, 0, 1, 0, 7}); err == nil {
		t.Error("out-of-range shard id was accepted")
	}
}

// TestLPTPartition pins the greedy LPT partitioner: deterministic,
// complete, and balanced — the heaviest node rides alone when its cost
// dominates.
func TestLPTPartition(t *testing.T) {
	part := lptPartition([]float64{10, 1, 1, 1, 1, 1}, 2)
	if len(part) != 6 {
		t.Fatalf("partition has %d entries, want 6", len(part))
	}
	// Node 0 dominates: everything else must land on the other shard.
	for u := 1; u < 6; u++ {
		if part[u] == part[0] {
			t.Errorf("node %d shares a shard with the dominant node", u)
		}
	}
	if again := lptPartition([]float64{10, 1, 1, 1, 1, 1}, 2); !reflect.DeepEqual(part, again) {
		t.Error("lptPartition is not deterministic")
	}
}

// fuzzTopology builds one of the four small topology shapes, sized by
// size.
func fuzzTopology(shape, size uint8) (*Topology, error) {
	n := 3 + int(size%5)
	switch shape % 4 {
	case 0:
		return Chain(n - 1)
	case 1:
		return Ring(n)
	case 2:
		return Star(n)
	default:
		return FatTree2(2+int(size%2), 2+int(size/2%3))
	}
}

// fuzzRun is one observed run of FuzzNetworkIdleSkipMatchesFullStep:
// the report and deep copies of every telemetry record.
type fuzzRun struct {
	rep     *Report
	samples []TelemetrySample
	summary *TelemetrySummary
	prof    *ExecProfile
}

// FuzzNetworkIdleSkipMatchesFullStep is the whole-network differential
// check of idle skipping and sleeping: over generated small networks —
// chain, ring, star or fat-tree, any traffic kind, load, queue, DPM
// policy, routing and shard count, with an optional renewal fault plan,
// telemetry collector and execution profiler — IdleSkip "on" must
// report, sample and summarize exactly what the full-step reference
// ("off") does. opts packs the choices: bits 0–1 traffic kind, 2 VOQ,
// 3–5 policy (0 none), 6–7 shards−1, 8 faults, 9 telemetry, 10
// consolidate routing, 11 trace.
func FuzzNetworkIdleSkipMatchesFullStep(f *testing.F) {
	for shape := uint8(0); shape < 4; shape++ {
		f.Add(shape, uint8(3), uint8(8), uint16(4<<3|1), int64(1))
		f.Add(shape, uint8(5), uint8(20), uint16(1<<11|1<<10|1<<9|1<<8|1<<6|3<<3|1), int64(2))
		f.Add(shape, uint8(0), uint8(2), uint16(2<<6|1<<9|1<<2|2), int64(3))
	}
	f.Fuzz(func(t *testing.T, shape, size, load uint8, opts uint16, seed int64) {
		run := func(idleSkip string) fuzzRun {
			topo, err := fuzzTopology(shape, size)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(topo)
			cfg.Model.Static = core.DefaultStaticPower()
			cfg.Load = float64(load%40+1) / 100
			cfg.Seed = seed
			cfg.IdleSkip = idleSkip
			cfg.Traffic = Traffic{Kind: blockKinds[opts&3]}
			if cfg.Traffic.Kind == "trace" {
				cfg.Traffic.Trace = syntheticTrace(uint64(size)%90+1, seed)
			}
			if opts&(1<<2) != 0 {
				cfg.Queue = router.VOQ
			}
			if p := int(opts>>3&7) % 6; p > 0 {
				cfg.Policy = dpm.PolicyNames()[p-1]
			}
			cfg.Shards = int(opts>>6&3)%3 + 1
			if opts&(1<<8) != 0 {
				cfg.Faults = idleSkipFaultPlan(topo)
			}
			var r fuzzRun
			if opts&(1<<9) != 0 {
				cfg.Telemetry = &sim.TelemetryConfig{
					Every: uint64(size)%50 + 1,
					Emit: func(v any) {
						switch s := v.(type) {
						case *TelemetrySample:
							c := *s
							c.NodeQueues = append([]int(nil), s.NodeQueues...)
							c.Links = append([]LinkSample(nil), s.Links...)
							c.Latency = append([]uint64(nil), s.Latency...)
							r.samples = append(r.samples, c)
						case *TelemetrySummary:
							s.NodeCostNS = nil // wall-clock, so never deterministic
							r.summary = s
						}
					},
				}
			}
			if opts&(1<<10) != 0 {
				cfg.Routing = Consolidate{}
			}
			if opts&(1<<11) != 0 {
				cfg.Trace = &TraceConfig{Recorder: trace.NewRecorder(0), Every: 8}
			}
			net, err := New(cfg)
			if err != nil {
				t.Skip(err)
			}
			defer net.Close()
			if r.rep, err = net.Run(60, 240); err != nil {
				t.Skip(err)
			}
			r.prof = net.ExecProfile()
			return r
		}
		off, on := run("off"), run("on")
		if !reflect.DeepEqual(off.rep, on.rep) {
			t.Fatalf("report differs from the full-step reference:\noff %+v\non  %+v", off.rep.Result, on.rep.Result)
		}
		if !reflect.DeepEqual(off.samples, on.samples) {
			t.Fatalf("telemetry samples differ from the full-step reference")
		}
		if !reflect.DeepEqual(off.summary, on.summary) {
			t.Fatalf("telemetry summary differs from the full-step reference")
		}
		if off.prof != nil {
			nodes := uint64(len(off.rep.PerNode))
			if want := nodes * off.prof.SampledSlots; off.prof.NodeVisits != want {
				t.Errorf("full-step run visited %d nodes over %d sampled slots, want %d", off.prof.NodeVisits, off.prof.SampledSlots, want)
			}
			if on.prof.NodeVisits > off.prof.NodeVisits {
				t.Errorf("sleeping run visited %d nodes, more than the full-step run's %d", on.prof.NodeVisits, off.prof.NodeVisits)
			}
		}
	})
}

// TestIdleSkipSleepsIdleNodes pins that sleeping takes idle nodes out
// of the compute loop: on the consolidating, idle-gated 48-router
// fat-tree at 5% and 10% bursty load (the fabricbench net-lowload
// network), the profiled run visits at most 7 of the 48 nodes per slot
// on average — a router sleeps straight after its busy slot, so idle
// routers cost no visits until their next event — while the full-step
// reference visits every node every slot.
func TestIdleSkipSleepsIdleNodes(t *testing.T) {
	visits := func(idleSkip string, load float64) (perSlot float64, nodes int) {
		topo, err := FatTree2(16, 32)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(topo)
		cfg.Model.Static = core.DefaultStaticPower()
		cfg.CellBits = 1024
		cfg.Policy = "idlegate"
		cfg.Routing = Consolidate{}
		cfg.Traffic = Traffic{Kind: "bursty"}
		cfg.Load = load
		cfg.Shards = 2
		cfg.IdleSkip = idleSkip
		cfg.Trace = &TraceConfig{Recorder: trace.NewRecorder(0), Every: 1}
		net, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		if _, err := net.Run(300, 3000); err != nil {
			t.Fatal(err)
		}
		ep := net.ExecProfile()
		return float64(ep.NodeVisits) / float64(ep.SampledSlots), topo.Nodes
	}
	off, nodes := visits("off", 0.05)
	if off != float64(nodes) {
		t.Errorf("full-step run visits %.2f nodes per slot, want all %d", off, nodes)
	}
	low, _ := visits("on", 0.05)
	high, _ := visits("on", 0.10)
	t.Logf("node visits per slot: off %.2f; on %.2f at 5%% load, %.2f at 10%%, of %d nodes", off, low, high, nodes)
	if mean := (low + high) / 2; mean > 7 {
		t.Errorf("sleeping runs visit %.2f of %d nodes per slot on average, want at most 7", mean, nodes)
	}
}
