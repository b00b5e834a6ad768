package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"fabricpower/internal/core"
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
		cfg.Telemetry = &TelemetryConfig{
			Every: 50,
			OnSample: func(s *TelemetrySample) {
				slots = append(slots, s.Slot)
				samples = append(samples, *s)
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
			cfg.Traffic = Traffic{New: func(f Flow, fi int, seed int64) (FlowSource, error) {
				src, err := newOnOffSource(f.Rate, 10, seed)
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

// TestConfigPartitionOverride pins the Config.Partition contract: a
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
		cfg.Partition = partition
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

// TestSuggestPartition closes the profile→partition loop: a traced
// warmup run's ExecProfile yields a complete, in-range assignment that
// a second run accepts as Config.Partition — and the second run's
// report is bit-identical to the first's, because results never depend
// on the partition.
func TestSuggestPartition(t *testing.T) {
	run := func(partition []int) (*Report, *ExecProfile) {
		topo, err := FatTree2(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(topo)
		cfg.Model.Static = core.DefaultStaticPower()
		cfg.Policy = "idlegate"
		cfg.Load = 0.25
		cfg.Shards = 2
		cfg.Partition = partition
		cfg.Trace = &TraceConfig{Recorder: trace.NewRecorder(0), Every: 8}
		net, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		rep, err := net.Run(50, 200)
		if err != nil {
			t.Fatal(err)
		}
		return rep, net.ExecProfile()
	}
	base, prof := run(nil)
	if prof == nil {
		t.Fatal("no execution profile")
	}
	part := prof.SuggestPartition(2)
	if len(part) != 6 {
		t.Fatalf("suggestion has %d entries, want 6", len(part))
	}
	for u, w := range part {
		if w < 0 || w >= 2 {
			t.Fatalf("node %d assigned to shard %d", u, w)
		}
	}
	rerun, _ := run(part)
	if !reflect.DeepEqual(base, rerun) {
		t.Error("suggested partition changed the report")
	}
	if clamped := prof.SuggestPartition(99); len(clamped) != 6 {
		t.Errorf("oversized shard count not clamped: %d entries", len(clamped))
	}
}
