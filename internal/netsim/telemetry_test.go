package netsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/sim"
)

// telTestConfig is the shared operating point of the telemetry tests:
// managed routers (so DPM residency shows up) over live traffic.
func telTestConfig(t *Topology) Config {
	cfg := testConfig(t)
	cfg.Model.Static = core.DefaultStaticPower()
	cfg.Policy = "idlegate"
	cfg.Load = 0.25
	return cfg
}

// marshalStream runs one network with a telemetry collector attached
// and returns every emitted sample and the summary as one JSONL blob —
// the byte-level fingerprint the determinism test compares.
func marshalStream(t *testing.T, build func() (*Topology, error), shards int) []byte {
	t.Helper()
	topo, err := build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := telTestConfig(topo)
	cfg.Shards = shards
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	cfg.Telemetry = &sim.TelemetryConfig{
		Every: 50,
		Emit: func(v any) {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		},
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
	if rep.Net.DeliveredCells == 0 {
		t.Fatal("telemetry run delivered nothing")
	}
	return buf.Bytes()
}

// TestTelemetryShardDeterminism pins the collector's merge contract:
// the emitted series — every sample field, every latency bucket, the
// per-flow summary — is byte-identical for any shard count.
func TestTelemetryShardDeterminism(t *testing.T) {
	topos := map[string]func() (*Topology, error){
		"chain":   func() (*Topology, error) { return Chain(6) },
		"ring":    func() (*Topology, error) { return Ring(5) },
		"fattree": func() (*Topology, error) { return FatTree2(2, 4) },
	}
	for name, build := range topos {
		t.Run(name, func(t *testing.T) {
			seq := marshalStream(t, build, 1)
			if len(seq) == 0 {
				t.Fatal("sequential run emitted no telemetry")
			}
			for _, shards := range []int{2, 3, -1} {
				if par := marshalStream(t, build, shards); !bytes.Equal(seq, par) {
					t.Errorf("shards=%d telemetry stream differs from sequential", shards)
				}
			}
		})
	}
}

// TestTelemetryDoesNotPerturbReport pins the nil-collector contract
// from the other side: attaching a collector (even across faults and
// sharding) changes no measured result — telemetry observes the run,
// it never steers it.
func TestTelemetryDoesNotPerturbReport(t *testing.T) {
	run := func(withTel bool, shards int) *Report {
		topo, err := Ring(5)
		if err != nil {
			t.Fatal(err)
		}
		cfg := telTestConfig(topo)
		cfg.Shards = shards
		cfg.Faults = &FaultPlan{Events: []FaultEvent{
			{Slot: 150, Node: -1, From: 0, To: 1, Down: true},
			{Slot: 300, Node: -1, From: 0, To: 1, Down: false},
		}}
		if withTel {
			cfg.Telemetry = &sim.TelemetryConfig{Every: 32, Emit: func(any) {}}
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
	for _, shards := range []int{1, 2} {
		bare := run(false, shards)
		tapped := run(true, shards)
		if !reflect.DeepEqual(bare, tapped) {
			t.Errorf("shards=%d: attaching telemetry changed the report", shards)
		}
	}
}

// TestTelemetrySampleLedger checks the sample stream's accounting
// against the end-of-run report on a faulted, managed chain: interval
// deltas sum to the report's totals (cells, drops, energy and DPM
// counters), each sample's latency buckets account for exactly its
// delivered cells, and the up/down fields trace the outage window
// sample by sample.
func TestTelemetrySampleLedger(t *testing.T) {
	topo, err := Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(topo)
	cfg.Model.Static = core.DefaultStaticPower()
	cfg.Policy = "composite"
	cfg.flows = []Flow{{Src: 0, Dst: 3, Rate: 0.5}}
	cfg.Faults = &FaultPlan{Events: []FaultEvent{
		{Slot: 500, Node: -1, From: 1, To: 2, Down: true},
		{Slot: 900, Node: -1, From: 1, To: 2, Down: false},
	}}
	type snap struct {
		slot      uint64
		interval  uint64
		offered   uint64
		delivered uint64
		latSum    uint64
		downLinks int
		cutUp     bool
		moved     uint64
	}
	var snaps []snap
	var summary *TelemetrySummary
	var energyFJ float64
	var nodeDropped uint64
	var act sim.DPMTelemetry
	slotNS := cfg.Model.Tech.CellTimeNS(cfg.CellBits)
	cfg.Telemetry = &sim.TelemetryConfig{
		Every: 100,
		Emit: func(v any) {
			s, ok := v.(*TelemetrySample)
			if !ok {
				summary = v.(*TelemetrySummary)
				return
			}
			// mW × ns = pJ = 1e3 fJ.
			energyFJ += (s.DynamicMW + s.StaticMW) * float64(s.Interval) * slotNS * 1e3
			nodeDropped += s.NodeDroppedCells
			if s.DPM == nil {
				t.Fatalf("slot %d: managed sample without DPM activity", s.Slot)
			}
			act.GatedPortSlots += s.DPM.GatedPortSlots
			act.DrowsySlots += s.DPM.DrowsySlots
			act.StalledSlots += s.DPM.StalledSlots
			act.Transitions += s.DPM.Transitions
			act.WakeEvents += s.DPM.WakeEvents
			act.DVFSShifts += s.DPM.DVFSShifts
			sn := snap{slot: s.Slot, interval: s.Interval, offered: s.OfferedCells,
				delivered: s.DeliveredCells, downLinks: s.DownLinks, cutUp: true}
			for _, c := range s.Latency {
				sn.latSum += c
			}
			for _, l := range s.Links {
				if l.From == 1 && l.To == 2 {
					sn.cutUp = l.Up
					sn.moved = l.Moved
					if l.Utilization != float64(l.Moved)/float64(s.Interval) {
						t.Errorf("slot %d: link 1→2 utilization %g != moved %d / interval %d",
							s.Slot, l.Utilization, l.Moved, s.Interval)
					}
				}
			}
			snaps = append(snaps, sn)
		},
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	rep, err := net.Run(0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 20 {
		t.Fatalf("got %d samples over 2000 slots at every 100, want 20", len(snaps))
	}
	var offered, delivered, slots uint64
	for _, sn := range snaps {
		offered += sn.offered
		delivered += sn.delivered
		slots += sn.interval
		if sn.latSum != sn.delivered {
			t.Errorf("slot %d: latency buckets hold %d cells, delivered %d", sn.slot, sn.latSum, sn.delivered)
		}
		// The fault lands at the slot-500 barrier after that sample is
		// taken; the repair at 900 lands after the slot-900 sample. So
		// exactly the samples ending at 600..900 see the cut pair down
		// (both directions of the undirected pair).
		wantDown := sn.slot >= 600 && sn.slot <= 900
		if wantDown == sn.cutUp {
			t.Errorf("slot %d: link 1→2 up=%v, want %v", sn.slot, sn.cutUp, !wantDown)
		}
		if down := 0; wantDown {
			down = 2
			if sn.downLinks != down {
				t.Errorf("slot %d: downLinks = %d, want %d", sn.slot, sn.downLinks, down)
			}
		} else if sn.downLinks != 0 {
			t.Errorf("slot %d: downLinks = %d, want 0", sn.slot, sn.downLinks)
		}
		if wantDown && sn.moved != 0 {
			t.Errorf("slot %d: cut link moved %d cells while down", sn.slot, sn.moved)
		}
	}
	if slots != 2000 {
		t.Errorf("sample intervals cover %d slots, want 2000", slots)
	}
	if offered != rep.Net.OfferedCells {
		t.Errorf("sample offered deltas sum to %d, report says %d", offered, rep.Net.OfferedCells)
	}
	if delivered != rep.Net.DeliveredCells {
		t.Errorf("sample delivered deltas sum to %d, report says %d", delivered, rep.Net.DeliveredCells)
	}
	if nodeDropped != rep.Net.NodeDroppedCells {
		t.Errorf("sample node drops sum to %d, report says %d", nodeDropped, rep.Net.NodeDroppedCells)
	}
	// The samples leave the fault plan's residual and re-convergence
	// power to the report, so the energy compares against the routers'
	// own dynamic, static and transition ledgers.
	want := rep.Energy.TotalFJ()
	var wantAct sim.DPMTelemetry
	for _, res := range rep.PerNode {
		d := res.DPM
		want += d.StaticFJ + d.TransitionFJ
		wantAct.GatedPortSlots += d.GatedPortSlots
		wantAct.DrowsySlots += d.DrowsySlots
		wantAct.StalledSlots += d.StalledSlots
		wantAct.Transitions += d.Transitions
		wantAct.WakeEvents += d.WakeEvents
		wantAct.DVFSShifts += d.DVFSShifts
	}
	if rel := math.Abs(energyFJ-want) / want; rel > 1e-9 {
		t.Errorf("samples integrate to %g fJ, routers hold %g fJ (relative error %g)", energyFJ, want, rel)
	}
	if wantAct.Transitions == 0 || wantAct.DVFSShifts == 0 {
		t.Errorf("managed chain exercised no DPM transitions: %+v", wantAct)
	}
	if act != wantAct {
		t.Errorf("sample DPM counters sum to %+v, routers say %+v", act, wantAct)
	}
	if summary == nil {
		t.Fatal("no end-of-run summary")
	}
	if len(summary.Flows) != 1 {
		t.Fatalf("summary has %d flows, want 1", len(summary.Flows))
	}
	f := summary.Flows[0]
	if f.Src != 0 || f.Dst != 3 {
		t.Errorf("summary flow %d→%d, want 0→3", f.Src, f.Dst)
	}
	if f.DeliveredCells != rep.Net.DeliveredCells {
		t.Errorf("summary flow delivered %d, report says %d", f.DeliveredCells, rep.Net.DeliveredCells)
	}
	var histSum uint64
	for _, c := range f.Latency {
		histSum += c
	}
	if histSum != f.DeliveredCells {
		t.Errorf("summary latency histogram holds %d cells, flow delivered %d", histSum, f.DeliveredCells)
	}
}

// TestTelemetrySlotLoopAllocationFree extends the hot-loop allocation
// pin to an attached collector: sampling reuses its buffers, so the
// sharded slot loop stays at zero allocations per slot even while
// emitting (the sink here consumes without copying, as a real sink
// would marshal in place).
func TestTelemetrySlotLoopAllocationFree(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			topo, err := Ring(4)
			if err != nil {
				t.Fatal(err)
			}
			cfg := telTestConfig(topo)
			cfg.Policy = "composite"
			cfg.Load = 0.4
			cfg.Shards = shards
			// Warm with live traffic, then cut injection off (as the
			// baseline allocation test does): the steady-state loop under
			// measurement is queue drain + sampling, with the injection
			// path's allocations out of the picture.
			cfg.Traffic = Traffic{custom: func(f Flow, fi int, seed int64) (FlowSource, error) {
				src, err := new(sources).onOff(f.Rate, 10, seed)
				if err != nil {
					return nil, err
				}
				return &cutoffSource{inner: src, cutoff: 500}, nil
			}}
			var samples int
			cfg.Telemetry = &sim.TelemetryConfig{
				Every: 64,
				Emit:  func(any) { samples++ },
			}
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
				t.Errorf("slot loop with telemetry allocates %.1f times per slot, want 0", allocs)
			}
			if samples == 0 {
				t.Error("collector emitted no samples")
			}
		})
	}
}
