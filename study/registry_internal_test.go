package study

import (
	"reflect"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/dpm"
	"fabricpower/internal/netsim"
	"fabricpower/internal/packet"
	"fabricpower/internal/rng"
	"fabricpower/internal/telemetry/trace"
)

type emitEverySlot struct{}

func (emitEverySlot) Cells(slot uint64, emit func(Injection)) {
	emit(Injection{Port: 0, Dest: 0})
}

// TestFlowSourceAdapterAllocFree pins the FlowSource contract on the
// registered-kind adapter: NextBlock runs inside every shard's compute
// phase, so the emit callback must be bound once at construction, not
// re-created per call.
func TestFlowSourceAdapterAllocFree(t *testing.T) {
	a := newFlowSourceAdapter(emitEverySlot{})
	first := uint64(0)
	allocs := testing.AllocsPerRun(500, func() {
		if m := a.NextBlock(first); m != ^uint64(0) {
			t.Fatalf("block %d: mask %#x, want every slot", first/netsim.BlockSlots, m)
		}
		first += netsim.BlockSlots
	})
	if allocs != 0 {
		t.Errorf("adapter NextBlock allocates %.1f times per block, want 0", allocs)
	}
}

// coinPorts is a registered-kind-style source with state: every slot
// it flips one coin per port at its load and emits on each hit, so a
// slot can emit several cells or none.
type coinPorts struct {
	ports  int
	load   float64
	stream *rng.Stream
}

func (s *coinPorts) Cells(slot uint64, emit func(Injection)) {
	for p := 0; p < s.ports; p++ {
		if s.stream.Float64() < s.load {
			emit(Injection{Port: p, Dest: int(slot) % s.ports})
		}
	}
}

// TestFlowSourceAdapterMatchesPerSlot checks the adapter's NextBlock
// against asking the registered source slot by slot: bit i is set iff
// slot first+i emitted at least one cell, over many consecutive blocks.
func TestFlowSourceAdapterMatchesPerSlot(t *testing.T) {
	for _, tc := range []struct {
		ports int
		load  float64
	}{{1, 0}, {1, 0.01}, {1, 0.5}, {1, 1}, {3, 0.2}} {
		for seed := int64(0); seed < 4; seed++ {
			a := newFlowSourceAdapter(&coinPorts{tc.ports, tc.load, rng.New(seed)})
			ref := &coinPorts{tc.ports, tc.load, rng.New(seed)}
			for first := uint64(0); first < 200*netsim.BlockSlots; first += netsim.BlockSlots {
				var want uint64
				for i := uint64(0); i < netsim.BlockSlots; i++ {
					fired := false
					ref.Cells(first+i, func(Injection) { fired = true })
					if fired {
						want |= 1 << i
					}
				}
				if got := a.NextBlock(first); got != want {
					t.Fatalf("ports %d load %g seed %d block %d: %064b, per-slot %064b",
						tc.ports, tc.load, seed, first/netsim.BlockSlots, got, want)
				}
			}
		}
	}
}

type everyPortEverySlot struct{ ports int }

func (s everyPortEverySlot) Cells(slot uint64, emit func(Injection)) {
	for p := 0; p < s.ports; p++ {
		emit(Injection{Port: p, Dest: int(slot+uint64(p)) % s.ports})
	}
}

// TestSourceGeneratorNeverAliasesResults pins the generator contract on
// the registered-kind adapter: a slice from Generate is never
// overwritten by a later call, and each slot's cells are distinct.
func TestSourceGeneratorNeverAliasesResults(t *testing.T) {
	g := newSourceGenerator(everyPortEverySlot{ports: 4}, packet.Config{CellBits: 128, BusWidth: 32}, 4, 1)
	var kept [][]*packet.Cell
	var ids [][]uint64
	seen := map[*packet.Cell]bool{}
	for s := uint64(0); s < 3000; s++ {
		out := g.Generate(s)
		if len(out) != 4 || cap(out) != len(out) {
			t.Fatalf("slot %d: len %d cap %d, want 4/4", s, len(out), cap(out))
		}
		var row []uint64
		for _, c := range out {
			if seen[c] {
				t.Fatalf("slot %d reuses an unreleased cell", s)
			}
			seen[c] = true
			row = append(row, c.ID)
		}
		kept, ids = append(kept, out), append(ids, row)
	}
	for s, out := range kept {
		for i, c := range out {
			if c.ID != ids[s][i] || c.CreatedSlot != uint64(s) {
				t.Fatalf("slot %d cell %d was overwritten by a later Generate", s, i)
			}
		}
	}
}

// horizonGate is a registered policy with an idle horizon: dpm's
// IdleGate behind study.Policy. blindGate is its twin without one.
type horizonGate struct{ *dpm.IdleGate }

type blindGate struct{ g *dpm.IdleGate }

func (b blindGate) Reset(ports int)                                    { b.g.Reset(ports) }
func (b blindGate) Decide(obs *PolicyObservation, dec *PolicyDecision) { b.g.Decide(obs, dec) }

// TestRegisteredPolicyHorizon: a registered policy's IdleHorizon
// reaches the manager and the network kernel, which then put its idle
// routers to sleep and replay them, with a report bit-identical to the
// twin that runs every idle slot.
func TestRegisteredPolicyHorizon(t *testing.T) {
	reg := NewRegistry()
	if err := reg.RegisterDPMPolicy("test-horizon", func() Policy { return horizonGate{&dpm.IdleGate{}} }); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterDPMPolicy("test-blind", func() Policy { return blindGate{&dpm.IdleGate{}} }); err != nil {
		t.Fatal(err)
	}
	run := func(name string) (*netsim.Report, uint64) {
		newPolicy, err := reg.dpmPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := netsim.FatTree2(4, 8)
		if err != nil {
			t.Fatal(err)
		}
		model := core.PaperModel()
		model.Static = core.DefaultStaticPower()
		net, err := netsim.New(netsim.Config{
			Topology: topo, Arch: core.Crossbar, Model: model, CellBits: 256, Seed: 3,
			Policy: name, NewPolicy: newPolicy, Routing: netsim.Consolidate{},
			Traffic: netsim.Traffic{Kind: "bursty"}, Load: 0.05,
			Trace: &netsim.TraceConfig{Recorder: trace.NewRecorder(0), Every: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		rep, err := net.Run(100, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return rep, net.ExecProfile().NodeVisits
	}
	rep, visits := run("test-horizon")
	blindRep, blindVisits := run("test-blind")
	for _, r := range []*netsim.Report{rep, blindRep} {
		for i := range r.PerNode {
			r.PerNode[i].DPM.Policy = "" // the registered names differ
		}
	}
	if !reflect.DeepEqual(rep, blindRep) {
		t.Errorf("the horizon twin's report differs from the per-slot one:\n%+v\n%+v", rep.Result, blindRep.Result)
	}
	t.Logf("node visits: %d with a horizon, %d without", visits, blindVisits)
	if visits >= blindVisits {
		t.Errorf("node visits with a horizon %d, without %d: want fewer", visits, blindVisits)
	}
}
