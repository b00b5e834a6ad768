// Benchmarks regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each benchmark
// executes the same experiment runner the CLI uses, at a reduced slot
// budget so a full `-bench=.` pass stays in CI territory; the CLI
// regenerates publication-scale sweeps from the embedded paper specs.
//
//	BenchmarkTable1Characterization — Table 1 (node-switch LUTs)
//	BenchmarkTable2SRAM             — Table 2 (buffer bit energy)
//	BenchmarkTechETBit              — §5.1 E_T derivation (87 fJ)
//	BenchmarkFig9PowerVsThroughput  — Fig. 9 (4 architectures × sizes)
//	BenchmarkFig10PowerVsPorts      — Fig. 10 (power vs port count)
//	BenchmarkObs1Crossover          — §6 obs. 1 (Banyan crossover)
//	BenchmarkSaturationCeiling      — §5.2/§6 (58.6% input-buffered limit)
//
// BenchmarkSweepSequential vs BenchmarkSweepParallel measure the same
// Fig. 9-shaped sweep with 1 worker and with one worker per core; on a
// multicore box the ratio approaches the core count because the operating
// points are embarrassingly parallel. The remaining benchmarks profile
// the simulator substrate itself; the XxxStep benchmarks report allocs
// and must stay at 0 allocs/op (TestStepAllocationFree enforces this).
package fabricpower_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"fabricpower/internal/circuits"
	"fabricpower/internal/core"
	"fabricpower/internal/dpm"
	"fabricpower/internal/energy"
	"fabricpower/internal/exp"
	"fabricpower/internal/fabric"
	"fabricpower/internal/gates"
	"fabricpower/internal/packet"
	"fabricpower/internal/router"
	"fabricpower/internal/tech"
	"fabricpower/internal/traffic"
	"fabricpower/study"
)

// benchSim is the reduced simulation window of the figure benchmarks.
func benchSim() study.SimSpec { return benchWindow(100, 600) }

// benchWindow bounds a benchmark spec's runs (seed 1).
func benchWindow(warmup, measure uint64) study.SimSpec {
	return study.SimSpec{WarmupSlots: &warmup, MeasureSlots: measure, Seed: 1}
}

// paperSizes and paperLoads are the paper's port configurations
// (4×4 … 32×32) and Fig. 9 throughput sweep (10%–50%).
var (
	paperSizes = study.Axis{Name: "ports", Ints: []int{4, 8, 16, 32}}
	paperLoads = study.Axis{Name: "load", Floats: []float64{0.10, 0.20, 0.30, 0.40, 0.50}}
	allArchs   = study.Axis{Name: "arch", Strings: []string{"crossbar", "fullyconnected", "banyan", "batcherbanyan"}}
)

// benchStudy runs a study spec b.N times on the given worker count,
// rendering the report when render is set.
func benchStudy(b *testing.B, kind string, base study.Scenario, axes []study.Axis, workers int, render bool) {
	b.Helper()
	spec := study.Spec{Version: study.SpecVersion, Kind: kind, Grid: study.Grid{Base: base, Axes: axes}}
	for i := 0; i < b.N; i++ {
		rep, err := exp.RunSpecOpts(context.Background(), spec, study.RunOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if render {
			if err := rep.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1Characterization regenerates Table 1: gate-level
// characterization of the four node-switch types under all input vectors.
func BenchmarkTable1Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1, err := exp.RunTable1(core.PaperModel(), exp.Table1Options{Cycles: 64, BusWidth: 16, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := t1.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2SRAM regenerates Table 2 from the calibrated SRAM model.
func BenchmarkTable2SRAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2, err := exp.RunTable2(core.PaperModel())
		if err != nil {
			b.Fatal(err)
		}
		if err := t2.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTechETBit regenerates the §5.1 wire-energy derivation.
func BenchmarkTechETBit(b *testing.B) {
	tp := tech.Default180nm()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += tp.ETBitFJ()
	}
	if sum < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkFig9PowerVsThroughput regenerates the Fig. 9 sweep: power
// under 10–50% traffic throughput for all four architectures and the
// paper's four port configurations.
func BenchmarkFig9PowerVsThroughput(b *testing.B) {
	benchStudy(b, "fig9", study.Scenario{Sim: benchSim()},
		[]study.Axis{paperSizes, allArchs, paperLoads}, 0, true)
}

// BenchmarkFig10PowerVsPorts regenerates the Fig. 10 comparison at 50%
// throughput, including the fully-connected vs Batcher-Banyan gap.
func BenchmarkFig10PowerVsPorts(b *testing.B) {
	benchStudy(b, "fig10", study.Scenario{Traffic: study.TrafficSpec{Load: 0.5}, Sim: benchSim()},
		[]study.Axis{paperSizes, allArchs}, 0, true)
}

// BenchmarkObs1Crossover regenerates §6 observation 1's crossover search
// at 32×32 under the per-word buffer reading (the one that reproduces the
// paper's ≈35% figure).
func BenchmarkObs1Crossover(b *testing.B) {
	base := study.Scenario{Model: study.PerWordModel(), Fabric: study.FabricSpec{Ports: 32}, Sim: benchSim()}
	benchStudy(b, "crossover", base, []study.Axis{paperLoads, allArchs}, 0, true)
}

// BenchmarkSaturationCeiling regenerates the input-buffered saturation
// study behind the paper's 58.6% maximum-throughput statement.
func BenchmarkSaturationCeiling(b *testing.B) {
	base := study.Scenario{Fabric: study.FabricSpec{Arch: "crossbar", Ports: 16}, Sim: benchSim()}
	loads := study.Axis{Name: "load", Floats: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}}
	benchStudy(b, "saturate", base, []study.Axis{loads}, 0, true)
}

// --- sweep engine ---------------------------------------------------------

// benchSweep runs a reduced Fig. 9 sweep (2 sizes × 4 architectures × 3
// loads = 24 points) with the given worker count.
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	benchStudy(b, "fig9", study.Scenario{Sim: benchWindow(50, 400)}, []study.Axis{
		{Name: "ports", Ints: []int{8, 16}},
		allArchs,
		{Name: "load", Floats: []float64{0.2, 0.35, 0.5}},
	}, workers, false)
}

// BenchmarkSweepSequential is the single-worker baseline.
func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel fans the same points across all cores; compare
// against BenchmarkSweepSequential for the sweep-engine speedup (the
// results themselves are bit-identical — see TestFig9ParallelDeterminism).
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// --- simulator substrate micro-benchmarks --------------------------------

// benchFabric measures one fabric slot with each port offering a cell
// with probability load. Cells recirculate through a fixed pool
// (delivered cells are re-offered) and the reusable slot buffers are
// grown during an untimed warmup, so the reported allocs/op are the
// fabric's own — the slot hot path must stay at 0
// (TestStepAllocationFree asserts the same invariant).
func benchFabric(b *testing.B, arch core.Architecture, ports int, load float64) {
	b.Helper()
	cfg := fabric.Config{
		Ports: ports,
		Cell:  packet.Config{CellBits: 1024, BusWidth: 32},
		Model: core.PaperModel(),
	}
	f, err := fabric.New(arch, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pool := make([]*packet.Cell, 0, 8*ports)
	for i := 0; i < 8*ports; i++ {
		pool = append(pool, &packet.Cell{ID: uint64(i + 1), Payload: packet.RandomPayload(rng, 32)})
	}
	destBusy := make([]bool, ports)
	slot := uint64(0)
	step := func() {
		for j := range destBusy {
			destBusy[j] = false
		}
		for p := 0; p < ports; p++ {
			if len(pool) == 0 || rng.Float64() >= load {
				continue
			}
			d := rng.Intn(ports)
			if destBusy[d] {
				continue
			}
			c := pool[len(pool)-1]
			c.Src, c.Dest = p, d
			if f.Offer(c) {
				pool = pool[:len(pool)-1]
				destBusy[d] = true
			}
		}
		pool = append(pool, f.Step(slot)...)
		slot++
	}
	for i := 0; i < 300; i++ {
		step()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkCrossbarStep measures one 32×32 crossbar slot at 50% load.
func BenchmarkCrossbarStep(b *testing.B) { benchFabric(b, core.Crossbar, 32, 0.5) }

// BenchmarkFullyConnectedStep measures one 32×32 MUX-fabric slot.
func BenchmarkFullyConnectedStep(b *testing.B) { benchFabric(b, core.FullyConnected, 32, 0.5) }

// BenchmarkBanyanStep measures one 32×32 Banyan slot including blocking
// and buffer bookkeeping.
func BenchmarkBanyanStep(b *testing.B) { benchFabric(b, core.Banyan, 32, 0.5) }

// BenchmarkBatcherBanyanStep measures one 32×32 Batcher-Banyan slot
// (bitonic sort + routing waves).
func BenchmarkBatcherBanyanStep(b *testing.B) { benchFabric(b, core.BatcherBanyan, 32, 0.5) }

// BenchmarkFabricStep is the fabric/<arch>/load=<l> rung of the
// benchmark ladder: one 32-port slot of each architecture at light,
// moderate and heavy offered load, so a cost that follows the cells
// present (Banyan's occupied-node walk) shows against one that follows
// the fabric's size.
func BenchmarkFabricStep(b *testing.B) {
	for _, arch := range core.Architectures() {
		for _, load := range []float64{0.1, 0.3, 0.5} {
			b.Run(fmt.Sprintf("arch=%v/load=%.1f", arch, load), func(b *testing.B) {
				benchFabric(b, arch, 32, load)
			})
		}
	}
}

// BenchmarkDPMManagedStep is the dpm/<policy> rung of the benchmark
// ladder: one power-managed slot of the router/<queue> rung's 16-port
// Banyan, that is the manager's observation, decision and accounting
// and the gated admission on top of the router step, for three policies
// under both queue disciplines. Only the even ports inject (40% load),
// so the odd half idles and gates while deliveries to it wake its egress
// domains; queues are capped, so a throttled DVFS level drops cells
// instead of growing memory. Reports allocs: the managed slot must stay
// at 0 allocs/op (TestDPMSlotAllocationFree enforces the same
// invariant).
func BenchmarkDPMManagedStep(b *testing.B) {
	const ports = 16
	model := core.PaperModel()
	model.Static = core.DefaultStaticPower()
	cell := packet.Config{CellBits: 1024, BusWidth: 32}
	for _, policy := range []string{"alwayson", "idlegate", "composite"} {
		for _, q := range []router.QueueDiscipline{router.FIFO, router.VOQ} {
			b.Run("policy="+policy+"/queue="+q.String(), func(b *testing.B) {
				pol, err := dpm.NewPolicy(policy)
				if err != nil {
					b.Fatal(err)
				}
				mgr, err := dpm.New(dpm.Config{Arch: core.Banyan, Ports: ports, Model: model, CellBits: cell.CellBits, Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				r, err := router.New(router.Config{
					Arch:          core.Banyan,
					Fabric:        fabric.Config{Ports: ports, Cell: cell, Model: model},
					Queue:         q,
					MaxQueueCells: 64,
					Gate:          mgr,
				})
				if err != nil {
					b.Fatal(err)
				}
				gen, err := traffic.NewInjector(ports, 0.4, cell, traffic.Uniform{}, 1)
				if err != nil {
					b.Fatal(err)
				}
				slot := uint64(0)
				step := func() {
					for _, c := range gen.Generate(slot) {
						if c.Src%2 == 1 || !r.Inject(c, slot) {
							gen.Release(c)
						}
					}
					mgr.PreSlot(slot, r)
					delivered := r.Step(slot)
					mgr.PostSlot(slot, delivered, r.Fabric().Energy())
					for _, c := range delivered {
						gen.Release(c)
					}
					slot++
				}
				for i := 0; i < 300; i++ {
					step()
				}
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
}

// BenchmarkRouterStep is the router/<queue> rung of the benchmark
// ladder: one slot of a 16-port Banyan router at 40% uniform load with
// live injection, arbitration, fabric transport and cell release, for
// the paper's FIFO queues and for VOQ with iSLIP. Cells come from the
// injector's pool and go back to it on delivery or drop, so after the
// untimed warmup the router allocates nothing; the only allocation left
// is the injector's per-slot batch slab, one 32 KiB chunk every few
// hundred slots.
func BenchmarkRouterStep(b *testing.B) {
	const ports = 16
	for _, q := range []router.QueueDiscipline{router.FIFO, router.VOQ} {
		b.Run("queue="+q.String(), func(b *testing.B) {
			cell := packet.Config{CellBits: 1024, BusWidth: 32}
			r, err := router.New(router.Config{
				Arch:   core.Banyan,
				Fabric: fabric.Config{Ports: ports, Cell: cell, Model: core.PaperModel()},
				Queue:  q,
			})
			if err != nil {
				b.Fatal(err)
			}
			gen, err := traffic.NewInjector(ports, 0.4, cell, traffic.Uniform{}, 1)
			if err != nil {
				b.Fatal(err)
			}
			slot := uint64(0)
			step := func() {
				for _, c := range gen.Generate(slot) {
					if !r.Inject(c, slot) {
						gen.Release(c)
					}
				}
				for _, c := range r.Step(slot) {
					gen.Release(c)
				}
				slot++
			}
			for i := 0; i < 300; i++ {
				step()
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// BenchmarkGateSimBanyanSwitch measures the gate-level simulator on the
// 2×2 Banyan switch netlist (one clock cycle per iteration).
func BenchmarkGateSimBanyanSwitch(b *testing.B) {
	lib, err := gates.NewLibrary(2.0, 3.3)
	if err != nil {
		b.Fatal(err)
	}
	sw, err := circuits.BanyanSwitch(lib, 32)
	if err != nil {
		b.Fatal(err)
	}
	s, err := gates.NewSimulator(sw.Netlist)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range sw.In {
			s.SetInput(p.Valid, true)
			s.SetBus(p.Data, rng.Uint64())
		}
		s.Settle()
		s.ClockEdge()
	}
}

// BenchmarkCharacterizeBanyan measures a full LUT characterization of the
// Banyan switch (the Table 1 unit of work).
func BenchmarkCharacterizeBanyan(b *testing.B) {
	lib, err := gates.NewLibrary(2.0, 3.3)
	if err != nil {
		b.Fatal(err)
	}
	sw, err := circuits.BanyanSwitch(lib, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := energy.Characterize(sw, energy.CharOptions{Cycles: 64, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireFlipAccounting measures the XOR/popcount hot path of the
// bit-accurate wire model.
func BenchmarkWireFlipAccounting(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	words := packet.RandomPayload(rng, 32)
	last := uint32(0)
	flips := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var f int
		f, last = packet.FlipsThrough(last, words)
		flips += f
	}
	if flips < 0 {
		b.Fatal("impossible")
	}
}
