// Package fabricpower estimates the power consumption of network-router
// switch fabrics, reproducing Ye, Benini and De Micheli, "Analysis of
// Power Consumption on Switch Fabrics in Network Routers" (DAC 2002).
//
// The library models the energy of every bit moving through a fabric —
// the paper's bit-energy framework — across three components: node
// switches (input-vector indexed look-up tables), internal buffers
// (shared-SRAM access energy paid on interconnect contention), and
// interconnect wires (½·C·V² per polarity flip, with Thompson-grid wire
// lengths). Four architectures are provided: Crossbar, FullyConnected,
// Banyan and BatcherBanyan.
//
// Two entry points cover most uses:
//
//   - Analytic evaluates the paper's closed-form worst-case bit energies
//     (Eqs. 3–6) for an architecture and port count.
//
//   - Simulate runs the bit-accurate slot simulator: TCP/IP-like traffic
//     through input-buffered ingress queues, an FCFS round-robin arbiter
//     and the selected fabric, returning measured throughput, latency and
//     a per-component power breakdown.
//
// See the examples directory for runnable walkthroughs, README.md for how
// to regenerate every figure (in parallel), and internal/exp for the
// experiment-by-experiment reproduction record.
package fabricpower

import (
	"fmt"

	"fabricpower/internal/core"
	"fabricpower/study"
)

// Architecture selects a switch-fabric topology.
type Architecture int

// The four architectures analyzed by the paper.
const (
	Crossbar Architecture = iota
	FullyConnected
	Banyan
	BatcherBanyan
)

// String returns the canonical lower-case name.
func (a Architecture) String() string { return a.core().String() }

func (a Architecture) core() core.Architecture {
	return core.Architecture(a)
}

// Architectures lists all four in paper order.
func Architectures() []Architecture {
	return []Architecture{Crossbar, FullyConnected, Banyan, BatcherBanyan}
}

// Model wraps the bit-energy model parameters (technology point, node
// switch LUTs, buffer memory calibration) as the scenario model spec
// Simulate runs.
type Model struct {
	spec study.ModelSpec
}

// DefaultModel returns the paper's case study: 0.18 µm / 3.3 V, Table 1
// reference LUTs, Table 2 SRAM calibration, 4 Kbit node buffers.
func DefaultModel() Model { return Model{spec: study.PaperModel()} }

// PerWordBufferModel returns the alternative Table 2 reading in which the
// SRAM access energy is charged per 32-bit word rather than per bit. It
// does not reproduce the paper's ≈35% Banyan crossover at 32×32: Banyan
// is cheapest through 50% load per word, and at no load per bit (see the
// BufferAccessGranularityBits discussion in internal/core).
func PerWordBufferModel() Model { return Model{spec: study.PerWordModel()} }

// WithTechScaling derives a model at a scaled technology point: s scales
// feature size and capacitances, sv scales the supply voltage. Use it for
// what-if studies (e.g. a 0.13 µm shrink at 1.8 V: s=0.72, sv=0.55).
// Scalings compose by multiplication.
func (m Model) WithTechScaling(s, sv float64) (Model, error) {
	out := m
	ts := study.TechScale{S: s, SV: sv}
	if m.spec.TechScale != nil {
		ts.S *= m.spec.TechScale.S
		ts.SV *= m.spec.TechScale.SV
	}
	out.spec.TechScale = &ts
	if _, err := out.spec.Build(); err != nil {
		return Model{}, err
	}
	return out, nil
}

// WithBufferAccesses sets how many SRAM accesses one buffering event
// charges per bit (1 = paper's Eq. 1, 2 = explicit write+read).
func (m Model) WithBufferAccesses(n int) (Model, error) {
	if n < 1 || n > 2 {
		return Model{}, fmt.Errorf("fabricpower: buffer accesses per event must be 1 or 2, got %d", n)
	}
	out := m
	out.spec.BufferAccesses = n
	return out, nil
}

// WithStaticPower attaches the default static-power model (leakage and
// clock trees) so a power-managed simulation (Options.DPM) has idle
// power to save and Report.Power.StaticMW is non-zero. Without it the
// model reproduces the paper's dynamic-only accounting.
func (m Model) WithStaticPower() Model {
	out := m
	out.spec.Static = true
	return out
}

// BitEnergy is a per-component energy breakdown in femtojoules — the
// same type as Report.Energy.
type BitEnergy = study.Energy

// Analytic evaluates the paper's closed-form worst-case bit energy
// (Eqs. 3–6) for one contention-free bit through the architecture.
func Analytic(a Architecture, ports int, m Model) (BitEnergy, error) {
	model, err := m.spec.Build()
	if err != nil {
		return BitEnergy{}, err
	}
	return model.BitEnergy(a.core(), ports)
}

// TrafficKind selects the workload shape.
type TrafficKind int

// Supported workloads.
const (
	// UniformTraffic is the paper's Bernoulli arrivals with uniform
	// random destinations.
	UniformTraffic TrafficKind = iota
	// BurstyTraffic uses on/off Markov sources.
	BurstyTraffic
	// HotspotTraffic concentrates a fraction of cells on one port.
	HotspotTraffic
)

// Options configures one simulation: a single-router scenario (see
// study.Scenario) written as Go fields.
type Options struct {
	// Architecture and Ports select the fabric (ports default to 16 and
	// must be a power of two for the multistage fabrics; Batcher-Banyan
	// needs ≥ 4).
	Architecture Architecture
	Ports        int
	// OfferedLoad is the per-port injection probability per cell slot,
	// in [0,1].
	OfferedLoad float64
	// CellBits is the fixed cell size (default 1024).
	CellBits int
	// Traffic selects the workload (default UniformTraffic).
	Traffic TrafficKind
	// MeanBurstSlots tunes BurstyTraffic (default 10).
	MeanBurstSlots float64
	// HotspotPort and HotspotFraction tune HotspotTraffic (defaults 0
	// and 0.3). A zero HotspotFraction alone selects the 0.3 default;
	// set ZeroHotspotFraction to make the zero literal.
	HotspotPort     int
	HotspotFraction float64
	// ZeroHotspotFraction makes HotspotFraction: 0 literal — a hotspot
	// source that sends nothing extra to the hotspot (pure uniform).
	// The escape hatch exists because the zero value otherwise means
	// "unset, use the default".
	ZeroHotspotFraction bool
	// UseVOQ replaces the paper's FIFO ingress with virtual output
	// queues and iSLIP matching (extension).
	UseVOQ bool
	// WarmupSlots and MeasureSlots bound the run (defaults 300/3000).
	// A zero WarmupSlots alone selects the 300-slot default; set
	// NoWarmup to measure from slot 0 with cold queues and pipelines.
	WarmupSlots  uint64
	MeasureSlots uint64
	// NoWarmup makes WarmupSlots: 0 literal (see WarmupSlots).
	NoWarmup bool
	// Seed is the base seed (default 1); the traffic stream derives
	// from (Seed, Ports, OfferedLoad) exactly as for every scenario
	// point. A zero Seed alone selects the default; set ZeroSeed to
	// run on seed 0 itself.
	Seed int64
	// ZeroSeed makes Seed: 0 literal (see Seed).
	ZeroSeed bool
	// DPM names a dynamic power-management policy ("alwayson",
	// "idlegate", "buffersleep", "loaddvfs" or "composite") to drive the
	// router.
	// Combine with Model.WithStaticPower for the policy to have idle
	// power to save; the ledger lands in Report.Power.StaticMW and
	// Report.DPM. Empty means the paper's unmanaged router.
	DPM string
	// Model overrides the bit-energy model (default DefaultModel).
	Model *Model
}

// trafficKinds names each TrafficKind as a scenario traffic kind.
var trafficKinds = [...]string{
	UniformTraffic: "uniform",
	BurstyTraffic:  "bursty",
	HotspotTraffic: "hotspot",
}

// scenario maps the options onto the single-router scenario they
// describe. The escape hatches only decide whether a zero is written
// as a literal or left to the scenario's default.
func (o Options) scenario() (study.Scenario, error) {
	if o.Traffic < 0 || int(o.Traffic) >= len(trafficKinds) {
		return study.Scenario{}, fmt.Errorf("fabricpower: unknown traffic kind %d", int(o.Traffic))
	}
	sc := study.Scenario{
		Fabric: study.FabricSpec{Arch: o.Architecture.String(), Ports: o.Ports, CellBits: o.CellBits},
		Traffic: study.TrafficSpec{
			Kind:           trafficKinds[o.Traffic],
			Load:           o.OfferedLoad,
			MeanBurstSlots: o.MeanBurstSlots,
			HotspotPort:    o.HotspotPort,
		},
		DPM: o.DPM,
		Sim: study.SimSpec{MeasureSlots: o.MeasureSlots, Seed: o.Seed},
	}
	if o.Model != nil {
		sc.Model = o.Model.spec
	}
	if o.UseVOQ {
		sc.Queue = "voq"
	}
	if o.HotspotFraction != 0 || o.ZeroHotspotFraction {
		f := o.HotspotFraction
		sc.Traffic.HotspotFraction = &f
	}
	if o.WarmupSlots != 0 || o.NoWarmup {
		w := o.WarmupSlots
		sc.Sim.WarmupSlots = &w
	}
	if o.Seed == 0 && !o.ZeroSeed {
		sc.Sim.Seed = 1
	}
	return sc, nil
}

// Report is the outcome of one simulation — the study.Result that
// `fabricpower run -json` prints for the same single-router point:
// measured throughput and latency, the per-component power breakdown
// (Power.TotalMW sums it, static included), the energy per delivered
// bit (directly comparable to Analytic's worst case) and, under a
// power manager, its ledger in DPM.
type Report = study.Result

// Simulate runs the bit-accurate simulation platform on one operating
// point and reports measured throughput, latency and power. It is
// study.RunScenario on the scenario the options describe, so it agrees
// with the `simulate` study and `fabricpower run` at the same point.
func Simulate(opt Options) (Report, error) {
	sc, err := opt.scenario()
	if err != nil {
		return Report{}, err
	}
	return study.RunScenario(sc)
}
