// Package core implements the paper's primary contribution: the bit-energy
// (E_bit) power-estimation framework for switch fabrics.
//
// E_bit — the energy one bit consumes traveling from an ingress port to an
// egress port — is the sum of three components with distinct models
// (paper §3):
//
//   - E_S_bit on node switches: input-vector indexed look-up tables
//     (internal/energy) pre-characterized at gate level.
//   - E_B_bit on internal buffers: Eq. 1, E_access + E_ref
//     (internal/sram), paid when interconnect contention parks a packet;
//     the buffers are SRAM, so E_ref is zero.
//   - E_W_bit on interconnect wires: Eq. 2, ½·C_W·V² per polarity flip,
//     with wire lengths in Thompson grids (internal/tech,
//     internal/thompson) so E_W = m·E_T.
//
// The package provides the energy-accounting types shared by the dynamic
// simulator (internal/fabric, internal/sim) and the closed-form worst-case
// bit energies of Eqs. 3–6 for the four analyzed architectures.
//
// Beyond the paper, the model carries a static/leakage extension
// (StaticPower, Inventory): per-component idle power, power-state
// transition energy and wakeup latency, consumed by the dynamic
// power-management subsystem in internal/dpm. PaperModel leaves it at
// zero, so all paper reproductions keep their dynamic-only accounting.
package core

import (
	"fmt"

	"fabricpower/internal/energy"
	"fabricpower/internal/sram"
	"fabricpower/internal/tech"
	"fabricpower/internal/thompson"
)

// Architecture enumerates the four switch-fabric architectures analyzed in
// the paper (§4).
type Architecture int

// The analyzed architectures.
const (
	Crossbar Architecture = iota
	FullyConnected
	Banyan
	BatcherBanyan
)

var archNames = [...]string{"crossbar", "fullyconnected", "banyan", "batcherbanyan"}

func (a Architecture) String() string {
	if a < 0 || int(a) >= len(archNames) {
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
	return archNames[a]
}

// ParseArchitecture converts a name into an Architecture.
func ParseArchitecture(s string) (Architecture, error) {
	for i, n := range archNames {
		if s == n {
			return Architecture(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown architecture %q (want one of %v)", s, archNames)
}

// Architectures lists all four in paper order.
func Architectures() []Architecture {
	return []Architecture{Crossbar, FullyConnected, Banyan, BatcherBanyan}
}

// Component identifies one of the three power sinks of a switch fabric.
type Component int

// The three components of §3.
const (
	SwitchComponent Component = iota
	BufferComponent
	WireComponent
)

func (c Component) String() string {
	switch c {
	case SwitchComponent:
		return "switch"
	case BufferComponent:
		return "buffer"
	case WireComponent:
		return "wire"
	}
	return fmt.Sprintf("Component(%d)", int(c))
}

// Breakdown accumulates energy per component, in fJ. The zero value is an
// empty ledger ready to use.
type Breakdown struct {
	SwitchFJ float64 `json:"switchFJ"`
	BufferFJ float64 `json:"bufferFJ"`
	WireFJ   float64 `json:"wireFJ"`
}

// TotalFJ returns the summed energy.
func (b Breakdown) TotalFJ() float64 { return b.SwitchFJ + b.BufferFJ + b.WireFJ }

// Add returns the component-wise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		SwitchFJ: b.SwitchFJ + o.SwitchFJ,
		BufferFJ: b.BufferFJ + o.BufferFJ,
		WireFJ:   b.WireFJ + o.WireFJ,
	}
}

// Scale returns the breakdown with every component multiplied by f.
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{SwitchFJ: b.SwitchFJ * f, BufferFJ: b.BufferFJ * f, WireFJ: b.WireFJ * f}
}

// Accumulate adds energy to one component in place.
func (b *Breakdown) Accumulate(c Component, fj float64) {
	switch c {
	case SwitchComponent:
		b.SwitchFJ += fj
	case BufferComponent:
		b.BufferFJ += fj
	case WireComponent:
		b.WireFJ += fj
	}
}

// Model holds what a spec can vary in the bit-energy framework: the
// technology point and the buffer accounting, plus the static-power
// extension. The paper's tables are not fields: the node-switch LUTs are
// always Table 1's (energy.PaperCrosspointFJ, PaperBanyanFJ,
// PaperBatcherFJ and, at the fabric's port count, PaperMuxEnergyFJ), the
// buffer access energy is Table 2's (sram.AccessEnergyFJPerBit) and each
// buffered node holds sram.NodeBufferBits.
type Model struct {
	// Tech is the process operating point (E_T derivation, voltages).
	Tech tech.Params

	// BufferAccessesPerEvent counts how many E_access charges one
	// buffering event costs per bit. The paper's Eq. 1 charges a single
	// access; set 2 to charge the write and the read explicitly (the
	// ablation in internal/exp quantifies the difference).
	BufferAccessesPerEvent int

	// Static is the always-on power model (leakage and clock trees) the
	// power-management subsystem (internal/dpm) charges per slot. The
	// zero value — PaperModel's default — means no static power: the
	// paper's dynamic-only accounting, under which every reproduction
	// result is unchanged. See StaticPower and DefaultStaticPower.
	Static StaticPower

	// BufferAccessGranularityBits resolves an ambiguity in the paper's
	// buffer accounting. §3.2 says E_access "is actually the average
	// energy consumed for one bit", which is the default (1). But with
	// Table 2's 140–222 pJ charged per bit, a single buffered cell costs
	// ~200 nJ — two orders of magnitude above its switching path — and
	// the Banyan's low-load advantage at 32×32 (§6 obs. 1) cannot
	// materialize at any realistic load: the 32×32 crossover sits at 0%
	// (the crossover golden). Reading the off-the-shelf SRAM datasheet
	// numbers as per 32-bit word access (granularity 32) overshoots the
	// paper's ≈35% instead: Banyan is then cheapest through 50% load and
	// the crossbar from 55% on. Only the per-bit reading has a golden.
	BufferAccessGranularityBits int
}

// PaperModel returns the model of the paper's case study: 0.18 µm/3.3 V
// technology, single-access per-bit buffering.
func PaperModel() Model {
	return Model{
		Tech:                        tech.Default180nm(),
		BufferAccessesPerEvent:      1,
		BufferAccessGranularityBits: 1,
	}
}

// PerWordModel returns the paper model with Table 2's access energy
// interpreted per 32-bit word instead of per bit — the alternative reading
// of §6 observation 1, which puts the 32×32 crossover at 50% rather than
// the paper's ≈35% (see the BufferAccessGranularityBits documentation).
func PerWordModel() Model {
	m := PaperModel()
	m.BufferAccessGranularityBits = m.Tech.BusWidth
	return m
}

// Validate reports whether the model is complete and self-consistent.
func (m Model) Validate() error {
	if err := m.Tech.Validate(); err != nil {
		return err
	}
	if m.BufferAccessesPerEvent < 1 || m.BufferAccessesPerEvent > 2 {
		return fmt.Errorf("core: buffer accesses per event must be 1 or 2, got %d", m.BufferAccessesPerEvent)
	}
	if m.BufferAccessGranularityBits < 1 || m.BufferAccessGranularityBits > 64 {
		return fmt.Errorf("core: buffer access granularity must be 1..64 bits, got %d", m.BufferAccessGranularityBits)
	}
	return m.Static.Validate()
}

// BanyanBufferBitEnergyFJ returns E_B_bit for one buffering event in an
// N=2^dim Banyan fabric: Eq. 1's access energy for the shared SRAM that
// fabric size implies (Table 2), times BufferAccessesPerEvent, divided by
// BufferAccessGranularityBits. SRAM has no refresh term.
func (m Model) BanyanBufferBitEnergyFJ(dim int) (float64, error) {
	spec, err := sram.BanyanBufferSpec(dim)
	if err != nil {
		return 0, err
	}
	e := sram.AccessEnergyFJPerBit(spec.SharedBits())
	return e * float64(m.BufferAccessesPerEvent) / float64(m.BufferAccessGranularityBits), nil
}

// dimOf returns log2(n), rejecting non-powers of two.
func dimOf(n int) (int, error) {
	if n < 2 || n&(n-1) != 0 {
		return 0, fmt.Errorf("core: port count must be a power of two >= 2, got %d", n)
	}
	d := 0
	for v := n; v > 1; v >>= 1 {
		d++
	}
	return d, nil
}

// CrossbarBitEnergy evaluates Eq. 3 for an N×N crossbar:
//
//	E_bit = N·E_S + 8N·E_T
//
// Every bit toggles the input gates of the N crosspoints on its row and
// propagates the full 4N-grid row and column wires.
func (m Model) CrossbarBitEnergy(n int) (Breakdown, error) {
	if n < 1 {
		return Breakdown{}, fmt.Errorf("core: crossbar size must be >= 1, got %d", n)
	}
	w := thompson.CrossbarWires{N: n}
	return Breakdown{
		SwitchFJ: float64(n) * energy.PaperCrosspointFJ(0b1),
		WireFJ:   m.Tech.WireBitEnergyFJ(float64(w.PathGrids(0, 0))),
	}, nil
}

// FullyConnectedBitEnergy evaluates Eq. 4 for an N×N fully-connected
// (MUX-based) fabric:
//
//	E_bit = E_S(muxN) + ½·N²·E_T
func (m Model) FullyConnectedBitEnergy(n int) (Breakdown, error) {
	if _, err := dimOf(n); err != nil {
		return Breakdown{}, err
	}
	muxFJ, err := energy.PaperMuxEnergyFJ(n)
	if err != nil {
		return Breakdown{}, err
	}
	w := thompson.FullyConnectedWires{N: n}
	return Breakdown{
		SwitchFJ: muxFJ,
		WireFJ:   m.Tech.WireBitEnergyFJ(float64(w.WorstGrids())),
	}, nil
}

// BanyanBitEnergy evaluates Eq. 5 for an N=2^dim Banyan fabric:
//
//	E_bit = Σ qᵢ·E_B + 4·Σ 2ⁱ·E_T + n·E_S
//
// contended[i] is qᵢ: whether the bit's packet lost the stage-i
// interconnect and was buffered. Pass nil for the contention-free path.
func (m Model) BanyanBitEnergy(n int, contended []bool) (Breakdown, error) {
	dim, err := dimOf(n)
	if err != nil {
		return Breakdown{}, err
	}
	if contended != nil && len(contended) != dim {
		return Breakdown{}, fmt.Errorf("core: contention vector must have %d stages, got %d", dim, len(contended))
	}
	eb, err := m.BanyanBufferBitEnergyFJ(dim)
	if err != nil {
		return Breakdown{}, err
	}
	var b Breakdown
	w := thompson.BanyanWires{Dimension: dim}
	for i := 0; i < dim; i++ {
		b.WireFJ += m.Tech.WireBitEnergyFJ(float64(w.StageGrids(i)))
		if contended != nil && contended[i] {
			b.BufferFJ += eb
		}
	}
	b.SwitchFJ = float64(dim) * energy.PaperBanyanFJ(0b01)
	return b, nil
}

// BatcherBanyanBitEnergy evaluates Eq. 6 for an N=2^dim Batcher-Banyan
// fabric:
//
//	E_bit = 4·Σⱼ Σᵢ 2ⁱ·E_T + 4·Σ 2ⁱ·E_T + ½n(n+1)·E_SS + n·E_SB
//
// The sorting network removes interconnect contention, so there is no
// buffer term; the price is ½n(n+1) sorter stages.
func (m Model) BatcherBanyanBitEnergy(n int) (Breakdown, error) {
	dim, err := dimOf(n)
	if err != nil {
		return Breakdown{}, err
	}
	if dim < 2 {
		return Breakdown{}, fmt.Errorf("core: Batcher-Banyan needs N >= 4, got %d", n)
	}
	w := thompson.BatcherBanyanWires{Dimension: dim}
	var b Breakdown
	b.WireFJ = m.Tech.WireBitEnergyFJ(float64(w.PathGrids()))
	b.SwitchFJ = float64(w.SorterStages())*energy.PaperBatcherFJ(0b01) +
		float64(dim)*energy.PaperBanyanFJ(0b01)
	return b, nil
}

// BitEnergy dispatches to the architecture's closed-form equation with the
// contention-free path (qᵢ = 0 for Banyan).
func (m Model) BitEnergy(a Architecture, n int) (Breakdown, error) {
	switch a {
	case Crossbar:
		return m.CrossbarBitEnergy(n)
	case FullyConnected:
		return m.FullyConnectedBitEnergy(n)
	case Banyan:
		return m.BanyanBitEnergy(n, nil)
	case BatcherBanyan:
		return m.BatcherBanyanBitEnergy(n)
	}
	return Breakdown{}, fmt.Errorf("core: unknown architecture %v", a)
}
