// Package sram models the energy of the shared buffer memories inside
// switch fabrics (paper §3.2 and §5.1, Table 2).
//
// The paper takes an off-the-shelf 0.18 µm 3.3 V SRAM operated at 133 MHz
// as its reference and derives a per-bit access energy that grows with the
// shared memory size: 140 pJ at 16 Kbit and 48 Kbit, 154 pJ at 128 Kbit,
// 222 pJ at 320 Kbit. Two regimes are visible in those numbers:
//
//   - Small arrays are dominated by the fixed peripheral energy (decoder
//     final stages, sense amplifiers, I/O drivers — the datasheet's
//     minimum operating current), a floor that does not shrink with the
//     array.
//
//   - Past ~100 Kbit the array itself (word-line and bit-line capacitance,
//     which scale with the array dimensions) takes over and the per-bit
//     energy grows approximately linearly with capacity.
//
// AccessModel captures exactly this piecewise behaviour with constants
// calibrated so Table 2 is reproduced; the calibration points and fit are
// checked by the package tests. A DRAM refresh term is provided for Eq. 1
// (E_B_bit = E_access + E_ref) completeness; the paper's experiments use
// SRAM, whose refresh energy is zero.
package sram

import (
	"fmt"
	"math"
)

// AccessModel computes the per-bit buffer access energy for a shared
// SRAM of a given capacity. Energies are in femtojoules to match the rest
// of the code base (Table 2 quotes picojoules; 1 pJ = 1000 fJ).
type AccessModel struct {
	// FloorFJ is the peripheral-dominated minimum per-bit access energy.
	FloorFJ float64
	// BaseFJ and SlopeFJPerKbit give the array-dominated linear regime:
	// E = BaseFJ + SlopeFJPerKbit × (capacity in Kbit).
	BaseFJ         float64
	SlopeFJPerKbit float64
}

// DefaultAccessModel returns the model calibrated to the paper's Table 2
// (off-the-shelf 0.18 µm 3.3 V SRAM at 133 MHz). The linear regime is the
// exact fit through the 128 Kbit and 320 Kbit rows; the floor matches the
// 16/48 Kbit rows.
func DefaultAccessModel() AccessModel {
	return AccessModel{
		FloorFJ:        140e3,
		BaseFJ:         108666.67,
		SlopeFJPerKbit: 354.1667,
	}
}

// Validate reports whether the model constants are usable.
func (m AccessModel) Validate() error {
	if m.FloorFJ <= 0 {
		return fmt.Errorf("sram: floor energy must be positive, got %g", m.FloorFJ)
	}
	if m.BaseFJ < 0 || m.SlopeFJPerKbit < 0 {
		return fmt.Errorf("sram: linear regime must be non-negative (base %g, slope %g)", m.BaseFJ, m.SlopeFJPerKbit)
	}
	return nil
}

// AccessEnergyFJPerBit returns E_access for one bit buffered in a shared
// SRAM of the given capacity in bits.
func (m AccessModel) AccessEnergyFJPerBit(capacityBits int) float64 {
	if capacityBits <= 0 {
		return 0
	}
	kbit := float64(capacityBits) / 1024.0
	linear := m.BaseFJ + m.SlopeFJPerKbit*kbit
	return math.Max(m.FloorFJ, linear)
}

// RefreshModel is the DRAM refresh term of Eq. 1. Refresh energy is
// charged per bit per refresh interval and amortized over the bits
// buffered during that interval; for SRAM it is zero.
type RefreshModel struct {
	// EnergyFJPerBitPerRefresh is the energy to refresh one stored bit
	// once.
	EnergyFJPerBitPerRefresh float64
	// IntervalNS is the refresh period (typically 64 ms for DRAM);
	// zero disables refresh (SRAM).
	IntervalNS float64
}

// SRAMRefresh returns the zero refresh model used by the paper's
// experiments.
func SRAMRefresh() RefreshModel { return RefreshModel{} }

// RefreshEnergyFJPerBit returns E_ref: the refresh energy attributable to
// one bit that stays buffered for residencyNS nanoseconds.
func (r RefreshModel) RefreshEnergyFJPerBit(residencyNS float64) float64 {
	if r.IntervalNS <= 0 || residencyNS <= 0 {
		return 0
	}
	refreshes := residencyNS / r.IntervalNS
	return refreshes * r.EnergyFJPerBitPerRefresh
}

// BufferSpec sizes the shared buffer memory of a fabric: each buffered
// node switch owns PerNodeBits of a shared SRAM (the paper uses 4 Kbit per
// Banyan node, following the "a few packets is enough" results it cites).
type BufferSpec struct {
	PerNodeBits int
	NumNodes    int
}

// SharedBits returns the total shared SRAM capacity.
func (b BufferSpec) SharedBits() int { return b.PerNodeBits * b.NumNodes }

// Validate reports whether the spec is usable.
func (b BufferSpec) Validate() error {
	if b.PerNodeBits <= 0 || b.NumNodes <= 0 {
		return fmt.Errorf("sram: buffer spec must be positive, got %d bits × %d nodes", b.PerNodeBits, b.NumNodes)
	}
	return nil
}

// BanyanBufferSpec returns the buffer sizing for an N=2^dim Banyan fabric:
// ½·N·log₂N node switches with perNodeBits each (Table 2's "Number of
// Switches" and "Shared SRAM Size" columns).
func BanyanBufferSpec(dim, perNodeBits int) (BufferSpec, error) {
	if dim < 1 {
		return BufferSpec{}, fmt.Errorf("sram: banyan dimension must be >= 1, got %d", dim)
	}
	if perNodeBits <= 0 {
		return BufferSpec{}, fmt.Errorf("sram: per-node bits must be positive, got %d", perNodeBits)
	}
	n := 1 << uint(dim)
	return BufferSpec{PerNodeBits: perNodeBits, NumNodes: n / 2 * dim}, nil
}

// BitEnergy combines Eq. 1: E_B_bit = E_access + E_ref for a bit buffered
// once in the shared memory, with the given residency for the refresh
// term.
func BitEnergy(m AccessModel, r RefreshModel, spec BufferSpec, residencyNS float64) float64 {
	return m.AccessEnergyFJPerBit(spec.SharedBits()) + r.RefreshEnergyFJPerBit(residencyNS)
}

// Table2Row is one row of the paper's Table 2.
type Table2Row struct {
	// Ports is the fabric size N (N×N Banyan).
	Ports int
	// Switches is the node-switch count ½·N·log₂N.
	Switches int
	// SharedKbit is the shared SRAM capacity in Kbit.
	SharedKbit int
	// BitEnergyPJ is the per-bit access energy in pJ.
	BitEnergyPJ float64
}

// Table2 regenerates the paper's Table 2 for the given fabric dimensions
// using the access model (use DefaultAccessModel for the calibrated
// reproduction; the paper's rows are dims 2,3,4,5 with 4 Kbit per node).
func Table2(m AccessModel, dims []int, perNodeBits int) ([]Table2Row, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	rows := make([]Table2Row, 0, len(dims))
	for _, dim := range dims {
		spec, err := BanyanBufferSpec(dim, perNodeBits)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Ports:       1 << uint(dim),
			Switches:    spec.NumNodes,
			SharedKbit:  spec.SharedBits() / 1024,
			BitEnergyPJ: m.AccessEnergyFJPerBit(spec.SharedBits()) / 1000.0,
		})
	}
	return rows, nil
}
