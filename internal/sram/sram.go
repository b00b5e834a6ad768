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
// AccessEnergyFJPerBit captures exactly this piecewise behaviour with
// constants calibrated so Table 2 is reproduced; the calibration points
// and fit are checked by the package tests.
//
// Eq. 1 prices a buffered bit as E_B_bit = E_access + E_ref. The refresh
// term E_ref is a DRAM cost; the paper's buffers are SRAM, whose refresh
// energy is zero, so it is not modelled and E_B_bit is E_access.
package sram

import (
	"fmt"
	"math"
)

// The Table 2 calibration of an off-the-shelf 0.18 µm 3.3 V SRAM at
// 133 MHz, in femtojoules to match the rest of the code base (Table 2
// quotes picojoules; 1 pJ = 1000 fJ). The floor matches the 16/48 Kbit
// rows; the linear regime E = base + slope × (capacity in Kbit) is the
// exact fit through the 128 Kbit and 320 Kbit rows.
const (
	// floorFJ is the peripheral-dominated minimum per-bit access energy.
	floorFJ = 140e3
	// baseFJ and slopeFJPerKbit give the array-dominated linear regime.
	baseFJ         = 108666.67
	slopeFJPerKbit = 354.1667
)

// AccessEnergyFJPerBit returns E_access for one bit buffered in a shared
// SRAM of the given capacity in bits.
func AccessEnergyFJPerBit(capacityBits int) float64 {
	if capacityBits <= 0 {
		return 0
	}
	kbit := float64(capacityBits) / 1024.0
	linear := baseFJ + slopeFJPerKbit*kbit
	return math.Max(floorFJ, linear)
}

// NodeBufferBits is each buffered node's share of the shared SRAM: the
// paper's 4 Kbit per Banyan node, following the "a few packets is
// enough" results it cites.
const NodeBufferBits = 4096

// BufferSpec sizes the shared buffer memory of a fabric: each buffered
// node switch owns PerNodeBits of a shared SRAM.
type BufferSpec struct {
	PerNodeBits int
	NumNodes    int
}

// SharedBits returns the total shared SRAM capacity.
func (b BufferSpec) SharedBits() int { return b.PerNodeBits * b.NumNodes }

// BanyanBufferSpec returns the buffer sizing for an N=2^dim Banyan fabric:
// ½·N·log₂N node switches with NodeBufferBits each (Table 2's "Number of
// Switches" and "Shared SRAM Size" columns).
func BanyanBufferSpec(dim int) (BufferSpec, error) {
	if dim < 1 {
		return BufferSpec{}, fmt.Errorf("sram: banyan dimension must be >= 1, got %d", dim)
	}
	n := 1 << uint(dim)
	return BufferSpec{PerNodeBits: NodeBufferBits, NumNodes: n / 2 * dim}, nil
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
// (the paper's rows are dims 2,3,4,5).
func Table2(dims []int) ([]Table2Row, error) {
	rows := make([]Table2Row, 0, len(dims))
	for _, dim := range dims {
		spec, err := BanyanBufferSpec(dim)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Ports:       1 << uint(dim),
			Switches:    spec.NumNodes,
			SharedKbit:  spec.SharedBits() / 1024,
			BitEnergyPJ: AccessEnergyFJPerBit(spec.SharedBits()) / 1000.0,
		})
	}
	return rows, nil
}
