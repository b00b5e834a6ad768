package core

import (
	"fmt"

	"fabricpower/internal/sram"
)

// StaticPower extends the bit-energy framework with the always-on power
// the DAC 2002 model omits: leakage and clock-tree power drawn by every
// fabric component whether or not bits move. The dynamic model (Eqs. 1–6)
// only charges transported bits, so an unmanaged fabric at low load looks
// artificially cheap; with a static model attached, idle power dominates
// low-load operation and power-management policies (internal/dpm) have a
// measurable cost/benefit.
//
// The zero value means "no static power": the fabric reverts to the
// paper's dynamic-only accounting and every power-management policy
// becomes a no-op on the ledger. PaperModel uses the zero value so all
// paper reproductions are unchanged; DefaultStaticPower provides the
// calibrated operating point the power-management studies use.
//
// Units follow the repo convention: power in mW, energy in fJ, time in
// slots of the serial-line cell time.
type StaticPower struct {
	// SwitchIdleMW is the idle (leakage + local clock) power of one node
	// switch: a crosspoint, 2×2 switching element or output MUX.
	SwitchIdleMW float64

	// BufferIdleMWPerKbit is the idle power of fabric-internal SRAM,
	// per Kbit of capacity (data retention plus array clocking).
	BufferIdleMWPerKbit float64

	// WireIdleMW is the idle power of one interconnect wire driver
	// (repeater bias and pre-driver clocking), per bus link.
	WireIdleMW float64

	// GatedFraction is the fraction of idle power a clock-gated
	// component still draws (leakage survives gating; the clock tree
	// does not). Typically 0.1–0.2 for 0.18 µm.
	GatedFraction float64

	// SleepFraction is the fraction of idle power a drowsy SRAM bank
	// draws: the retention voltage keeps state at reduced leakage.
	SleepFraction float64

	// WakeupSlots is the latency, in cell slots, for a gated component
	// to return to service (clock-tree restart / PLL relock). Cells
	// bound for a waking ingress port wait in their queue, so the
	// penalty shows up in measured cell latency.
	WakeupSlots int

	// TransitionFJ is the energy charged per component per power-state
	// transition (gating control, latch save/restore, rail settle).
	TransitionFJ float64
}

// DefaultStaticPower returns the calibrated static operating point used
// by the power-management studies: sized so that a 16×16 Banyan draws
// roughly as much static as dynamic power near 20% load — idle power
// dominates below, switching power above, matching the equipment-level
// surveys that motivate gating studies.
func DefaultStaticPower() StaticPower {
	return StaticPower{
		SwitchIdleMW:        0.020,
		BufferIdleMWPerKbit: 0.010,
		WireIdleMW:          0.010,
		GatedFraction:       0.15,
		SleepFraction:       0.30,
		WakeupSlots:         2,
		TransitionFJ:        2000,
	}
}

// IsZero reports whether the model carries no static power at all, i.e.
// the paper's dynamic-only accounting.
func (s StaticPower) IsZero() bool {
	return s.SwitchIdleMW == 0 && s.BufferIdleMWPerKbit == 0 && s.WireIdleMW == 0
}

// Validate reports whether the static model is physically meaningful.
// The zero value is valid (no static power).
func (s StaticPower) Validate() error {
	switch {
	case s.SwitchIdleMW < 0 || s.BufferIdleMWPerKbit < 0 || s.WireIdleMW < 0:
		return fmt.Errorf("core: static idle powers must be >= 0, got %+v", s)
	case s.GatedFraction < 0 || s.GatedFraction > 1:
		return fmt.Errorf("core: gated fraction must be in [0,1], got %g", s.GatedFraction)
	case s.SleepFraction < 0 || s.SleepFraction > 1:
		return fmt.Errorf("core: sleep fraction must be in [0,1], got %g", s.SleepFraction)
	case s.WakeupSlots < 0:
		return fmt.Errorf("core: wakeup slots must be >= 0, got %d", s.WakeupSlots)
	case s.TransitionFJ < 0:
		return fmt.Errorf("core: transition energy must be >= 0, got %g", s.TransitionFJ)
	}
	return nil
}

// Inventory counts the power-drawing component instances of one fabric
// configuration — the population the static model multiplies over and
// the granularity the power-management state machines gate.
type Inventory struct {
	// SwitchNodes is the number of node switches (crosspoints, 2×2
	// elements, MUXes).
	SwitchNodes int
	// WireDrivers is the number of interconnect bus links with their own
	// drivers.
	WireDrivers int
	// BufferBanks and BufferBitsPerBank describe the fabric-internal
	// SRAM (Banyan node buffers; zero for the bufferless fabrics).
	BufferBanks       int
	BufferBitsPerBank int
}

// Components returns the total component instance count (switches,
// drivers and buffer banks), the multiplier for transition energy when a
// whole fabric changes state.
func (v Inventory) Components() int {
	return v.SwitchNodes + v.WireDrivers + v.BufferBanks
}

// Inventory returns the component population of an N-port fabric of the
// given architecture:
//
//   - Crossbar: N² crosspoints, N row + N column buses.
//   - Fully connected: N output MUXes, N input buses.
//   - Banyan: log₂N stages of N/2 elements with a buffer bank each, and
//     N links per stage.
//   - Batcher-Banyan: the Banyan plus ½·n·(n+1) sorter stages of N/2
//     comparators and N links each; no buffers.
func (m Model) Inventory(a Architecture, n int) (Inventory, error) {
	switch a {
	case Crossbar:
		if n < 1 {
			return Inventory{}, fmt.Errorf("core: crossbar size must be >= 1, got %d", n)
		}
		return Inventory{SwitchNodes: n * n, WireDrivers: 2 * n}, nil
	case FullyConnected:
		if _, err := dimOf(n); err != nil {
			return Inventory{}, err
		}
		return Inventory{SwitchNodes: n, WireDrivers: n}, nil
	case Banyan:
		dim, err := dimOf(n)
		if err != nil {
			return Inventory{}, err
		}
		return Inventory{
			SwitchNodes:       dim * n / 2,
			WireDrivers:       dim * n,
			BufferBanks:       dim * n / 2,
			BufferBitsPerBank: sram.NodeBufferBits,
		}, nil
	case BatcherBanyan:
		dim, err := dimOf(n)
		if err != nil {
			return Inventory{}, err
		}
		if dim < 2 {
			return Inventory{}, fmt.Errorf("core: Batcher-Banyan needs N >= 4, got %d", n)
		}
		stages := dim*(dim+1)/2 + dim
		return Inventory{SwitchNodes: stages * n / 2, WireDrivers: stages * n}, nil
	}
	return Inventory{}, fmt.Errorf("core: unknown architecture %v", a)
}
