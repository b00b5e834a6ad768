// Package fabric implements slot-synchronous, bit-accurate simulation
// models of the four switch-fabric architectures the paper analyzes (§4):
// Crossbar, Fully Connected, Banyan and Batcher-Banyan.
//
// The models replace the paper's Simulink/S-function platform (§5.2): a
// slot is the transmission time of one fixed-size cell; multistage fabrics
// are stage-pipelined, one stage per slot. Energy is traced per the
// bit-energy framework of internal/core:
//
//   - Node switches charge their input-vector LUT entry per transported
//     bit-time (E_S).
//   - Interconnect wires hold per-link word state; a crossing cell is
//     streamed word by word and only flipped bits are charged, at
//     m·E_T_bit for an m-grid link (E_W).
//   - Banyan node buffers charge the shared-SRAM access energy per bit on
//     every buffering event caused by interconnect contention (E_B).
//
// Destination contention is resolved by the arbiter before cells reach the
// fabric (paper §3.2), which the single-stage fabrics enforce by rejecting
// a second same-destination cell in one slot.
package fabric

import (
	"fmt"

	"fabricpower/internal/core"
	"fabricpower/internal/packet"
	"fabricpower/internal/sram"
)

// Config assembles everything a fabric model needs.
type Config struct {
	// Ports is N for an N×N fabric (power of two for the multistage
	// architectures).
	Ports int
	// Cell fixes the cell geometry.
	Cell packet.Config
	// Model supplies the technology point and the buffer accounting.
	Model core.Model
	// BufferCells caps each Banyan node buffer, in cells. 0 derives it
	// from sram.NodeBufferBits / Cell.CellBits (the paper's 4 Kbit node
	// buffer holds 4 cells of 1 Kbit).
	BufferCells int
	// FCAverageWires switches the fully-connected fabric from the
	// paper's worst-case ½·N² wire charge (Eq. 4) to the routed-average
	// ¼·N² — the layout-sensitivity ablation.
	FCAverageWires bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Ports < 2 {
		return fmt.Errorf("fabric: ports must be >= 2, got %d", c.Ports)
	}
	if err := c.Cell.Validate(); err != nil {
		return err
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.BufferCells < 0 {
		return fmt.Errorf("fabric: buffer cells must be >= 0, got %d", c.BufferCells)
	}
	return nil
}

// bufferCells resolves the per-node buffer capacity in cells.
func (c Config) bufferCells() int {
	if c.BufferCells > 0 {
		return c.BufferCells
	}
	n := sram.NodeBufferBits / c.Cell.CellBits
	if n < 1 {
		n = 1
	}
	return n
}

// Fabric is a switch fabric under slot-synchronous simulation.
type Fabric interface {
	// Arch identifies the architecture.
	Arch() core.Architecture
	// Ports returns N.
	Ports() int
	// Offer presents a cell at its ingress port for this slot. It
	// returns false when the fabric cannot accept the cell now
	// (backpressure or arbiter-contract violation); the caller keeps it
	// queued.
	Offer(c *packet.Cell) bool
	// Step advances one slot and returns the cells delivered at their
	// egress ports during this slot. The returned slice is owned by the
	// fabric and reused by the next Step call (the slot hot path is
	// allocation-free); callers must copy it to retain it. No fabric's
	// behaviour depends on the slot number.
	Step(slot uint64) []*packet.Cell
	// InFlight returns the number of cells inside the fabric.
	InFlight() int
	// Energy returns the accumulated energy breakdown.
	Energy() core.Breakdown
	// ResetEnergy zeroes the breakdown (state is preserved), so warmup
	// can be excluded from measurements.
	ResetEnergy()
}

// New builds the fabric model for an architecture.
func New(arch core.Architecture, cfg Config) (Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch arch {
	case core.Crossbar:
		return newCrossbar(cfg)
	case core.FullyConnected:
		return newFullyConnected(cfg)
	case core.Banyan:
		return newBanyan(cfg)
	case core.BatcherBanyan:
		return newBatcherBanyan(cfg)
	}
	return nil, fmt.Errorf("fabric: unknown architecture %v", arch)
}

// dimOf returns log2(n) for power-of-two n.
func dimOf(n int) (int, error) {
	if n < 2 || n&(n-1) != 0 {
		return 0, fmt.Errorf("fabric: ports must be a power of two >= 2, got %d", n)
	}
	d := 0
	for v := n; v > 1; v >>= 1 {
		d++
	}
	return d, nil
}

// wireBank tracks the held word of a set of equally long bus links and
// charges flip energy as cells stream across them.
type wireBank struct {
	state []uint32
	// grids is the length of every link in the bank, in Thompson grids.
	grids float64
	// etFJ is E_T_bit in fJ.
	etFJ float64
}

// newWireBanks builds banks wire banks of lines links each, bank i
// grids(i) grids long, from one []wireBank and one state slab.
func newWireBanks(banks, lines int, etFJ float64, grids func(i int) int) []wireBank {
	bs := make([]wireBank, banks)
	state := make([]uint32, banks*lines)
	for i := range bs {
		bs[i] = wireBank{state: state[i*lines : (i+1)*lines : (i+1)*lines], grids: float64(grids(i)), etFJ: etFJ}
	}
	return bs
}

// cross streams the cell over link line and returns the wire energy in
// fJ.
func (w *wireBank) cross(line int, c *packet.Cell) float64 {
	flips, last := c.Crossing(w.state[line])
	w.state[line] = last
	return float64(flips) * w.grids * w.etFJ
}
