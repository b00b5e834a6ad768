package fabric

import (
	"fabricpower/internal/core"
	"fabricpower/internal/energy"
	"fabricpower/internal/packet"
	"fabricpower/internal/thompson"
)

// crossbar is the N×N crosspoint matrix of §4.1: space-division
// multiplexed, one dedicated crosspoint per input/output pair, free of
// interconnect contention, single-slot traversal.
//
// Energy per transported bit follows Eq. 3: the bit drives the full row
// wire and the full column wire (4N grids each) and toggles the input
// gates of the N crosspoints sharing its row (N·E_S).
type crossbar struct {
	cfg     Config
	rowBank *wireBank
	colBank *wireBank
	// pending and delivered swap roles every Step (see Fabric.Step);
	// each holds at most one cell per destination, so neither grows.
	pending   []*packet.Cell
	delivered []*packet.Cell
	destBusy  []bool
	energy    core.Breakdown
}

func newCrossbar(cfg Config) (*crossbar, error) {
	wires := thompson.CrossbarWires{N: cfg.Ports}
	n := cfg.Ports
	banks := newWireBanks(2, n, cfg.Model.Tech.ETBitFJ(), func(i int) int {
		if i == 0 {
			return wires.RowGrids()
		}
		return wires.ColGrids()
	})
	slots := make([]*packet.Cell, 2*n)
	return &crossbar{
		cfg:       cfg,
		rowBank:   &banks[0],
		colBank:   &banks[1],
		pending:   slots[:0:n],
		delivered: slots[n:n],
		destBusy:  make([]bool, n),
	}, nil
}

func (x *crossbar) Arch() core.Architecture { return core.Crossbar }
func (x *crossbar) Ports() int              { return x.cfg.Ports }
func (x *crossbar) InFlight() int           { return len(x.pending) }
func (x *crossbar) Energy() core.Breakdown  { return x.energy }
func (x *crossbar) ResetEnergy()            { x.energy = core.Breakdown{} }

// Offer accepts at most one cell per destination per slot — the arbiter
// contract for a contention-free fabric.
func (x *crossbar) Offer(c *packet.Cell) bool {
	if c == nil || c.Src < 0 || c.Src >= x.cfg.Ports || c.Dest < 0 || c.Dest >= x.cfg.Ports {
		return false
	}
	if x.destBusy[c.Dest] {
		return false
	}
	x.destBusy[c.Dest] = true
	x.pending = append(x.pending, c)
	return true
}

// Step transports every offered cell in this slot. The two slot buffers
// swap roles so neither is reallocated after warmup.
func (x *crossbar) Step(slot uint64) []*packet.Cell {
	x.pending, x.delivered = x.delivered[:0], x.pending
	delivered := x.delivered
	for i := range x.destBusy {
		x.destBusy[i] = false
	}
	cellBits := float64(x.cfg.Cell.CellBits)
	for _, c := range delivered {
		// N crosspoints on the row see the bit stream (Eq. 3's N·E_S).
		x.energy.Accumulate(core.SwitchComponent, float64(x.cfg.Ports)*energy.PaperCrosspointFJ(0b1)*cellBits)
		// Full row and column wires, flip-accurate.
		x.energy.Accumulate(core.WireComponent, x.rowBank.cross(c.Src, c))
		x.energy.Accumulate(core.WireComponent, x.colBank.cross(c.Dest, c))
	}
	return delivered
}
