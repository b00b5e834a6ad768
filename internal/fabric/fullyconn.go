package fabric

import (
	"fabricpower/internal/core"
	"fabricpower/internal/energy"
	"fabricpower/internal/packet"
	"fabricpower/internal/thompson"
)

// fullyConnected is the MUX-based fabric of §4.2: every output owns an
// N-input MUX; every input bus fans out to all MUXes. Dedicated data paths
// make it free of interconnect contention; traversal is single-slot.
//
// Energy per transported bit follows Eq. 4: one MUX traversal (E_S grows
// with N per Table 1) plus the worst-case ½·N² grids of input-to-MUX bus.
type fullyConnected struct {
	cfg    Config
	inBank *wireBank
	// pending and delivered swap roles every Step (see Fabric.Step);
	// each holds at most one cell per destination, so neither grows.
	pending   []*packet.Cell
	delivered []*packet.Cell
	busy      []bool
	energy    core.Breakdown
	muxFJ     float64 // Table 1 N-input MUX energy for an active input
}

func newFullyConnected(cfg Config) (*fullyConnected, error) {
	muxFJ, err := energy.PaperMuxEnergyFJ(cfg.Ports)
	if err != nil {
		return nil, err
	}
	// The per-bit wire charge is the paper's worst-case ½·N², or the
	// routed-average ¼·N² when Config.FCAverageWires selects the
	// layout-sensitivity ablation.
	wires := thompson.FullyConnectedWires{N: cfg.Ports}
	grids := wires.WorstGrids()
	if cfg.FCAverageWires {
		grids = wires.AvgGrids()
	}
	n := cfg.Ports
	slots := make([]*packet.Cell, 2*n)
	return &fullyConnected{
		cfg:       cfg,
		inBank:    &newWireBanks(1, n, cfg.Model.Tech.ETBitFJ(), func(int) int { return grids })[0],
		pending:   slots[:0:n],
		delivered: slots[n:n],
		busy:      make([]bool, n),
		muxFJ:     muxFJ,
	}, nil
}

func (f *fullyConnected) Arch() core.Architecture { return core.FullyConnected }
func (f *fullyConnected) Ports() int              { return f.cfg.Ports }
func (f *fullyConnected) InFlight() int           { return len(f.pending) }
func (f *fullyConnected) Energy() core.Breakdown  { return f.energy }
func (f *fullyConnected) ResetEnergy()            { f.energy = core.Breakdown{} }

// Offer accepts at most one cell per destination per slot (arbiter
// contract).
func (f *fullyConnected) Offer(c *packet.Cell) bool {
	if c == nil || c.Src < 0 || c.Src >= f.cfg.Ports || c.Dest < 0 || c.Dest >= f.cfg.Ports {
		return false
	}
	if f.busy[c.Dest] {
		return false
	}
	f.busy[c.Dest] = true
	f.pending = append(f.pending, c)
	return true
}

// Step transports every offered cell in this slot. The two slot buffers
// swap roles so neither is reallocated after warmup.
func (f *fullyConnected) Step(slot uint64) []*packet.Cell {
	f.pending, f.delivered = f.delivered[:0], f.pending
	delivered := f.delivered
	for i := range f.busy {
		f.busy[i] = false
	}
	cellBits := float64(f.cfg.Cell.CellBits)
	for _, c := range delivered {
		// One N-input MUX traversal per cell (Eq. 4's E_S term).
		f.energy.Accumulate(core.SwitchComponent, f.muxFJ*cellBits)
		// The input bus to the selected MUX, flip-accurate.
		f.energy.Accumulate(core.WireComponent, f.inBank.cross(c.Src, c))
	}
	return delivered
}
