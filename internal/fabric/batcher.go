package fabric

import (
	"errors"

	"fabricpower/internal/core"
	"fabricpower/internal/energy"
	"fabricpower/internal/packet"
	"fabricpower/internal/thompson"
)

// batcherBanyan is the contention-free fabric of §4.4: a Batcher bitonic
// sorting network of ½·n·(n+1) compare-exchange stages followed by the
// n-stage Banyan. Cells admitted in the same slot form a wave; the sorter
// sorts the wave by destination (idle lines as +∞), which concentrates the
// cells onto the top lines in ascending order, and a concentrated monotone
// sequence routes through the Banyan without internal conflicts — that is
// the classic Batcher-Banyan property, and the model counts (never
// observes) violations.
//
// The price of contention freedom is the extra stages: every bit pays
// ½n(n+1) sorter traversals (E_SS) and their wires on top of the Banyan
// path, per Eq. 6. There are no internal buffers.
type batcherBanyan struct {
	cfg   Config
	dim   int
	wires thompson.BatcherBanyanWires

	// waves in flight, oldest first; wave w admitted at slot t is at
	// global stage (slot − t).
	waves []*wave
	// entering accumulates this slot's admissions until Step.
	entering *wave
	// wavePool recycles completed waves so steady-state slots allocate
	// nothing; the pool is bounded by the pipeline depth.
	wavePool []*wave
	// scratch is the stage-input shuffle buffer reused by banyanStage.
	scratch []*packet.Cell
	// delivered is reused across Step calls (see Fabric.Step); one wave
	// completes per slot, so it never outgrows the port count.
	delivered []*packet.Cell
	// sortBank[g] and banyanBank[s] hold per-line word states, each
	// bank as long as its stage's wire (thompson.BatcherBanyanWires).
	sortBank   []wireBank
	banyanBank []wireBank

	energy    core.Breakdown
	inFlight  int
	conflicts uint64
}

// wave is one admission batch moving through the pipeline in lockstep.
type wave struct {
	cells []*packet.Cell // by line
	stage int            // next global stage to execute
}

func newBatcherBanyan(cfg Config) (*batcherBanyan, error) {
	dim, err := dimOf(cfg.Ports)
	if err != nil {
		return nil, err
	}
	if dim < 2 {
		return nil, errNeedsN4
	}
	w := thompson.BatcherBanyanWires{Dimension: dim}
	n, sorter := cfg.Ports, w.SorterStages()
	lines := make([]*packet.Cell, 2*n)
	banks := newWireBanks(sorter+dim, n, cfg.Model.Tech.ETBitFJ(), func(i int) int {
		if i < sorter {
			return w.SorterStageGrids(i)
		}
		return w.BanyanStageGrids(i - sorter)
	})
	return &batcherBanyan{
		cfg:        cfg,
		dim:        dim,
		wires:      w,
		scratch:    lines[:n:n],
		delivered:  lines[n:n],
		sortBank:   banks[:sorter:sorter],
		banyanBank: banks[sorter:],
	}, nil
}

var errNeedsN4 = errors.New("fabric: Batcher-Banyan needs N >= 4 (paper §4.4)")

func (b *batcherBanyan) Arch() core.Architecture { return core.BatcherBanyan }
func (b *batcherBanyan) Ports() int              { return b.cfg.Ports }
func (b *batcherBanyan) InFlight() int           { return b.inFlight }
func (b *batcherBanyan) Energy() core.Breakdown  { return b.energy }
func (b *batcherBanyan) ResetEnergy()            { b.energy = core.Breakdown{} }

// Conflicts returns the number of Banyan-stage conflicts observed; the
// Batcher-Banyan property guarantees this stays zero under the arbiter
// contract, and the tests assert it.
func (b *batcherBanyan) Conflicts() uint64 { return b.conflicts }

// Offer admits a cell into this slot's wave; at most one cell per source
// line and per destination (arbiter contract).
func (b *batcherBanyan) Offer(c *packet.Cell) bool {
	if c == nil || c.Src < 0 || c.Src >= b.cfg.Ports || c.Dest < 0 || c.Dest >= b.cfg.Ports {
		return false
	}
	if b.entering == nil {
		b.entering = b.newWave()
	}
	if b.entering.cells[c.Src] != nil {
		return false
	}
	for _, other := range b.entering.cells {
		if other != nil && other.Dest == c.Dest {
			return false
		}
	}
	b.entering.cells[c.Src] = c
	b.inFlight++
	return true
}

// newWave returns a zeroed wave, recycling a completed one when the pool
// has any.
func (b *batcherBanyan) newWave() *wave {
	if n := len(b.wavePool); n > 0 {
		w := b.wavePool[n-1]
		b.wavePool = b.wavePool[:n-1]
		for i := range w.cells {
			w.cells[i] = nil
		}
		w.stage = 0
		return w
	}
	return &wave{cells: make([]*packet.Cell, b.cfg.Ports)}
}

// Step advances every wave one stage.
func (b *batcherBanyan) Step(slot uint64) []*packet.Cell {
	if b.entering != nil {
		b.waves = append(b.waves, b.entering)
		b.entering = nil
	}
	b.delivered = b.delivered[:0]
	sorterStages := b.wires.SorterStages()
	keep := b.waves[:0]
	for _, w := range b.waves {
		if w.stage < sorterStages {
			b.sortStage(w)
		} else {
			b.banyanStage(w, w.stage-sorterStages)
		}
		w.stage++
		if w.stage == sorterStages+b.dim {
			for line, c := range w.cells {
				if c != nil {
					if c.Dest != line {
						// Defensive: misrouted cells are counted, never
						// expected (self-routing is deterministic).
						b.conflicts++
					}
					b.delivered = append(b.delivered, c)
					b.inFlight--
				}
			}
			b.wavePool = append(b.wavePool, w)
			continue
		}
		if w.hasCells() {
			keep = append(keep, w)
		} else {
			b.wavePool = append(b.wavePool, w)
		}
	}
	b.waves = keep
	return b.delivered
}

func (w *wave) hasCells() bool {
	for _, c := range w.cells {
		if c != nil {
			return true
		}
	}
	return false
}

// sortKey orders cells by destination with idle lines as +∞.
func (b *batcherBanyan) sortKey(c *packet.Cell) int {
	if c == nil {
		return b.cfg.Ports // +∞: beyond any valid destination
	}
	return c.Dest
}

// sortStage executes one global bitonic compare-exchange stage on the
// wave, charging sorter-switch and link energy.
func (b *batcherBanyan) sortStage(w *wave) {
	g := w.stage
	// Locate phase j and within-phase index k: phases have 1,2,…,n stages.
	j, rem := 0, g
	for rem > j {
		rem -= j + 1
		j++
	}
	k := rem
	d := 1 << uint(j-k) // compare distance
	cellBits := float64(b.cfg.Cell.CellBits)
	n := b.cfg.Ports
	for i := 0; i < n; i++ {
		if i&d != 0 {
			continue // i is the upper element of its pair
		}
		lo, hi := i, i+d
		ascending := (i>>uint(j+1))&1 == 0
		a, c := w.cells[lo], w.cells[hi]
		if a == nil && c == nil {
			continue
		}
		// Compare-exchange on the destination key.
		swap := b.sortKey(a) > b.sortKey(c)
		if !ascending {
			swap = !swap
		}
		if swap {
			w.cells[lo], w.cells[hi] = c, a
		}
		// Sorter switch energy for this node's occupancy vector.
		var vec energy.Vector
		if a != nil {
			vec |= 0b01
		}
		if c != nil {
			vec |= 0b10
		}
		b.energy.Accumulate(core.SwitchComponent,
			energy.PaperBatcherFJ(vec)*cellBits)
		// Link energy: each occupied output line crosses the stage wire.
		if cc := w.cells[lo]; cc != nil {
			b.energy.Accumulate(core.WireComponent,
				b.sortBank[g].cross(lo, cc))
		}
		if cc := w.cells[hi]; cc != nil {
			b.energy.Accumulate(core.WireComponent,
				b.sortBank[g].cross(hi, cc))
		}
	}
}

// shuffle is the perfect shuffle over dim bits.
func (b *batcherBanyan) shuffle(l int) int {
	return ((l << 1) | (l >> uint(b.dim-1))) & (b.cfg.Ports - 1)
}

// banyanStage routes the wave through Banyan stage s (omega topology,
// MSB-first). The sorted, concentrated wave is conflict-free; a conflict
// would drop the loser and is counted.
func (b *batcherBanyan) banyanStage(w *wave, s int) {
	n := b.cfg.Ports
	cellBits := float64(b.cfg.Cell.CellBits)
	// Shuffle into the scratch stage-input buffer, then route back into
	// the wave's own cells slice — no per-stage allocation.
	in := b.scratch
	for i := range in {
		in[i] = nil
	}
	for l, c := range w.cells {
		if c != nil {
			in[b.shuffle(l)] = c
		}
	}
	out := w.cells
	for i := range out {
		out[i] = nil
	}
	for k := 0; k < n/2; k++ {
		var vec energy.Vector
		for d := 0; d < 2; d++ {
			line := 2*k + d
			c := in[line]
			if c == nil {
				continue
			}
			o := (c.Dest >> uint(b.dim-1-s)) & 1
			outLine := 2*k + o
			if out[outLine] != nil {
				// Batcher-Banyan property violated: count and drop.
				b.conflicts++
				b.inFlight--
				continue
			}
			out[outLine] = c
			vec |= 1 << uint(d)
			b.energy.Accumulate(core.WireComponent,
				b.banyanBank[s].cross(outLine, c))
		}
		if vec != 0 {
			b.energy.Accumulate(core.SwitchComponent,
				energy.PaperBanyanFJ(vec)*cellBits)
		}
	}
}
