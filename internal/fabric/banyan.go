package fabric

import (
	"math/bits"

	"fabricpower/internal/core"
	"fabricpower/internal/energy"
	"fabricpower/internal/packet"
	"fabricpower/internal/thompson"
)

// banyan is the self-routing multistage fabric of §4.3, modeled as an
// omega network (an isomorphic variation of the butterfly, exactly as the
// paper describes Banyan): n = log₂N stages of N/2 binary switches with a
// perfect shuffle before each stage. Stage s examines destination bit
// n−1−s (MSB first).
//
// The same interconnect link can be claimed by packets with different
// destinations — interconnect contention / internal blocking (§3.2). The
// losing cell is written into the node's shared-SRAM buffer (4 Kbit each,
// a few cells), charging E_B per bit; buffered cells drain with priority.
// When a node buffer fills, upstream cells hold their input latches and
// the backpressure eventually blocks the ingress (no cell loss inside the
// fabric).
//
// A slot costs what its cells cost: per-stage occupancy bitmasks let Step
// visit only the nodes that hold a cell, since an empty node charges no
// energy and changes no state. The hot path is allocation-free: node
// buffers are fixed-capacity rings and the delivered slice is reused
// across slots.
type banyan struct {
	cfg Config
	dim int

	// latch[s][l] is the cell sitting on input line l of stage s.
	latch [][]*packet.Cell
	// buf[s][k] is node k's buffer FIFO at stage s; entries remember
	// their output channel.
	buf [][]bufRing
	// occ[s] holds one bit per node of stage s, 64 nodes to a word: bit k
	// is set exactly when latch 2k or 2k+1 of stage s holds a cell or
	// buf[s][k] is non-empty.
	occ [][]uint64
	// bank[s] holds the word state of the N output lines of stage s,
	// each 4·2ˢ grids long (thompson.BanyanWires).
	bank []*wireBank
	// delivered is reused across Step calls (see Fabric.Step).
	delivered []*packet.Cell

	bufferCap     int
	energy        core.Breakdown
	bufferEvents  uint64
	bufferedCells int
	inFlight      int
	ebFJ          float64 // buffer energy per bit
}

type bufEntry struct {
	cell    *packet.Cell
	channel int
}

// bufRing is a fixed-capacity FIFO of buffered cells. Ring storage keeps
// buffering events off the allocator: a grow-and-reslice queue would
// reallocate on nearly every push once its head had been sliced away.
type bufRing struct {
	entries []bufEntry
	head, n int
}

func (r *bufRing) len() int        { return r.n }
func (r *bufRing) front() bufEntry { return r.entries[r.head] }

func (r *bufRing) pop() {
	r.entries[r.head] = bufEntry{}
	r.head = (r.head + 1) % len(r.entries)
	r.n--
}

func (r *bufRing) push(e bufEntry) {
	r.entries[(r.head+r.n)%len(r.entries)] = e
	r.n++
}

func newBanyan(cfg Config) (*banyan, error) {
	dim, err := dimOf(cfg.Ports)
	if err != nil {
		return nil, err
	}
	eb, err := cfg.Model.BanyanBufferBitEnergyFJ(dim)
	if err != nil {
		return nil, err
	}
	b := &banyan{
		cfg:       cfg,
		dim:       dim,
		latch:     make([][]*packet.Cell, dim),
		buf:       make([][]bufRing, dim),
		occ:       make([][]uint64, dim),
		bank:      make([]*wireBank, dim),
		bufferCap: cfg.bufferCells(),
		ebFJ:      eb,
	}
	wires := thompson.BanyanWires{Dimension: dim}
	for s := 0; s < dim; s++ {
		b.latch[s] = make([]*packet.Cell, cfg.Ports)
		b.buf[s] = make([]bufRing, cfg.Ports/2)
		b.occ[s] = make([]uint64, (cfg.Ports/2+63)/64)
		for k := range b.buf[s] {
			b.buf[s][k].entries = make([]bufEntry, b.bufferCap)
		}
		b.bank[s] = newWireBank(cfg.Ports, wires.StageGrids(s), cfg.Model.Tech.ETBitFJ())
	}
	return b, nil
}

func (b *banyan) Arch() core.Architecture { return core.Banyan }
func (b *banyan) Ports() int              { return b.cfg.Ports }
func (b *banyan) InFlight() int           { return b.inFlight }
func (b *banyan) Energy() core.Breakdown  { return b.energy }
func (b *banyan) ResetEnergy()            { b.energy = core.Breakdown{} }

// BufferEvents returns the number of buffering events caused by
// interconnect contention so far.
func (b *banyan) BufferEvents() uint64 { return b.bufferEvents }

// BufferedCells returns the number of cells currently parked in node
// buffers — the occupancy signal the power-management policies key
// drowsy-SRAM decisions on. Maintained incrementally so observing it
// every slot stays off the hot path.
func (b *banyan) BufferedCells() int { return b.bufferedCells }

// shuffle is the perfect shuffle (rotate-left over dim bits).
func (b *banyan) shuffle(l int) int {
	n := b.cfg.Ports
	return ((l << 1) | (l >> uint(b.dim-1))) & (n - 1)
}

// routeBit returns the output channel cell c takes at stage s.
func (b *banyan) routeBit(c *packet.Cell, s int) int {
	return (c.Dest >> uint(b.dim-1-s)) & 1
}

// Offer places a cell on its stage-0 input latch (after the entry
// shuffle); false means the ingress is blocked by backpressure.
func (b *banyan) Offer(c *packet.Cell) bool {
	if c == nil || c.Src < 0 || c.Src >= b.cfg.Ports || c.Dest < 0 || c.Dest >= b.cfg.Ports {
		return false
	}
	line := b.shuffle(c.Src)
	if b.latch[0][line] != nil {
		return false
	}
	b.latch[0][line] = c
	b.markOccupied(0, line)
	b.inFlight++
	return true
}

// Step advances the pipeline one slot, last stage first so freed latches
// accept upstream cells within the slot. The order alone keeps a cell to
// one stage per slot: a cell moves into stage s+1 only after stage s+1
// has run, and it leaves its stage-s latch at once. Only occupied nodes
// are visited, in ascending node order within each stage.
func (b *banyan) Step(uint64) []*packet.Cell {
	b.delivered = b.delivered[:0]
	cellBits := float64(b.cfg.Cell.CellBits)

	for s := b.dim - 1; s >= 0; s-- {
		occ := b.occ[s]
		for w, m := range occ {
			for ; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				if !b.stepNode(s, w<<6|i, cellBits) {
					occ[w] &^= 1 << uint(i)
				}
			}
		}
	}
	return b.delivered
}

// stepNode runs node k of stage s for one slot and reports whether the
// node still holds a latched or buffered cell.
func (b *banyan) stepNode(s, k int, cellBits float64) bool {
	in0, in1 := 2*k, 2*k+1
	var vec energy.Vector
	for o := 0; o < 2; o++ {
		outLine := 2*k + o
		// Destination of this channel: egress port for the last stage,
		// next-stage latch otherwise.
		targetFree := true
		targetIdx := 0
		if s < b.dim-1 {
			targetIdx = b.shuffle(outLine)
			targetFree = b.latch[s+1][targetIdx] == nil
		}
		// Candidate: buffered cells first (FCFS), then latches in port
		// order.
		cell, fromBuffer := b.pickCandidate(s, k, o)
		if cell == nil || !targetFree {
			continue
		}
		// Commit the move.
		if fromBuffer {
			b.buf[s][k].pop()
			b.bufferedCells--
		} else if b.latch[s][in0] == cell {
			b.latch[s][in0] = nil
		} else {
			b.latch[s][in1] = nil
		}
		// Wire energy on the stage-s output link.
		b.energy.Accumulate(core.WireComponent, b.bank[s].cross(outLine, cell))
		if s == b.dim-1 {
			b.delivered = append(b.delivered, cell)
			b.inFlight--
		} else {
			b.latch[s+1][targetIdx] = cell
			b.markOccupied(s+1, targetIdx)
		}
		vec |= 1 << uint(o)
	}
	// Node switch energy: LUT entry for the set of concurrently
	// transported cells this slot.
	if vec != 0 {
		b.energy.Accumulate(core.SwitchComponent,
			b.cfg.Model.Banyan2x2.EnergyFJ(vec)*cellBits)
	}
	// Cells still latched at this node now try to park in the node
	// buffer (interconnect contention or downstream blocking), freeing
	// the input line for the upstream stage.
	b.parkLosers(s, k, cellBits)
	return b.latch[s][in0] != nil || b.latch[s][in1] != nil || b.buf[s][k].len() > 0
}

// markOccupied sets the occupancy bit of the node that input line l of
// stage s feeds.
func (b *banyan) markOccupied(s, l int) {
	b.occ[s][l>>7] |= 1 << uint((l>>1)&63)
}

// pickCandidate returns the next cell for channel o of node k at stage s:
// the oldest buffered cell for that channel, else the lowest-port latched
// cell routing to o.
func (b *banyan) pickCandidate(s, k, o int) (*packet.Cell, bool) {
	if q := &b.buf[s][k]; q.len() > 0 && q.front().channel == o {
		return q.front().cell, true
	}
	for d := 0; d < 2; d++ {
		c := b.latch[s][2*k+d]
		if c != nil && b.routeBit(c, s) == o {
			return c, false
		}
	}
	return nil, false
}

// parkLosers moves the cells still latched at node k into its buffer
// while capacity remains, charging E_B per bit (one buffering event);
// cells that do not fit stay latched and block upstream.
func (b *banyan) parkLosers(s, k int, cellBits float64) {
	for d := 0; d < 2; d++ {
		line := 2*k + d
		c := b.latch[s][line]
		if c == nil {
			continue
		}
		if b.buf[s][k].len() >= b.bufferCap {
			continue
		}
		b.buf[s][k].push(bufEntry{cell: c, channel: b.routeBit(c, s)})
		b.latch[s][line] = nil
		b.bufferEvents++
		b.bufferedCells++
		b.energy.Accumulate(core.BufferComponent, b.ebFJ*cellBits)
	}
}
