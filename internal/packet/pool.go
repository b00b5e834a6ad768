package packet

// Pool recycles cells of one payload length, so a simulation under
// live traffic stops allocating once its population of cells is warm.
// Fresh cells are carved in chunks: the structs from one array, their
// payload words from one slab. A Pool is not safe for concurrent use;
// the network kernel keeps one per shard.
//
// A cell belongs to whoever took it from Get until it is handed back
// with Put. After Put its fields and payload may be overwritten at any
// time, so nothing may read a released cell.
type Pool struct {
	words int
	max   int
	reuse Reuse
	free  []*Cell
	cells []Cell   // uncarved rest of the current chunk
	slab  []uint32 // its payload words
}

// Reuse selects what a Pool does with the cells handed back to it.
type Reuse int

const (
	// Recycle keeps released cells for later Gets (the default).
	Recycle Reuse = iota
	// Drop discards them: every Get carves a fresh cell, as if nothing
	// were ever released.
	Drop
	// Poison discards them after overwriting every field and payload
	// word with garbage, so a read of a released cell changes the
	// result (or panics on an out-of-range port) instead of passing
	// unnoticed. It is a use-after-release detector for tests.
	Poison
)

// poolChunk is how many cells one chunk allocation carves.
const poolChunk = 64

// NewPool returns a pool of cells with words-word payloads whose free
// list holds at most limit cells (0 means no cap); cells released
// beyond the cap are left to the garbage collector.
func NewPool(words, limit int) *Pool {
	return &Pool{words: words, max: limit}
}

// SetReuse selects the pool's treatment of released cells; call it
// before the first Put.
func (p *Pool) SetReuse(r Reuse) { p.reuse = r }

// Get returns a cell with every field zero except Payload, which has
// the pool's length and undefined contents: the caller fills it (see
// FillRandom).
func (p *Pool) Get() *Cell {
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		*c = Cell{Payload: c.Payload, pooled: true}
		return c
	}
	if len(p.cells) == 0 {
		p.cells = make([]Cell, poolChunk)
		p.slab = make([]uint32, poolChunk*p.words)
	}
	c := &p.cells[0]
	p.cells = p.cells[1:]
	c.Payload = p.slab[:p.words:p.words]
	p.slab = p.slab[p.words:]
	c.pooled = true
	return c
}

// Put hands a cell back for reuse. Cells the pool cannot reuse — built
// as literals, or with another payload length — are ignored, as are
// cells past the free-list cap. Releasing a cell twice panics: the
// second release means a recycled cell was still referenced.
func (p *Pool) Put(c *Cell) {
	if !c.pooled || len(c.Payload) != p.words {
		return
	}
	if c.free {
		panic("packet: cell released twice")
	}
	c.free = true
	switch {
	case p.reuse == Poison:
		payload := c.Payload
		for i := range payload {
			payload[i] = 0xdeadbeef ^ uint32(i)
		}
		*c = Cell{ID: ^uint64(0), Src: -1, Dest: -1, PacketID: ^uint64(0), Seq: -1, Payload: payload,
			CreatedSlot: ^uint64(0), FlowID: -1, Hop: -1, interior: -1, pooled: true, free: true}
	case p.reuse == Recycle && (p.max == 0 || len(p.free) < p.max):
		p.free = append(p.free, c)
	}
}

// Free returns the number of cells on the free list.
func (p *Pool) Free() int { return len(p.free) }

// Take moves up to n free cells from another pool of the same payload
// length onto this one's free list, within this pool's cap. The
// network kernel rebalances its shard pools with it between slots,
// where cells released on one shard are needed on another.
func (p *Pool) Take(from *Pool, n int) {
	if p.max > 0 && n > p.max-len(p.free) {
		n = p.max - len(p.free)
	}
	if n > len(from.free) {
		n = len(from.free)
	}
	if n <= 0 {
		return
	}
	k := len(from.free) - n
	p.free = append(p.free, from.free[k:]...)
	clear(from.free[k:])
	from.free = from.free[:k]
}
