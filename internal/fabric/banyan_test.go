package fabric

import (
	"fmt"
	"math/rand"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/energy"
	"fabricpower/internal/packet"
)

// fullWalk is the Banyan step the occupancy bitmasks replaced, kept as
// the differential reference: every slot it visits every node of every
// stage, and it stops a cell from crossing two stages in one slot with a
// moved-slot stamp. It drives a banyan's latches, buffers, wire banks and
// counters directly and never touches occ.
type fullWalk struct {
	b *banyan
	// moved maps a cell to 1 + the last slot it advanced a stage in.
	moved map[*packet.Cell]uint64
}

func newFullWalk(t testing.TB, cfg Config) *fullWalk {
	t.Helper()
	b, err := newBanyan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fullWalk{b: b, moved: make(map[*packet.Cell]uint64)}
}

func (f *fullWalk) offer(c *packet.Cell) bool {
	b := f.b
	if c.Src < 0 || c.Src >= b.cfg.Ports || c.Dest < 0 || c.Dest >= b.cfg.Ports {
		return false
	}
	line := b.shuffle(c.Src)
	if b.latch[0][line] != nil {
		return false
	}
	b.latch[0][line] = c
	b.inFlight++
	return true
}

func (f *fullWalk) movedIn(c *packet.Cell, slot uint64) bool { return f.moved[c] == slot+1 }

func (f *fullWalk) step(slot uint64) []*packet.Cell {
	b := f.b
	b.delivered = b.delivered[:0]
	cellBits := float64(b.cfg.Cell.CellBits)
	for s := b.dim - 1; s >= 0; s-- {
		for k := 0; k < b.cfg.Ports/2; k++ {
			in0, in1 := 2*k, 2*k+1
			var vec energy.Vector
			for o := 0; o < 2; o++ {
				outLine := 2*k + o
				targetFree := true
				targetIdx := 0
				if s < b.dim-1 {
					targetIdx = b.shuffle(outLine)
					targetFree = b.latch[s+1][targetIdx] == nil
				}
				cell, fromBuffer := f.pickCandidate(slot, s, k, o)
				if cell == nil || !targetFree {
					continue
				}
				if fromBuffer {
					b.buf[s][k].pop()
					b.bufferedCells--
				} else if b.latch[s][in0] == cell {
					b.latch[s][in0] = nil
				} else {
					b.latch[s][in1] = nil
				}
				f.moved[cell] = slot + 1
				b.energy.Accumulate(core.WireComponent, b.bank[s].cross(outLine, cell))
				if s == b.dim-1 {
					b.delivered = append(b.delivered, cell)
					b.inFlight--
				} else {
					b.latch[s+1][targetIdx] = cell
				}
				vec |= 1 << uint(o)
			}
			if vec != 0 {
				b.energy.Accumulate(core.SwitchComponent, b.cfg.Model.Banyan2x2.EnergyFJ(vec)*cellBits)
			}
			for d := 0; d < 2; d++ {
				line := 2*k + d
				c := b.latch[s][line]
				if c == nil || f.movedIn(c, slot) || b.buf[s][k].len() >= b.bufferCap {
					continue
				}
				b.buf[s][k].push(bufEntry{cell: c, channel: b.routeBit(c, s)})
				b.latch[s][line] = nil
				b.bufferEvents++
				b.bufferedCells++
				b.energy.Accumulate(core.BufferComponent, b.ebFJ*cellBits)
			}
		}
	}
	return b.delivered
}

func (f *fullWalk) pickCandidate(slot uint64, s, k, o int) (*packet.Cell, bool) {
	b := f.b
	if q := &b.buf[s][k]; q.len() > 0 && q.front().channel == o {
		return q.front().cell, true
	}
	for d := 0; d < 2; d++ {
		c := b.latch[s][2*k+d]
		if c != nil && !f.movedIn(c, slot) && b.routeBit(c, s) == o {
			return c, false
		}
	}
	return nil, false
}

// checkOccupancy reports the first node whose occupancy bit disagrees
// with its latches and buffer.
func checkOccupancy(b *banyan) error {
	for s := 0; s < b.dim; s++ {
		for k := 0; k < b.cfg.Ports/2; k++ {
			held := b.latch[s][2*k] != nil || b.latch[s][2*k+1] != nil || b.buf[s][k].len() > 0
			bit := b.occ[s][k>>6]>>uint(k&63)&1 == 1
			if held != bit {
				return fmt.Errorf("stage %d node %d: occupancy bit %v, node holds a cell: %v", s, k, bit, held)
			}
		}
		if extra := len(b.occ[s])*64 - b.cfg.Ports/2; extra > 0 && b.occ[s][len(b.occ[s])-1]>>uint(64-extra) != 0 {
			return fmt.Errorf("stage %d: occupancy bits set past the last node", s)
		}
	}
	return nil
}

// banyanTraffic offers a cell per port with probability load each slot,
// to a uniform destination or, with hotspot, to port 0 half the time. A
// refused cell stays at the head of its port and is offered again next
// slot, so sustained load builds backpressure.
type banyanTraffic struct {
	rng     *rand.Rand
	ports   int
	load    float64
	hotspot bool
	head    []*packet.Cell
	id      uint64
	refused int
}

func newBanyanTraffic(seed int64, ports int, load float64, hotspot bool) *banyanTraffic {
	return &banyanTraffic{rng: rand.New(rand.NewSource(seed)), ports: ports, load: load,
		hotspot: hotspot, head: make([]*packet.Cell, ports)}
}

// offer presents each port's head cell through try, which reports
// whether the fabric took it.
func (g *banyanTraffic) offer(try func(*packet.Cell) bool) {
	for p := range g.head {
		if g.head[p] == nil && g.rng.Float64() < g.load {
			d := g.rng.Intn(g.ports)
			if g.hotspot && g.rng.Intn(2) == 0 {
				d = 0
			}
			g.id++
			g.head[p] = mkCell(g.rng, g.id, p, d, 4)
		}
		if c := g.head[p]; c != nil {
			if try(c) {
				g.head[p] = nil
			} else {
				g.refused++
			}
		}
	}
}

// runBanyanDifferential drives a banyan and the full-walk reference
// with clones of the same cells and fails on the first slot where the
// delivered IDs, energy, counters, wire states or the occupancy
// invariant differ.
func runBanyanDifferential(t testing.TB, seed int64, ports, bufCap int, load float64, hotspot bool, slots int) {
	t.Helper()
	cfg := testConfig(ports)
	cfg.BufferCells = bufCap
	got, err := newBanyan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newFullWalk(t, cfg)
	gen := newBanyanTraffic(seed, ports, load, hotspot)
	where := func(slot uint64) string {
		return fmt.Sprintf("seed %d ports %d cap %d load %.2f hotspot %v slot %d", seed, ports, bufCap, load, hotspot, slot)
	}
	for slot := uint64(0); slot < uint64(slots); slot++ {
		gen.offer(func(c *packet.Cell) bool {
			twin := *c
			ok := got.Offer(c)
			if refOK := ref.offer(&twin); ok != refOK {
				t.Fatalf("%s: Offer(cell %d) = %v, reference %v", where(slot), c.ID, ok, refOK)
			}
			return ok
		})
		if err := checkOccupancy(got); err != nil {
			t.Fatalf("%s: after Offer: %v", where(slot), err)
		}
		d, rd := got.Step(slot), ref.step(slot)
		if len(d) != len(rd) {
			t.Fatalf("%s: delivered %d cells, reference %d", where(slot), len(d), len(rd))
		}
		for i := range d {
			if d[i].ID != rd[i].ID {
				t.Fatalf("%s: delivery %d is cell %d, reference cell %d", where(slot), i, d[i].ID, rd[i].ID)
			}
		}
		if got.Energy() != ref.b.Energy() {
			t.Fatalf("%s: energy %+v, reference %+v", where(slot), got.Energy(), ref.b.Energy())
		}
		if got.BufferEvents() != ref.b.BufferEvents() || got.BufferedCells() != ref.b.BufferedCells() || got.InFlight() != ref.b.InFlight() {
			t.Fatalf("%s: events/buffered/in flight %d/%d/%d, reference %d/%d/%d", where(slot),
				got.BufferEvents(), got.BufferedCells(), got.InFlight(),
				ref.b.BufferEvents(), ref.b.BufferedCells(), ref.b.InFlight())
		}
		for s := range got.bank {
			for l, w := range got.bank[s].state {
				if rw := ref.b.bank[s].state[l]; w != rw {
					t.Fatalf("%s: stage %d line %d holds %#x, reference %#x", where(slot), s, l, w, rw)
				}
			}
		}
		if err := checkOccupancy(got); err != nil {
			t.Fatalf("%s: after Step: %v", where(slot), err)
		}
	}
}

// TestBanyanOccupiedMatchesFullWalk checks the occupied-node walk
// against the full walk, bit for bit, over port counts whose masks span
// one or two words, every small buffer cap, light to saturating loads
// and hotspot traffic.
func TestBanyanOccupiedMatchesFullWalk(t *testing.T) {
	seed := int64(1)
	for _, ports := range []int{2, 4, 8, 16, 32, 64, 128, 256} {
		for _, bufCap := range []int{1, 2, 4} {
			for _, load := range []float64{0.05, 0.3, 0.6, 1.0} {
				for _, hotspot := range []bool{false, true} {
					slots := 300
					if ports >= 128 {
						slots = 120
					}
					runBanyanDifferential(t, seed, ports, bufCap, load, hotspot, slots)
					seed++
				}
			}
		}
	}
}

// FuzzBanyanMatchesFullWalk searches (seed, ports, buffer cap, load,
// destinations) for a slot where the occupied-node walk and the full
// walk part ways.
func FuzzBanyanMatchesFullWalk(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), uint8(50), false)
	f.Add(int64(2), uint8(7), uint8(3), uint8(99), true)
	f.Fuzz(func(t *testing.T, seed int64, portsExp, bufCap, loadPct uint8, hotspot bool) {
		ports := 2 << (portsExp % 8)
		runBanyanDifferential(t, seed, ports, int(bufCap%4)+1, float64(loadPct%100+1)/100, hotspot, 100)
	})
}

// cellStages returns the stage of every cell inside b, by ID.
func cellStages(b *banyan) map[uint64]int {
	at := make(map[uint64]int)
	for s := 0; s < b.dim; s++ {
		for _, c := range b.latch[s] {
			if c != nil {
				at[c.ID] = s
			}
		}
		for k := range b.buf[s] {
			q := &b.buf[s][k]
			for i := 0; i < q.n; i++ {
				at[q.entries[(q.head+i)%len(q.entries)].cell.ID] = s
			}
		}
	}
	return at
}

// TestBanyanOneStagePerSlot is the executable form of the pipeline rule
// the last-stage-first order enforces: in one slot no cell advances more
// than one stage, and only last-stage cells leave the fabric.
func TestBanyanOneStagePerSlot(t *testing.T) {
	const ports = 16
	for _, bufCap := range []int{1, 4} {
		for _, load := range []float64{0.1, 0.4, 0.7, 1.0} {
			for _, hotspot := range []bool{false, true} {
				cfg := testConfig(ports)
				cfg.BufferCells = bufCap
				b, err := newBanyan(cfg)
				if err != nil {
					t.Fatal(err)
				}
				gen := newBanyanTraffic(int64(bufCap)*100+int64(load*10), ports, load, hotspot)
				for slot := uint64(0); slot < 400; slot++ {
					gen.offer(b.Offer)
					before := cellStages(b)
					delivered := b.Step(slot)
					for _, c := range delivered {
						if s, ok := before[c.ID]; !ok || s != b.dim-1 {
							t.Fatalf("cap %d load %.1f hotspot %v slot %d: cell %d delivered from stage %d (present %v), want stage %d",
								bufCap, load, hotspot, slot, c.ID, s, ok, b.dim-1)
						}
						delete(before, c.ID)
					}
					after := cellStages(b)
					for id, s := range before {
						if a, ok := after[id]; !ok || a < s || a > s+1 {
							t.Fatalf("cap %d load %.1f hotspot %v slot %d: cell %d went from stage %d to %d (present %v)",
								bufCap, load, hotspot, slot, id, s, a, ok)
						}
					}
					if len(after) != len(before) {
						t.Fatalf("slot %d: %d cells inside after Step, want %d", slot, len(after), len(before))
					}
				}
				if load >= 0.7 && (b.BufferEvents() == 0 || gen.refused == 0) {
					t.Errorf("cap %d load %.1f hotspot %v: %d buffering events, %d refused offers; want contention and backpressure",
						bufCap, load, hotspot, b.BufferEvents(), gen.refused)
				}
			}
		}
	}
}
