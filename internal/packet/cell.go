// Package packet defines the traffic units of the simulation platform:
// fixed-size cells switched by the fabrics, variable-size TCP/IP-like
// packets, and the ingress segmentation / egress reassembly between them
// (paper §2: the ingress unit parallelizes and inspects packets, the
// egress unit re-assembles them).
//
// Payloads are carried as 32-bit bus words; the bit-level wire accounting
// XORs consecutive words on a link and counts the flipped bits, which is
// exactly the paper's "only bits with flipped polarity consume energy"
// rule at full bit accuracy.
package packet

import (
	"fmt"
	"math/bits"

	"fabricpower/internal/rng"
)

// Config fixes the cell geometry for a simulation.
type Config struct {
	// CellBits is the fixed cell size switched by the fabric (default
	// 1024, making a 4 Kbit node buffer hold 4 cells — "a few packets",
	// per the studies the paper cites).
	CellBits int
	// BusWidth is the datapath width in bits (32 in the paper).
	BusWidth int
}

// Validate reports whether the geometry is usable.
func (c Config) Validate() error {
	if c.BusWidth < 1 || c.BusWidth > 32 {
		return fmt.Errorf("packet: bus width must be 1..32, got %d", c.BusWidth)
	}
	if c.CellBits < c.BusWidth || c.CellBits%c.BusWidth != 0 {
		return fmt.Errorf("packet: cell bits (%d) must be a positive multiple of bus width (%d)", c.CellBits, c.BusWidth)
	}
	return nil
}

// Words returns the number of bus words per cell.
func (c Config) Words() int { return c.CellBits / c.BusWidth }

// Cell is one fixed-size switching unit. Fabrics route it by Dest and
// charge its Payload; they keep no per-slot state on it (a multistage
// fabric holds each cell to one stage per slot by stepping its last
// stage first).
type Cell struct {
	// ID is unique per cell within a simulation.
	ID uint64
	// Src and Dest are ingress/egress port indices. The ingress unit has
	// already translated the IP address into the egress port (§5.2).
	Src, Dest int
	// PacketID ties segmented cells back to their packet (0 for
	// cell-native traffic).
	PacketID uint64
	// Seq is the cell's index within its packet; Last marks the tail.
	Seq  int
	Last bool
	// Payload is the cell body in bus words, LSB-first bit order.
	Payload []uint32
	// CreatedSlot is the injection slot, for latency accounting.
	CreatedSlot uint64

	// FlowID and Hop belong to the network-level simulator
	// (internal/netsim): the multi-hop flow the cell rides and its
	// current position on the flow's path. Carrying them in the cell
	// keeps the network kernel's forwarding allocation-free — no
	// side-table lookup per delivered cell. Single-router simulations
	// leave both zero; routers and fabrics never read them.
	FlowID int32
	Hop    int32

	// interior caches the payload's interior flip count,
	// Σ popcount(w[i-1] ^ w[i]), stored +1 so the zero value means "not
	// computed yet": FillRandom sets it while drawing the payload, and
	// a cell built as a literal computes it on its first Crossing. The
	// cache is why a payload must not change once the cell is offered.
	interior int32
	// pooled marks a cell carved by a Pool; free marks one sitting on a
	// Pool's free list. Only pooled cells are ever recycled.
	pooled, free bool
}

// Bits returns the cell size in bits.
func (c *Cell) Bits() int { return len(c.Payload) * 32 }

// FlipCount returns the number of bit flips between two consecutive words
// on the same wire bundle.
func FlipCount(prev, cur uint32) int { return bits.OnesCount32(prev ^ cur) }

// FlipsThrough streams the cell's words over a link whose last held word
// is last, returning the total polarity flips and the link's new held
// word. Idle links hold their value, so the first word is compared against
// the previous cell's tail (or the idle value).
func FlipsThrough(last uint32, words []uint32) (flips int, newLast uint32) {
	for _, w := range words {
		flips += FlipCount(last, w)
		last = w
	}
	return flips, last
}

// Crossing streams the cell's words over a link whose last held word is
// last: exactly FlipsThrough(last, c.Payload), computed as the flips of
// the first word against last plus the cached interior count, so a
// multi-link traversal popcounts the payload once instead of once per
// link.
func (c *Cell) Crossing(last uint32) (flips int, newLast uint32) {
	n := len(c.Payload)
	if n == 0 {
		return 0, last
	}
	if c.interior == 0 {
		f, _ := FlipsThrough(c.Payload[0], c.Payload[1:])
		c.interior = int32(f) + 1
	}
	return FlipCount(last, c.Payload[0]) + int(c.interior-1), c.Payload[n-1]
}

// FillRandom draws the cell's payload from s — the same words, in the
// same order, as RandomPayload(s, len(c.Payload)) — and caches its
// interior flip count on the way.
func (c *Cell) FillRandom(s *rng.Stream) {
	var prev uint32
	flips := 0
	for i := range c.Payload {
		w := s.Uint32()
		if i > 0 {
			flips += FlipCount(prev, w)
		}
		c.Payload[i], prev = w, w
	}
	c.interior = int32(flips) + 1
}

// RandomPayload fills a fresh payload of n words from s (the paper's
// random binary payloads).
func RandomPayload(s *rng.Stream, n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = s.Uint32()
	}
	return p
}

// ZeroPayload returns an all-zeros payload (no wire flips after the first
// word; used by energy unit tests).
func ZeroPayload(n int) []uint32 { return make([]uint32, n) }

// AlternatingPayload returns a worst-case payload alternating 0x00000000
// and 0xFFFFFFFF, flipping every wire every word.
func AlternatingPayload(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		if i%2 == 1 {
			p[i] = 0xFFFFFFFF
		}
	}
	return p
}
