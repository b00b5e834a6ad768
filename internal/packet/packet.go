package packet

import (
	"fmt"
	"sort"

	"fabricpower/internal/rng"
)

// Packet is a variable-size TCP/IP-like packet before segmentation.
type Packet struct {
	ID       uint64
	Src      int
	Dest     int
	SizeBits int
	// Payload in bus words; the tail word is zero-padded.
	Payload []uint32
}

// NewRandomPacket builds a packet with a random payload of sizeBits,
// drawn from s.
func NewRandomPacket(s *rng.Stream, id uint64, src, dest, sizeBits int) (*Packet, error) {
	if sizeBits < 1 {
		return nil, fmt.Errorf("packet: size must be positive, got %d", sizeBits)
	}
	words := (sizeBits + 31) / 32
	return &Packet{
		ID:       id,
		Src:      src,
		Dest:     dest,
		SizeBits: sizeBits,
		Payload:  RandomPayload(s, words),
	}, nil
}

// Segmenter splits packets into fixed-size cells at the ingress process
// unit. The final cell is zero-padded; Last marks it for reassembly.
type Segmenter struct {
	cfg    Config
	nextID uint64
}

// NewSegmenter returns a segmenter for the cell geometry.
func NewSegmenter(cfg Config) (*Segmenter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Segmenter{cfg: cfg}, nil
}

// Split segments one packet into cells, assigning fresh cell IDs.
func (s *Segmenter) Split(p *Packet, createdSlot uint64) []*Cell {
	wordsPerCell := s.cfg.Words()
	nCells := (len(p.Payload) + wordsPerCell - 1) / wordsPerCell
	if nCells == 0 {
		nCells = 1
	}
	cells := make([]*Cell, 0, nCells)
	for i := 0; i < nCells; i++ {
		body := make([]uint32, wordsPerCell)
		copy(body, p.Payload[min(i*wordsPerCell, len(p.Payload)):])
		s.nextID++
		cells = append(cells, &Cell{
			ID:          s.nextID,
			Src:         p.Src,
			Dest:        p.Dest,
			PacketID:    p.ID,
			Seq:         i,
			Last:        i == nCells-1,
			Payload:     body,
			CreatedSlot: createdSlot,
		})
	}
	return cells
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Reassembler rebuilds packets from cells at the egress process unit.
// Cells of one packet may interleave with cells of other packets but
// arrive in order per packet (the fabrics preserve per-flow order).
type Reassembler struct {
	pending map[uint64][]*Cell
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{pending: make(map[uint64][]*Cell)}
}

// Push adds a cell; when the cell completes its packet, the reassembled
// packet is returned.
func (r *Reassembler) Push(c *Cell) (*Packet, bool) {
	if c.PacketID == 0 {
		// Cell-native traffic: each cell is its own packet.
		return &Packet{
			ID:       c.ID,
			Src:      c.Src,
			Dest:     c.Dest,
			SizeBits: c.Bits(),
			Payload:  c.Payload,
		}, true
	}
	r.pending[c.PacketID] = append(r.pending[c.PacketID], c)
	if !c.Last {
		return nil, false
	}
	cells := r.pending[c.PacketID]
	delete(r.pending, c.PacketID)
	sort.Slice(cells, func(i, j int) bool { return cells[i].Seq < cells[j].Seq })
	var payload []uint32
	for _, cc := range cells {
		payload = append(payload, cc.Payload...)
	}
	return &Packet{
		ID:       c.PacketID,
		Src:      c.Src,
		Dest:     c.Dest,
		SizeBits: len(payload) * 32,
		Payload:  payload,
	}, true
}

// PendingPackets returns the number of partially reassembled packets.
func (r *Reassembler) PendingPackets() int { return len(r.pending) }
