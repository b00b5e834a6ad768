package packet

import (
	"testing"
	"testing/quick"

	"fabricpower/internal/rng"
)

func TestConfigValidate(t *testing.T) {
	paper := Config{CellBits: 1024, BusWidth: 32}
	if err := paper.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{CellBits: 1024, BusWidth: 0},
		{CellBits: 1024, BusWidth: 64},
		{CellBits: 0, BusWidth: 32},
		{CellBits: 100, BusWidth: 32}, // not a multiple
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should fail", c)
		}
	}
	if paper.Words() != 32 {
		t.Fatalf("paper words = %d, want 32", paper.Words())
	}
}

func TestFlipCount(t *testing.T) {
	if FlipCount(0, 0) != 0 {
		t.Error("no change, no flips")
	}
	if FlipCount(0, 0xFFFFFFFF) != 32 {
		t.Error("full flip")
	}
	if FlipCount(0b1010, 0b0101) != 4 {
		t.Error("nibble flip")
	}
}

func TestFlipsThrough(t *testing.T) {
	// Zero payload over a zero link: no flips at all.
	flips, last := FlipsThrough(0, ZeroPayload(8))
	if flips != 0 || last != 0 {
		t.Fatalf("zero payload: %d flips", flips)
	}
	// Alternating payload flips all 32 wires every word after the first.
	alt := AlternatingPayload(4) // 0, F, 0, F
	flips, last = FlipsThrough(0, alt)
	if flips != 3*32 {
		t.Fatalf("alternating: %d flips, want 96", flips)
	}
	if last != 0xFFFFFFFF {
		t.Fatalf("link should hold tail word, got %#x", last)
	}
	// Held word carries across cells: a second identical cell starts
	// with a full flip from 0xFFFFFFFF to 0.
	flips, _ = FlipsThrough(last, alt)
	if flips != 4*32 {
		t.Fatalf("second cell: %d flips, want 128", flips)
	}
}

// Property: flips between random words equals popcount of XOR (oracle).
func TestFlipCountProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		n := 0
		for i := 0; i < 32; i++ {
			if (a>>uint(i))&1 != (b>>uint(i))&1 {
				n++
			}
		}
		return FlipCount(a, b) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPayloadDeterministic(t *testing.T) {
	a := RandomPayload(rng.New(5), 16)
	b := RandomPayload(rng.New(5), 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same payload")
		}
	}
}

func TestNewRandomPacket(t *testing.T) {
	draws := rng.New(1)
	p, err := NewRandomPacket(draws, 7, 1, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != 7 || p.Src != 1 || p.Dest != 2 || p.SizeBits != 1000 {
		t.Fatalf("packet fields: %+v", p)
	}
	if len(p.Payload) != (1000+31)/32 {
		t.Fatalf("payload words = %d", len(p.Payload))
	}
	if _, err := NewRandomPacket(draws, 1, 0, 0, 0); err == nil {
		t.Fatal("zero size should fail")
	}
}

func TestSegmentAndReassemble(t *testing.T) {
	cfg := Config{CellBits: 128, BusWidth: 32} // 4 words per cell
	seg, err := NewSegmenter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	draws := rng.New(3)
	p, _ := NewRandomPacket(draws, 42, 0, 3, 10*32) // 10 words -> 3 cells
	cells := seg.Split(p, 100)
	if len(cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(cells))
	}
	for i, c := range cells {
		if c.Dest != 3 || c.PacketID != 42 || c.Seq != i {
			t.Fatalf("cell %d fields: %+v", i, c)
		}
		if c.Bits() != 128 {
			t.Fatalf("cell %d bits = %d", i, c.Bits())
		}
		if c.CreatedSlot != 100 {
			t.Fatalf("cell %d slot = %d", i, c.CreatedSlot)
		}
	}
	if !cells[2].Last || cells[0].Last || cells[1].Last {
		t.Fatal("only the tail cell is Last")
	}
	r := NewReassembler()
	for i, c := range cells {
		got, done := r.Push(c)
		if i < 2 && done {
			t.Fatal("packet completed early")
		}
		if i == 2 {
			if !done {
				t.Fatal("packet should complete on tail cell")
			}
			if got.ID != 42 || got.Dest != 3 {
				t.Fatalf("reassembled fields: %+v", got)
			}
			// Payload prefix must match the original.
			for w := 0; w < len(p.Payload); w++ {
				if got.Payload[w] != p.Payload[w] {
					t.Fatalf("payload word %d mismatch", w)
				}
			}
		}
	}
	if r.PendingPackets() != 0 {
		t.Fatal("reassembler should be empty")
	}
}

func TestReassemblerInterleavedPackets(t *testing.T) {
	cfg := Config{CellBits: 64, BusWidth: 32}
	seg, _ := NewSegmenter(cfg)
	draws := rng.New(9)
	p1, _ := NewRandomPacket(draws, 1, 0, 0, 4*32)
	p2, _ := NewRandomPacket(draws, 2, 1, 0, 4*32)
	c1 := seg.Split(p1, 0)
	c2 := seg.Split(p2, 0)
	r := NewReassembler()
	// Interleave: p1c0, p2c0, p1c1(done), p2c1(done).
	if _, done := r.Push(c1[0]); done {
		t.Fatal("early completion")
	}
	if _, done := r.Push(c2[0]); done {
		t.Fatal("early completion")
	}
	if r.PendingPackets() != 2 {
		t.Fatalf("pending = %d", r.PendingPackets())
	}
	got1, done := r.Push(c1[1])
	if !done || got1.ID != 1 {
		t.Fatal("p1 should complete")
	}
	got2, done := r.Push(c2[1])
	if !done || got2.ID != 2 {
		t.Fatal("p2 should complete")
	}
}

func TestCellNativeTrafficPassesThrough(t *testing.T) {
	r := NewReassembler()
	c := &Cell{ID: 5, Src: 1, Dest: 2, Payload: ZeroPayload(4)}
	p, done := r.Push(c)
	if !done || p.ID != 5 || p.SizeBits != 128 {
		t.Fatalf("cell-native push: %+v done=%v", p, done)
	}
}

func TestSegmenterRejectsBadConfig(t *testing.T) {
	if _, err := NewSegmenter(Config{CellBits: 3, BusWidth: 2}); err == nil {
		t.Fatal("bad config should fail")
	}
}

// Property: segmentation followed by reassembly is the identity on payload
// prefix for random packet sizes.
func TestSegmentReassembleRoundTrip(t *testing.T) {
	cfg := Config{CellBits: 128, BusWidth: 32}
	f := func(sizeQ uint16, seed int64) bool {
		size := int(sizeQ%4096) + 1
		seg, err := NewSegmenter(cfg)
		if err != nil {
			return false
		}
		draws := rng.New(seed)
		p, err := NewRandomPacket(draws, 99, 0, 1, size)
		if err != nil {
			return false
		}
		cells := seg.Split(p, 0)
		r := NewReassembler()
		var got *Packet
		for _, c := range cells {
			if g, done := r.Push(c); done {
				got = g
			}
		}
		if got == nil || len(got.Payload) < len(p.Payload) {
			return false
		}
		for i := range p.Payload {
			if got.Payload[i] != p.Payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
