package traffic

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"fabricpower/internal/packet"
)

// FuzzReadTrace throws arbitrary bytes at the trace parser: it must
// never panic, and whatever it accepts must survive a Write/ReadTrace
// round trip unchanged (the parser sorts by slot, so an accepted trace
// is already in canonical order).
func FuzzReadTrace(f *testing.F) {
	f.Add([]byte("0 1 2 3\n1 0 1 42\n"))
	f.Add([]byte("5 3 3 -7\n0 0 0 0\n"))
	f.Add([]byte(""))
	f.Add([]byte("not a trace\n"))
	f.Add([]byte("1 2 3\n"))
	f.Add([]byte("18446744073709551615 1 1 9223372036854775807\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		tr2, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("serialized trace failed to parse: %v", err)
		}
		if len(tr.Entries) == 0 {
			tr.Entries = nil // Write of zero entries reads back as nil
		}
		if !reflect.DeepEqual(tr.Entries, tr2.Entries) {
			t.Fatalf("round trip changed entries:\n got %v\nwant %v", tr2.Entries, tr.Entries)
		}
	})
}

// TestPlayerRewindReplaysByteIdentical pins the replay property: a
// recorded trace played twice through Rewind regenerates the identical
// cell stream — IDs, endpoints, slots and every payload word.
func TestPlayerRewindReplaysByteIdentical(t *testing.T) {
	geo := packet.Config{CellBits: 256, BusWidth: 32}
	gen, err := NewInjector(8, 0.6, geo, &Hotspot{Port: 2, Fraction: 0.3}, 99)
	if err != nil {
		t.Fatal(err)
	}
	const slots = 200
	tr := Record(gen, slots)
	if len(tr.Entries) == 0 {
		t.Fatal("recorded an empty trace")
	}
	p, err := NewPlayer(tr, geo)
	if err != nil {
		t.Fatal(err)
	}
	play := func() []byte {
		var buf bytes.Buffer
		for s := uint64(0); s < slots; s++ {
			for _, c := range p.Generate(s) {
				fmt.Fprintf(&buf, "%d %d %d %d|", c.ID, c.Src, c.Dest, c.CreatedSlot)
				for _, w := range c.Payload {
					buf.WriteByte(byte(w))
					buf.WriteByte(byte(w >> 8))
					buf.WriteByte(byte(w >> 16))
					buf.WriteByte(byte(w >> 24))
				}
			}
		}
		return buf.Bytes()
	}
	first := play()
	p.Rewind()
	second := play()
	if !bytes.Equal(first, second) {
		t.Fatal("rewound replay diverged from the first pass")
	}
	// And a fresh player over the same trace matches too.
	p2, err := NewPlayer(tr, geo)
	if err != nil {
		t.Fatal(err)
	}
	p = p2
	if third := play(); !bytes.Equal(first, third) {
		t.Fatal("fresh player diverged from the rewound one")
	}
}
