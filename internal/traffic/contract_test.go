package traffic

import (
	"slices"
	"testing"

	"fabricpower/internal/packet"
)

type generator interface {
	Generate(slot uint64) []*packet.Cell
	Release(c *packet.Cell)
}

// checkGeneratorOwnership pins the kernel's generator contract: a slice
// Generate returns is never overwritten by a later call, appending to
// it cannot reach another slot's cells, and no cell is handed out twice
// while the caller still owns it.
func checkGeneratorOwnership(t *testing.T, name string, gen generator) {
	t.Helper()
	type snap struct {
		cells   []*packet.Cell
		ids     []uint64
		payload [][]uint32
	}
	var kept [][]*packet.Cell
	var snaps []snap
	seen := map[*packet.Cell]bool{}
	for s := uint64(0); s < 300; s++ {
		out := gen.Generate(s)
		var sn snap
		for _, c := range out {
			if seen[c] {
				t.Fatalf("%s: slot %d hands out a cell the caller still owns", name, s)
			}
			seen[c] = true
			sn.cells = append(sn.cells, c)
			sn.ids = append(sn.ids, c.ID)
			sn.payload = append(sn.payload, slices.Clone(c.Payload))
		}
		if len(kept) > 0 {
			// An append to the previous slot's slice must not land in
			// this one.
			_ = append(kept[len(kept)-1], &packet.Cell{ID: 1 << 60})
		}
		kept = append(kept, out)
		snaps = append(snaps, sn)
	}
	for s, out := range kept {
		sn := snaps[s]
		if !slices.Equal(out, sn.cells) {
			t.Fatalf("%s: slot %d's slice was overwritten by a later Generate", name, s)
		}
		for i, c := range out {
			if c.ID != sn.ids[i] || !slices.Equal(c.Payload, sn.payload[i]) {
				t.Fatalf("%s: slot %d cell %d changed after later Generate calls", name, s, i)
			}
		}
	}
}

func TestGeneratorsNeverAliasResults(t *testing.T) {
	in, err := NewInjector(8, 0.7, cfg(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGeneratorOwnership(t, "injector", in)
	onoff, err := NewOnOffInjector(8, 6, 0.6, cfg(), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkGeneratorOwnership(t, "on/off", onoff)
	pk, err := NewPacketInjector(8, 0.6, cfg(), nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkGeneratorOwnership(t, "packet", pk)
	rec, err := NewInjector(8, 0.7, cfg(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlayer(Record(rec, 300), cfg())
	if err != nil {
		t.Fatal(err)
	}
	checkGeneratorOwnership(t, "player", pl)
}

// TestInjectorRecyclesReleasedCells checks that released cells come
// back with fresh contents, drawn exactly as a never-releasing injector
// draws them.
func TestInjectorRecyclesReleasedCells(t *testing.T) {
	a, err := NewInjector(8, 0.5, cfg(), nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(8, 0.5, cfg(), nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	reused := false
	var prev map[*packet.Cell]bool
	for s := uint64(0); s < 200; s++ {
		ca, cb := a.Generate(s), b.Generate(s)
		if len(ca) != len(cb) {
			t.Fatalf("slot %d: %d cells, want %d", s, len(ca), len(cb))
		}
		for i := range ca {
			if prev[ca[i]] {
				reused = true
			}
			x, y := ca[i], cb[i]
			if x.ID != y.ID || x.Src != y.Src || x.Dest != y.Dest || x.CreatedSlot != y.CreatedSlot || !slices.Equal(x.Payload, y.Payload) {
				t.Fatalf("slot %d cell %d: recycled %+v, fresh %+v", s, i, *x, *y)
			}
		}
		prev = map[*packet.Cell]bool{}
		for _, c := range ca {
			prev[c] = true
			a.Release(c)
		}
	}
	if !reused {
		t.Fatal("released cells were never reused")
	}
}
