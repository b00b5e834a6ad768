package study

import (
	"testing"

	"fabricpower/internal/packet"
)

type emitEverySlot struct{}

func (emitEverySlot) Cells(slot uint64, emit func(Injection)) {
	emit(Injection{Port: 0, Dest: 0})
}

// TestFlowSourceAdapterAllocFree pins the FlowSource contract on the
// registered-kind adapter: Inject runs inside every shard's compute
// phase, so the emit callback must be bound once at construction, not
// re-created per call.
func TestFlowSourceAdapterAllocFree(t *testing.T) {
	a := newFlowSourceAdapter(emitEverySlot{})
	slot := uint64(0)
	allocs := testing.AllocsPerRun(500, func() {
		a.Inject(slot)
		slot++
	})
	if allocs != 0 {
		t.Errorf("adapter Inject allocates %.1f times per slot, want 0", allocs)
	}
}

type everyPortEverySlot struct{ ports int }

func (s everyPortEverySlot) Cells(slot uint64, emit func(Injection)) {
	for p := 0; p < s.ports; p++ {
		emit(Injection{Port: p, Dest: int(slot+uint64(p)) % s.ports})
	}
}

// TestSourceGeneratorNeverAliasesResults pins the generator contract on
// the registered-kind adapter: a slice from Generate is never
// overwritten by a later call, and each slot's cells are distinct.
func TestSourceGeneratorNeverAliasesResults(t *testing.T) {
	g := newSourceGenerator(everyPortEverySlot{ports: 4}, packet.Config{CellBits: 128, BusWidth: 32}, 4, 1)
	var kept [][]*packet.Cell
	var ids [][]uint64
	seen := map[*packet.Cell]bool{}
	for s := uint64(0); s < 3000; s++ {
		out := g.Generate(s)
		if len(out) != 4 || cap(out) != len(out) {
			t.Fatalf("slot %d: len %d cap %d, want 4/4", s, len(out), cap(out))
		}
		var row []uint64
		for _, c := range out {
			if seen[c] {
				t.Fatalf("slot %d reuses an unreleased cell", s)
			}
			seen[c] = true
			row = append(row, c.ID)
		}
		kept, ids = append(kept, out), append(ids, row)
	}
	for s, out := range kept {
		for i, c := range out {
			if c.ID != ids[s][i] || c.CreatedSlot != uint64(s) {
				t.Fatalf("slot %d cell %d was overwritten by a later Generate", s, i)
			}
		}
	}
}
