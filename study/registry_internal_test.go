package study

import (
	"testing"

	"fabricpower/internal/netsim"
	"fabricpower/internal/packet"
	"fabricpower/internal/rng"
)

type emitEverySlot struct{}

func (emitEverySlot) Cells(slot uint64, emit func(Injection)) {
	emit(Injection{Port: 0, Dest: 0})
}

// TestFlowSourceAdapterAllocFree pins the FlowSource contract on the
// registered-kind adapter: NextBlock runs inside every shard's compute
// phase, so the emit callback must be bound once at construction, not
// re-created per call.
func TestFlowSourceAdapterAllocFree(t *testing.T) {
	a := newFlowSourceAdapter(emitEverySlot{})
	first := uint64(0)
	allocs := testing.AllocsPerRun(500, func() {
		if m := a.NextBlock(first); m != ^uint64(0) {
			t.Fatalf("block %d: mask %#x, want every slot", first/netsim.BlockSlots, m)
		}
		first += netsim.BlockSlots
	})
	if allocs != 0 {
		t.Errorf("adapter NextBlock allocates %.1f times per block, want 0", allocs)
	}
}

// coinPorts is a registered-kind-style source with state: every slot
// it flips one coin per port at its load and emits on each hit, so a
// slot can emit several cells or none.
type coinPorts struct {
	ports  int
	load   float64
	stream *rng.Stream
}

func (s *coinPorts) Cells(slot uint64, emit func(Injection)) {
	for p := 0; p < s.ports; p++ {
		if s.stream.Float64() < s.load {
			emit(Injection{Port: p, Dest: int(slot) % s.ports})
		}
	}
}

// TestFlowSourceAdapterMatchesPerSlot checks the adapter's NextBlock
// against asking the registered source slot by slot: bit i is set iff
// slot first+i emitted at least one cell, over many consecutive blocks.
func TestFlowSourceAdapterMatchesPerSlot(t *testing.T) {
	for _, tc := range []struct {
		ports int
		load  float64
	}{{1, 0}, {1, 0.01}, {1, 0.5}, {1, 1}, {3, 0.2}} {
		for seed := int64(0); seed < 4; seed++ {
			a := newFlowSourceAdapter(&coinPorts{tc.ports, tc.load, rng.New(seed)})
			ref := &coinPorts{tc.ports, tc.load, rng.New(seed)}
			for first := uint64(0); first < 200*netsim.BlockSlots; first += netsim.BlockSlots {
				var want uint64
				for i := uint64(0); i < netsim.BlockSlots; i++ {
					fired := false
					ref.Cells(first+i, func(Injection) { fired = true })
					if fired {
						want |= 1 << i
					}
				}
				if got := a.NextBlock(first); got != want {
					t.Fatalf("ports %d load %g seed %d block %d: %064b, per-slot %064b",
						tc.ports, tc.load, seed, first/netsim.BlockSlots, got, want)
				}
			}
		}
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
