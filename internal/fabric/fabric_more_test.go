package fabric

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fabricpower/internal/core"
	"fabricpower/internal/packet"
	"fabricpower/internal/rng"
)

// TestWireStateCarriesAcrossCells: the per-link word state persists, so
// sending the same payload twice in a row costs less wire energy the
// second time (no flips between identical tails/heads), while a
// complemented payload costs more. This is the bit-level accuracy §5.2
// claims, beyond mean-activity models.
func TestWireStateCarriesAcrossCells(t *testing.T) {
	run := func(second []uint32) float64 {
		f, err := New(core.Crossbar, testConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		first := []uint32{0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF}
		f.Offer(&packet.Cell{ID: 1, Src: 0, Dest: 1, Payload: first})
		f.Step(0)
		f.ResetEnergy()
		f.Offer(&packet.Cell{ID: 2, Src: 0, Dest: 1, Payload: second})
		f.Step(1)
		return f.Energy().WireFJ
	}
	// Link tail is all-ones after the first cell: repeating it flips
	// nothing, complementing it flips every wire once.
	same := run([]uint32{0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF})
	flip := run([]uint32{0, 0, 0, 0})
	if same != 0 {
		t.Fatalf("identical repeat should flip nothing, got %g fJ", same)
	}
	if flip <= same {
		t.Fatalf("complemented payload (%g fJ) must cost more than repeat (%g fJ)", flip, same)
	}
}

// TestBanyanTinyBufferBackpressure: with 1-cell node buffers, heavy
// traffic must stall ingress (Offer returns false) rather than lose
// cells.
func TestBanyanTinyBufferBackpressure(t *testing.T) {
	cfg := testConfig(8)
	cfg.BufferCells = 1
	f, err := newBanyan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	draws := rng.New(41)
	id := uint64(0)
	accepted, refused := 0, 0
	delivered := 0
	for s := 0; s < 400; s++ {
		for p := 0; p < 8; p++ {
			id++
			c := mkCell(draws, id, p, draws.Intn(8), 4)
			if f.Offer(c) {
				accepted++
			} else {
				refused++
			}
		}
		delivered += len(f.Step(uint64(s)))
	}
	if refused == 0 {
		t.Fatal("tiny buffers under heavy load must refuse offers")
	}
	// Drain and verify conservation.
	for s := 400; s < 800 && f.InFlight() > 0; s++ {
		delivered += len(f.Step(uint64(s)))
	}
	if delivered != accepted {
		t.Fatalf("conservation: accepted %d, delivered %d", accepted, delivered)
	}
}

// TestBanyanBufferedCellKeepsPriority: a buffered cell departs before a
// newly arriving cell contending for the same channel (FCFS at the node).
func TestBanyanBufferedCellKeepsPriority(t *testing.T) {
	f, err := newBanyan(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	draws := rng.New(42)
	// Two cells that collide at stage 0 in a 4x4 omega: srcs 0 and 2
	// shuffle to lines 0 and 1 (node 0); dests with the same MSB
	// conflict.
	a := mkCell(draws, 1, 0, 0, 4) // MSB 0 -> channel 0
	b := mkCell(draws, 2, 2, 1, 4) // MSB 0 -> channel 0 too
	if !f.Offer(a) || !f.Offer(b) {
		t.Fatal("offers refused")
	}
	// Step 1: one of them advances, the other is buffered.
	f.Step(0)
	if f.BufferEvents() != 1 {
		t.Fatalf("expected exactly one buffering event, got %d", f.BufferEvents())
	}
	// Inject a third cell aimed at the same channel next slot; the
	// buffered one must still come out first overall (FCFS).
	c := mkCell(draws, 3, 0, 0, 4)
	f.Offer(c)
	var order []uint64
	for s := 1; s < 12 && len(order) < 3; s++ {
		for _, d := range f.Step(uint64(s)) {
			order = append(order, d.ID)
		}
	}
	if len(order) != 3 {
		t.Fatalf("only %d cells delivered", len(order))
	}
	// Cell 3 (the late arrival) must not beat both earlier cells.
	if order[0] == 3 {
		t.Fatalf("late cell delivered first: order %v", order)
	}
}

// TestBatcherWavePipelining: waves admitted in consecutive slots do not
// interact; throughput equals one wave per slot after the pipeline fills.
func TestBatcherWavePipelining(t *testing.T) {
	f, err := newBatcherBanyan(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	draws := rng.New(43)
	latency := f.wires.TotalStages()
	id := uint64(0)
	delivered := 0
	slots := 60
	for s := 0; s < slots; s++ {
		perm := rand.New(draws).Perm(8)
		for src := 0; src < 8; src++ {
			id++
			if !f.Offer(mkCell(draws, id, src, perm[src], 4)) {
				t.Fatalf("slot %d: offer refused", s)
			}
		}
		delivered += len(f.Step(uint64(s)))
	}
	// A wave admitted at slot s executes its 9 stages in slots s..s+8,
	// so waves admitted in slots 0..slots-latency complete in-window:
	// every slot from latency-1 onward delivers a full 8-cell wave.
	want := (slots - latency + 1) * 8
	if delivered != want {
		t.Fatalf("delivered %d, want %d (pipeline latency %d)", delivered, want, latency)
	}
	if f.Conflicts() != 0 {
		t.Fatalf("conflicts: %d", f.Conflicts())
	}
}

// TestBanyanRoutingProperty: under arbitrary offered traffic with the
// arbiter contract held, every delivered cell exits at its destination.
func TestBanyanRoutingProperty(t *testing.T) {
	f := func(seed int64) bool {
		fab, err := newBanyan(testConfig(16))
		if err != nil {
			return false
		}
		draws := rng.New(seed)
		id := uint64(0)
		dests := make(map[uint64]int)
		ok := true
		destBusy := make([]bool, 16)
		for s := 0; s < 150; s++ {
			for i := range destBusy {
				destBusy[i] = false
			}
			for p := 0; p < 16; p++ {
				if draws.Float64() < 0.45 {
					d := draws.Intn(16)
					if destBusy[d] {
						continue
					}
					id++
					c := mkCell(draws, id, p, d, 4)
					if fab.Offer(c) {
						destBusy[d] = true
						dests[c.ID] = d
					}
				}
			}
			for _, c := range fab.Step(uint64(s)) {
				if dests[c.ID] != c.Dest {
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestEnergyMonotoneUnderLoad: for every architecture, more load never
// reduces total energy over a fixed window (sanity for the ledger).
func TestEnergyMonotoneUnderLoad(t *testing.T) {
	for _, a := range core.Architectures() {
		energyAt := func(load float64) float64 {
			f, err := New(a, testConfig(8))
			if err != nil {
				t.Fatal(err)
			}
			draws := rng.New(44)
			id := uint64(0)
			destBusy := make([]bool, 8)
			for s := 0; s < 400; s++ {
				for i := range destBusy {
					destBusy[i] = false
				}
				for p := 0; p < 8; p++ {
					if draws.Float64() < load {
						d := draws.Intn(8)
						if destBusy[d] {
							continue
						}
						id++
						if f.Offer(mkCell(draws, id, p, d, 4)) {
							destBusy[d] = true
						}
					}
				}
				f.Step(uint64(s))
			}
			return f.Energy().TotalFJ()
		}
		low := energyAt(0.1)
		high := energyAt(0.5)
		if high <= low {
			t.Errorf("%v: energy at 50%% (%g) should exceed 10%% (%g)", a, high, low)
		}
	}
}

// TestInFlightAccounting: InFlight returns to zero after drain for all
// architectures.
func TestInFlightAccounting(t *testing.T) {
	for _, a := range core.Architectures() {
		f, err := New(a, testConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		draws := rng.New(45)
		for i := 0; i < 4; i++ {
			f.Offer(mkCell(draws, uint64(i+1), i, (i+3)%8, 4))
		}
		deliverAll(t, f, 40)
		if f.InFlight() != 0 {
			t.Errorf("%v: in flight %d after drain", a, f.InFlight())
		}
	}
}
