package fabric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fabricpower/internal/core"
	"fabricpower/internal/packet"
	"fabricpower/internal/thompson"
)

func testConfig(ports int) Config {
	return Config{
		Ports: ports,
		Cell:  packet.Config{CellBits: 128, BusWidth: 32},
		Model: core.PaperModel(),
	}
}

func mkCell(rng *rand.Rand, id uint64, src, dest int, words int) *packet.Cell {
	return &packet.Cell{
		ID:      id,
		Src:     src,
		Dest:    dest,
		Payload: packet.RandomPayload(rng, words),
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(8).Validate(); err != nil {
		t.Fatal(err)
	}
	c := testConfig(8)
	c.Ports = 1
	if err := c.Validate(); err == nil {
		t.Error("1 port should fail")
	}
	c = testConfig(8)
	c.BufferCells = -1
	if err := c.Validate(); err == nil {
		t.Error("negative buffer should fail")
	}
	c = testConfig(8)
	c.Model.Crosspoint = nil
	if err := c.Validate(); err == nil {
		t.Error("invalid model should fail")
	}
}

func TestBufferCellsDerivation(t *testing.T) {
	c := testConfig(8) // 4096-bit node buffer / 128-bit cells = 32 cells
	if got := c.bufferCells(); got != 32 {
		t.Fatalf("derived buffer cells = %d, want 32", got)
	}
	c.BufferCells = 4
	if got := c.bufferCells(); got != 4 {
		t.Fatalf("explicit buffer cells = %d, want 4", got)
	}
}

func TestNewRejectsUnknownArch(t *testing.T) {
	if _, err := New(core.Architecture(42), testConfig(8)); err == nil {
		t.Fatal("unknown arch should fail")
	}
}

func TestNewAllArchitectures(t *testing.T) {
	for _, a := range core.Architectures() {
		f, err := New(a, testConfig(8))
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if f.Arch() != a || f.Ports() != 8 {
			t.Fatalf("%v: metadata wrong", a)
		}
	}
}

func TestBatcherBanyanRejectsN2(t *testing.T) {
	if _, err := New(core.BatcherBanyan, testConfig(2)); err == nil {
		t.Fatal("N=2 Batcher-Banyan should fail")
	}
}

func TestBanyanRejectsNonPowerOfTwo(t *testing.T) {
	cfg := testConfig(8)
	cfg.Ports = 6
	if _, err := New(core.Banyan, cfg); err == nil {
		t.Fatal("N=6 should fail")
	}
}

// deliverAll drains a fabric until idle, returning all delivered cells.
func deliverAll(t *testing.T, f Fabric, maxSlots int) []*packet.Cell {
	t.Helper()
	var out []*packet.Cell
	for s := 0; s < maxSlots; s++ {
		out = append(out, f.Step(uint64(s))...)
		if f.InFlight() == 0 {
			return out
		}
	}
	t.Fatalf("fabric did not drain after %d slots (in flight: %d)", maxSlots, f.InFlight())
	return nil
}

// TestSingleHopDelivery: crossbar and fully connected deliver within the
// same slot, preserving src/dest.
func TestSingleHopDelivery(t *testing.T) {
	for _, arch := range []core.Architecture{core.Crossbar, core.FullyConnected} {
		t.Run(arch.String(), func(t *testing.T) {
			f, err := New(arch, testConfig(4))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			c := mkCell(rng, 1, 2, 3, 4)
			if !f.Offer(c) {
				t.Fatal("offer refused")
			}
			got := f.Step(0)
			if len(got) != 1 || got[0] != c {
				t.Fatalf("delivered %d cells", len(got))
			}
			if f.InFlight() != 0 {
				t.Fatal("nothing should remain in flight")
			}
		})
	}
}

// TestSingleHopArbiterContract: a second same-destination cell in one slot
// is refused.
func TestSingleHopArbiterContract(t *testing.T) {
	for _, arch := range []core.Architecture{core.Crossbar, core.FullyConnected} {
		f, err := New(arch, testConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		if !f.Offer(mkCell(rng, 1, 0, 3, 4)) {
			t.Fatal("first offer refused")
		}
		if f.Offer(mkCell(rng, 2, 1, 3, 4)) {
			t.Fatalf("%v: same-dest cell must be refused in one slot", arch)
		}
		f.Step(0)
		if !f.Offer(mkCell(rng, 3, 1, 3, 4)) {
			t.Fatalf("%v: next slot should accept", arch)
		}
	}
}

func TestOfferRejectsOutOfRange(t *testing.T) {
	for _, a := range core.Architectures() {
		f, err := New(a, testConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		if f.Offer(nil) {
			t.Errorf("%v: nil cell accepted", a)
		}
		if f.Offer(mkCell(rng, 1, -1, 0, 4)) {
			t.Errorf("%v: negative src accepted", a)
		}
		if f.Offer(mkCell(rng, 1, 0, 4, 4)) {
			t.Errorf("%v: dest out of range accepted", a)
		}
	}
}

// TestBanyanDeliversToCorrectPorts routes every (src,dest) pair through an
// 8x8 banyan one at a time and checks self-routing correctness.
func TestBanyanDeliversToCorrectPorts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for src := 0; src < 8; src++ {
		for dest := 0; dest < 8; dest++ {
			f, err := New(core.Banyan, testConfig(8))
			if err != nil {
				t.Fatal(err)
			}
			c := mkCell(rng, 1, src, dest, 4)
			if !f.Offer(c) {
				t.Fatalf("offer %d->%d refused", src, dest)
			}
			got := deliverAll(t, f, 10)
			if len(got) != 1 || got[0].Dest != dest {
				t.Fatalf("%d->%d: delivered %v", src, dest, got)
			}
		}
	}
}

// TestBanyanPipelineLatency: a lone cell takes exactly dim slots.
func TestBanyanPipelineLatency(t *testing.T) {
	f, err := New(core.Banyan, testConfig(8)) // dim 3
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	if !f.Offer(mkCell(rng, 1, 0, 5, 4)) {
		t.Fatal("offer refused")
	}
	for s := 0; s < 2; s++ {
		if got := f.Step(uint64(s)); len(got) != 0 {
			t.Fatalf("delivered after %d slots, want 3", s+1)
		}
	}
	if got := f.Step(2); len(got) != 1 {
		t.Fatal("cell should arrive on slot 3")
	}
}

// TestBanyanInternalBlocking creates a classic omega conflict and checks
// a buffering event is charged.
func TestBanyanInternalBlocking(t *testing.T) {
	cfg := testConfig(8)
	f, err := newBanyan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	// Find a pair of (src,dest) cells with distinct dests that collide
	// inside the fabric: brute-force search over small combinations.
	found := false
search:
	for s1 := 0; s1 < 8 && !found; s1++ {
		for s2 := s1 + 1; s2 < 8; s2++ {
			for d1 := 0; d1 < 8; d1++ {
				for d2 := 0; d2 < 8; d2++ {
					if d1 == d2 {
						continue
					}
					g, err := newBanyan(cfg)
					if err != nil {
						t.Fatal(err)
					}
					g.Offer(mkCell(rng, 1, s1, d1, 4))
					g.Offer(mkCell(rng, 2, s2, d2, 4))
					for s := 0; s < 20 && g.InFlight() > 0; s++ {
						g.Step(uint64(s))
					}
					if g.BufferEvents() > 0 {
						f = g
						found = true
						break search
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("no internally blocking pattern found in an 8x8 omega; blocking network expected")
	}
	if f.Energy().BufferFJ <= 0 {
		t.Fatal("buffering must charge buffer energy")
	}
}

// TestBanyanThroughputUnderPermutation: a non-blocking permutation pattern
// streams at full rate with zero buffering.
func TestBanyanIdentityPermutationNoBuffers(t *testing.T) {
	f, err := newBanyan(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	id := uint64(0)
	delivered := 0
	for s := 0; s < 100; s++ {
		for p := 0; p < 8; p++ {
			id++
			// Identity permutation routes without internal conflicts in
			// an omega network.
			f.Offer(mkCell(rng, id, p, p, 4))
		}
		delivered += len(f.Step(uint64(s)))
	}
	if f.BufferEvents() != 0 {
		t.Fatalf("identity permutation should not buffer, got %d events", f.BufferEvents())
	}
	if delivered < 8*90 {
		t.Fatalf("throughput too low: %d delivered", delivered)
	}
}

// TestBatcherBanyanDeliversAllPairs checks sorting+routing for every
// (src,dest) pair.
func TestBatcherBanyanDeliversAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for src := 0; src < 8; src++ {
		for dest := 0; dest < 8; dest++ {
			f, err := New(core.BatcherBanyan, testConfig(8))
			if err != nil {
				t.Fatal(err)
			}
			if !f.Offer(mkCell(rng, 1, src, dest, 4)) {
				t.Fatalf("offer %d->%d refused", src, dest)
			}
			got := deliverAll(t, f, 20)
			if len(got) != 1 || got[0].Dest != dest {
				t.Fatalf("%d->%d: delivered %v", src, dest, got)
			}
		}
	}
}

// TestBatcherBanyanFullPermutationWave: a full wave of distinct
// destinations arrives conflict-free.
func TestBatcherBanyanFullPermutationWave(t *testing.T) {
	f, err := newBatcherBanyan(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	perm := rng.Perm(8)
	for src, dest := range perm {
		if !f.Offer(mkCell(rng, uint64(src+1), src, dest, 4)) {
			t.Fatalf("offer %d->%d refused", src, dest)
		}
	}
	got := deliverAll(t, f, 30)
	if len(got) != 8 {
		t.Fatalf("delivered %d cells, want 8", len(got))
	}
	if f.Conflicts() != 0 {
		t.Fatalf("Batcher-Banyan property violated: %d conflicts", f.Conflicts())
	}
}

// TestBatcherBanyanProperty is the paper's §4.4 claim as a property test:
// for any random set of cells with distinct destinations, the sorted wave
// routes with zero conflicts and correct delivery.
func TestBatcherBanyanProperty(t *testing.T) {
	f := func(seed int64, maskQ uint16) bool {
		ports := 16
		fab, err := newBatcherBanyan(testConfig(ports))
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(ports)
		mask := int(maskQ) % (1 << ports)
		want := 0
		for src := 0; src < ports; src++ {
			if mask&(1<<uint(src)) == 0 {
				continue
			}
			if !fab.Offer(mkCell(rng, uint64(src+1), src, perm[src], 4)) {
				return false
			}
			want++
		}
		got := 0
		for s := 0; s < 60 && fab.InFlight() > 0; s++ {
			for _, c := range fab.Step(uint64(s)) {
				got++
				if c.Dest != perm[c.Src] {
					return false
				}
			}
		}
		return got == want && fab.Conflicts() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEnergyAccountingBasics: delivering cells charges switch and wire
// energy; ResetEnergy clears.
func TestEnergyAccountingBasics(t *testing.T) {
	for _, a := range core.Architectures() {
		t.Run(a.String(), func(t *testing.T) {
			f, err := New(a, testConfig(8))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(10))
			f.Offer(mkCell(rng, 1, 1, 6, 4))
			deliverAll(t, f, 30)
			e := f.Energy()
			if e.SwitchFJ <= 0 {
				t.Error("switch energy missing")
			}
			if e.WireFJ <= 0 {
				t.Error("wire energy missing")
			}
			f.ResetEnergy()
			if f.Energy().TotalFJ() != 0 {
				t.Error("reset failed")
			}
		})
	}
}

// TestZeroPayloadZeroWireEnergy: an all-zeros payload over idle links
// flips nothing, so wire energy is exactly 0 while switch energy still
// accrues — the paper's Eq. 2 in its purest form.
func TestZeroPayloadZeroWireEnergy(t *testing.T) {
	for _, a := range core.Architectures() {
		f, err := New(a, testConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		c := &packet.Cell{ID: 1, Src: 0, Dest: 5, Payload: packet.ZeroPayload(4)}
		f.Offer(c)
		deliverAll(t, f, 30)
		if e := f.Energy(); e.WireFJ != 0 {
			t.Errorf("%v: zero payload should cost zero wire energy, got %g", a, e.WireFJ)
		}
	}
}

// TestAlternatingPayloadMaxWireEnergy: the alternating pattern flips every
// wire every word; wire energy must exceed a random payload's.
func TestAlternatingPayloadMaxWireEnergy(t *testing.T) {
	run := func(payload []uint32) float64 {
		f, err := New(core.Crossbar, testConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		f.Offer(&packet.Cell{ID: 1, Src: 0, Dest: 5, Payload: payload})
		f.Step(0)
		return f.Energy().WireFJ
	}
	rng := rand.New(rand.NewSource(11))
	alt := run(packet.AlternatingPayload(4))
	rnd := run(packet.RandomPayload(rng, 4))
	if alt <= rnd {
		t.Fatalf("alternating payload (%g) must exceed random (%g)", alt, rnd)
	}
}

// TestCrossbarEnergyMatchesEq3: a cell with alternating payload charges
// exactly cellBits×N×E_S switch energy, and wire energy equals
// flips×8N×E_T.
func TestCrossbarEnergyMatchesEq3(t *testing.T) {
	cfg := testConfig(8)
	f, err := newCrossbar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := packet.AlternatingPayload(4) // flips: 3.5 words × 32? see below
	f.Offer(&packet.Cell{ID: 1, Src: 2, Dest: 6, Payload: payload})
	f.Step(0)
	e := f.Energy()
	wantSwitch := float64(cfg.Cell.CellBits) * 8 * 220
	if e.SwitchFJ != wantSwitch {
		t.Fatalf("switch energy %g, want %g", e.SwitchFJ, wantSwitch)
	}
	// Alternating from idle-0 links: word0 = 0 (no flips), then 3 full
	// flips of 32 bits = 96 flips, on row and column wires (4N grids
	// each).
	et := cfg.Model.Tech.ETBitFJ()
	wantWire := 96 * (32.0 + 32.0) * et
	if diff := e.WireFJ - wantWire; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("wire energy %g, want %g", e.WireFJ, wantWire)
	}
}

// TestMultistageWireEnergyMatchesClosedForms: one alternating-payload
// cell through an otherwise idle Banyan or Batcher-Banyan crosses every
// stage wire once, from idle-0 links, so its wire energy is exactly
// flips × Σ stage grids × E_T with the grids of Eqs. 5 and 6 (4·2ⁱ per
// Banyan stage, 4·span per sorter stage). A stage charged one grid off
// moves the sum by 1/Σ, far above the tolerance.
func TestMultistageWireEnergyMatchesClosedForms(t *testing.T) {
	for _, a := range []core.Architecture{core.Banyan, core.BatcherBanyan} {
		for _, ports := range []int{8, 32} {
			cfg := testConfig(ports)
			dim, _ := dimOf(ports)
			grids := thompson.BanyanWires{Dimension: dim}.PathGrids()
			if a == core.BatcherBanyan {
				grids = thompson.BatcherBanyanWires{Dimension: dim}.PathGrids()
			}
			f, err := New(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			f.Offer(&packet.Cell{ID: 1, Src: 3, Dest: ports - 2, Payload: packet.AlternatingPayload(4)})
			deliverAll(t, f, 100)
			// Word 0 is all zeros, then 3 full 32-bit flips per stage.
			want := 96 * float64(grids) * cfg.Model.Tech.ETBitFJ()
			if got := f.Energy().WireFJ; math.Abs(got-want) > 1e-9*want {
				t.Errorf("%v N=%d: wire energy %.6f fJ, want 96 × %d grids × E_T = %.6f fJ",
					a, ports, got, grids, want)
			}
		}
	}
}

// TestBanyanBufferPenaltyGrowsWithLoad reproduces the mechanism behind
// Fig. 9: per-delivered-bit buffer energy rises with offered load.
func TestBanyanBufferPenaltyGrowsWithLoad(t *testing.T) {
	perBit := func(load float64) float64 {
		f, err := newBanyan(testConfig(16))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(12))
		id := uint64(0)
		bits := 0
		for s := 0; s < 3000; s++ {
			for p := 0; p < 16; p++ {
				if rng.Float64() < load {
					id++
					f.Offer(mkCell(rng, id, p, rng.Intn(16), 4))
				}
			}
			for _, c := range f.Step(uint64(s)) {
				bits += c.Bits()
			}
		}
		if bits == 0 {
			return 0
		}
		return f.Energy().BufferFJ / float64(bits)
	}
	low := perBit(0.1)
	high := perBit(0.5)
	if high <= low {
		t.Fatalf("buffer energy per bit must grow with load: %g (10%%) vs %g (50%%)", low, high)
	}
}

// TestFabricsConserveCells: every architecture delivers exactly what was
// accepted under random traffic (no loss, no duplication).
func TestFabricsConserveCells(t *testing.T) {
	for _, a := range core.Architectures() {
		t.Run(a.String(), func(t *testing.T) {
			f, err := New(a, testConfig(8))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(13))
			accepted := make(map[uint64]bool)
			delivered := make(map[uint64]bool)
			id := uint64(0)
			destBusy := make([]bool, 8)
			for s := 0; s < 500; s++ {
				for i := range destBusy {
					destBusy[i] = false
				}
				for p := 0; p < 8; p++ {
					if rng.Float64() < 0.4 {
						id++
						d := rng.Intn(8)
						// Respect the arbiter contract: one cell per
						// dest per slot.
						if destBusy[d] {
							continue
						}
						c := mkCell(rng, id, p, d, 4)
						if f.Offer(c) {
							destBusy[d] = true
							accepted[c.ID] = true
						}
					}
				}
				for _, c := range f.Step(uint64(s)) {
					if delivered[c.ID] {
						t.Fatalf("cell %d delivered twice", c.ID)
					}
					if !accepted[c.ID] {
						t.Fatalf("cell %d delivered but never accepted", c.ID)
					}
					delivered[c.ID] = true
				}
			}
			// Drain.
			for s := 500; s < 800 && f.InFlight() > 0; s++ {
				for _, c := range f.Step(uint64(s)) {
					delivered[c.ID] = true
				}
			}
			if len(delivered) != len(accepted) {
				t.Fatalf("accepted %d, delivered %d", len(accepted), len(delivered))
			}
		})
	}
}
