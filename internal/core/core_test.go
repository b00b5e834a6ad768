package core

import (
	"math"
	"testing"
	"testing/quick"

	"fabricpower/internal/energy"
	"fabricpower/internal/sram"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestArchitectureStringAndParse(t *testing.T) {
	for _, a := range Architectures() {
		s := a.String()
		got, err := ParseArchitecture(s)
		if err != nil || got != a {
			t.Errorf("round trip %v: %v %v", a, got, err)
		}
	}
	if _, err := ParseArchitecture("torus"); err == nil {
		t.Error("unknown name should fail")
	}
	if Architecture(99).String() == "" {
		t.Error("unknown arch should still stringify")
	}
	if len(Architectures()) != 4 {
		t.Error("paper analyzes exactly four architectures")
	}
}

func TestComponentString(t *testing.T) {
	if SwitchComponent.String() != "switch" || BufferComponent.String() != "buffer" || WireComponent.String() != "wire" {
		t.Fatal("component names")
	}
	if Component(9).String() == "" {
		t.Fatal("unknown component should stringify")
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	a := Breakdown{SwitchFJ: 1, BufferFJ: 2, WireFJ: 3}
	b := Breakdown{SwitchFJ: 10, BufferFJ: 20, WireFJ: 30}
	sum := a.Add(b)
	if sum.SwitchFJ != 11 || sum.BufferFJ != 22 || sum.WireFJ != 33 {
		t.Fatalf("add: %+v", sum)
	}
	if sum.TotalFJ() != 66 {
		t.Fatalf("total: %g", sum.TotalFJ())
	}
	sc := a.Scale(2)
	if sc.TotalFJ() != 12 {
		t.Fatalf("scale: %+v", sc)
	}
	var acc Breakdown
	acc.Accumulate(SwitchComponent, 5)
	acc.Accumulate(BufferComponent, 7)
	acc.Accumulate(WireComponent, 9)
	acc.Accumulate(Component(42), 100) // ignored
	if acc.SwitchFJ != 5 || acc.BufferFJ != 7 || acc.WireFJ != 9 {
		t.Fatalf("accumulate: %+v", acc)
	}
}

func TestPaperModelValidates(t *testing.T) {
	if err := PaperModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesGaps(t *testing.T) {
	m := PaperModel()
	m.BufferAccessesPerEvent = 3
	if err := m.Validate(); err == nil {
		t.Error("3 accesses should fail")
	}
	m = PaperModel()
	m.Tech.VDD = 0
	if err := m.Validate(); err == nil {
		t.Error("bad tech should fail")
	}
}

// TestCrossbarEq3 pins Eq. 3 numerically with the paper's constants:
// E = N·220 fJ + 8N·87.12 fJ.
func TestCrossbarEq3(t *testing.T) {
	m := PaperModel()
	for _, n := range []int{4, 8, 16, 32} {
		b, err := m.CrossbarBitEnergy(n)
		if err != nil {
			t.Fatal(err)
		}
		wantSwitch := float64(n) * 220
		wantWire := 8 * float64(n) * m.Tech.ETBitFJ()
		if !almost(b.SwitchFJ, wantSwitch, 1e-9) {
			t.Errorf("N=%d switch: %g, want %g", n, b.SwitchFJ, wantSwitch)
		}
		if !almost(b.WireFJ, wantWire, 1e-6) {
			t.Errorf("N=%d wire: %g, want %g", n, b.WireFJ, wantWire)
		}
		if b.BufferFJ != 0 {
			t.Errorf("N=%d: crossbar is contention-free, buffer must be 0", n)
		}
	}
	if _, err := m.CrossbarBitEnergy(0); err == nil {
		t.Error("N=0 should fail")
	}
}

// TestFullyConnectedEq4 pins Eq. 4: E = E_mux(N) + ½N²·E_T, including
// past 64 ports, where the MUX term comes from Table 1's log-log fit.
func TestFullyConnectedEq4(t *testing.T) {
	m := PaperModel()
	mux128, err := energy.PaperMuxEnergyFJ(128)
	if err != nil {
		t.Fatal(err)
	}
	muxFJ := map[int]float64{4: 431, 8: 782, 16: 1350, 32: 2515, 128: mux128}
	for n, mf := range muxFJ {
		b, err := m.FullyConnectedBitEnergy(n)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(b.SwitchFJ, mf, 1e-9) {
			t.Errorf("N=%d switch: %g, want %g", n, b.SwitchFJ, mf)
		}
		wantWire := 0.5 * float64(n) * float64(n) * m.Tech.ETBitFJ()
		if !almost(b.WireFJ, wantWire, 1e-6) {
			t.Errorf("N=%d wire: %g, want %g", n, b.WireFJ, wantWire)
		}
	}
	if _, err := m.FullyConnectedBitEnergy(6); err == nil {
		t.Error("non-power-of-two should fail")
	}
}

// TestBanyanEq5 pins Eq. 5 with and without contention.
func TestBanyanEq5(t *testing.T) {
	m := PaperModel()
	// Contention-free: n·1080 + 4(2ⁿ−1)·E_T.
	b, err := m.BanyanBitEnergy(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(b.SwitchFJ, 4*1080, 1e-9) {
		t.Errorf("switch: %g, want %g", b.SwitchFJ, 4*1080.0)
	}
	if !almost(b.WireFJ, 4*15*m.Tech.ETBitFJ(), 1e-6) {
		t.Errorf("wire: %g", b.WireFJ)
	}
	if b.BufferFJ != 0 {
		t.Error("no contention -> no buffer energy")
	}
	// One contention at stage 2 adds exactly one E_B (Table 2: 154 pJ at
	// 16×16).
	b2, err := m.BanyanBitEnergy(16, []bool{false, false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	eb, err := m.BanyanBufferBitEnergyFJ(4)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(b2.BufferFJ, eb, 1e-9) {
		t.Errorf("buffer: %g, want %g", b2.BufferFJ, eb)
	}
	if !almost(eb, 154e3, 0.02*154e3) {
		t.Errorf("16×16 E_B = %g fJ, want ≈154 pJ (Table 2)", eb)
	}
	// Wrong contention vector length.
	if _, err := m.BanyanBitEnergy(16, []bool{true}); err == nil {
		t.Error("wrong contention length should fail")
	}
	if _, err := m.BanyanBitEnergy(3, nil); err == nil {
		t.Error("non-power-of-two should fail")
	}
}

// TestBatcherBanyanEq6 pins Eq. 6's structure: ½n(n+1) sorter stages at
// 1253 fJ plus n Banyan stages at 1080 fJ plus both wire terms.
func TestBatcherBanyanEq6(t *testing.T) {
	m := PaperModel()
	b, err := m.BatcherBanyanBitEnergy(16) // dim 4: 10 sorter + 4 banyan
	if err != nil {
		t.Fatal(err)
	}
	wantSwitch := 10*1253.0 + 4*1080.0
	if !almost(b.SwitchFJ, wantSwitch, 1e-9) {
		t.Errorf("switch: %g, want %g", b.SwitchFJ, wantSwitch)
	}
	// Wire: sorter 4Σⱼ(2^{j+1}−1) = 4(1+3+7+15) = 104; banyan 4·15 = 60.
	wantWire := float64(104+60) * m.Tech.ETBitFJ()
	if !almost(b.WireFJ, wantWire, 1e-6) {
		t.Errorf("wire: %g, want %g", b.WireFJ, wantWire)
	}
	if b.BufferFJ != 0 {
		t.Error("Batcher-Banyan is contention-free; no buffer term")
	}
	if _, err := m.BatcherBanyanBitEnergy(2); err == nil {
		t.Error("N=2 should fail (paper requires N >= 4)")
	}
}

func TestBitEnergyDispatch(t *testing.T) {
	m := PaperModel()
	for _, a := range Architectures() {
		b, err := m.BitEnergy(a, 16)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if b.TotalFJ() <= 0 {
			t.Errorf("%v: non-positive bit energy", a)
		}
	}
	if _, err := m.BitEnergy(Architecture(9), 16); err == nil {
		t.Error("unknown architecture should fail")
	}
}

// TestPaperOrderingSmallN reproduces §6 observation 2 at small port
// counts: fully connected is the cheapest of the four (per contention-free
// bit).
func TestPaperOrderingSmallN(t *testing.T) {
	m := PaperModel()
	for _, n := range []int{4, 8, 16} {
		fc, _ := m.FullyConnectedBitEnergy(n)
		xb, _ := m.CrossbarBitEnergy(n)
		bb, _ := m.BatcherBanyanBitEnergy(n)
		if fc.TotalFJ() >= xb.TotalFJ() {
			t.Errorf("N=%d: fully connected (%g) should beat crossbar (%g)", n, fc.TotalFJ(), xb.TotalFJ())
		}
		if fc.TotalFJ() >= bb.TotalFJ() {
			t.Errorf("N=%d: fully connected (%g) should beat Batcher-Banyan (%g)", n, fc.TotalFJ(), bb.TotalFJ())
		}
	}
}

// TestBanyanCheapestAtLargeN reproduces §6 observation 1's precondition:
// at 32×32 the contention-free Banyan path is the cheapest bit energy —
// buffering is what erodes its advantage as load grows.
func TestBanyanCheapestAtLargeN(t *testing.T) {
	m := PaperModel()
	n := 32
	by, _ := m.BanyanBitEnergy(n, nil)
	for _, a := range []Architecture{Crossbar, FullyConnected, BatcherBanyan} {
		other, _ := m.BitEnergy(a, n)
		if by.TotalFJ() >= other.TotalFJ() {
			t.Errorf("32×32: banyan (%g) should be cheapest, %v is %g", by.TotalFJ(), a, other.TotalFJ())
		}
	}
}

// TestBufferPenaltyDominates reproduces §5.1's "buffer penalty": a single
// buffering event costs more than the whole contention-free Banyan path.
func TestBufferPenaltyDominates(t *testing.T) {
	m := PaperModel()
	for _, n := range []int{4, 8, 16, 32} {
		free, _ := m.BanyanBitEnergy(n, nil)
		dim := 0
		for v := n; v > 1; v >>= 1 {
			dim++
		}
		eb, err := m.BanyanBufferBitEnergyFJ(dim)
		if err != nil {
			t.Fatal(err)
		}
		if eb <= free.TotalFJ() {
			t.Errorf("N=%d: one buffering (%g fJ) should exceed the free path (%g fJ)", n, eb, free.TotalFJ())
		}
	}
}

// TestBanyanBufferBitEnergyEq1 pins Eq. 1 for SRAM buffers: E_B_bit is
// Table 2's access energy for the fabric's shared SRAM (no refresh term),
// times the accesses per event, divided by the access granularity.
func TestBanyanBufferBitEnergyEq1(t *testing.T) {
	for _, m := range []Model{PaperModel(), PerWordModel()} {
		for dim := 2; dim <= 5; dim++ {
			spec, err := sram.BanyanBufferSpec(dim)
			if err != nil {
				t.Fatal(err)
			}
			want := sram.AccessEnergyFJPerBit(spec.SharedBits()) / float64(m.BufferAccessGranularityBits)
			got, err := m.BanyanBufferBitEnergyFJ(dim)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("granularity %d, dim %d: E_B = %g fJ, want %g", m.BufferAccessGranularityBits, dim, got, want)
			}
		}
	}
	if _, err := PaperModel().BanyanBufferBitEnergyFJ(0); err == nil {
		t.Error("dim 0 should fail")
	}
}

// TestBufferAccessAblation: charging write+read doubles the buffer term
// exactly.
func TestBufferAccessAblation(t *testing.T) {
	m1 := PaperModel()
	m2 := PaperModel()
	m2.BufferAccessesPerEvent = 2
	e1, err := m1.BanyanBufferBitEnergyFJ(4)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := m2.BanyanBufferBitEnergyFJ(4)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(e2, 2*e1, 1e-9) {
		t.Fatalf("write+read should double: %g vs %g", e2, e1)
	}
}

// Property: Banyan bit energy is monotone in the contention vector — more
// contended stages never cost less.
func TestBanyanContentionMonotoneProperty(t *testing.T) {
	m := PaperModel()
	f := func(mask uint8) bool {
		dim := 4
		q1 := make([]bool, dim)
		q2 := make([]bool, dim)
		for i := 0; i < dim; i++ {
			q1[i] = mask&(1<<uint(i)) != 0
			q2[i] = true // fully contended
		}
		b1, err1 := m.BanyanBitEnergy(16, q1)
		b2, err2 := m.BanyanBitEnergy(16, q2)
		if err1 != nil || err2 != nil {
			return false
		}
		return b1.TotalFJ() <= b2.TotalFJ()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: all four closed forms grow (weakly) with N.
func TestBitEnergyGrowsWithPorts(t *testing.T) {
	m := PaperModel()
	sizes := []int{4, 8, 16, 32, 64}
	for _, a := range Architectures() {
		prev := 0.0
		for _, n := range sizes {
			b, err := m.BitEnergy(a, n)
			if err != nil {
				t.Fatalf("%v N=%d: %v", a, n, err)
			}
			if b.TotalFJ() < prev {
				t.Errorf("%v: energy decreased from %g to %g at N=%d", a, prev, b.TotalFJ(), n)
			}
			prev = b.TotalFJ()
		}
	}
}
