package energy

import (
	"math"
	"testing"

	"fabricpower/internal/circuits"
	"fabricpower/internal/gates"
)

func TestVectorPopcountAndString(t *testing.T) {
	if Vector(0b1011).Popcount() != 3 {
		t.Fatal("popcount")
	}
	if Vector(0).Popcount() != 0 {
		t.Fatal("popcount zero")
	}
	if Vector(0b10).String() != "10" {
		t.Fatalf("string = %q", Vector(0b10).String())
	}
}

func TestDenseLUTBasics(t *testing.T) {
	l, err := NewDenseLUT(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Set(0b11, 100); err != nil {
		t.Fatal(err)
	}
	if l.EnergyFJ(0b11) != 100 || l.EnergyFJ(0b01) != 0 {
		t.Fatal("get")
	}
	if err := l.Set(0b100, 1); err == nil {
		t.Fatal("out-of-range vector should fail")
	}
	if err := l.Set(0b01, -5); err == nil {
		t.Fatal("negative energy should fail")
	}
	if l.EnergyFJ(Vector(1<<20)) != 0 {
		t.Fatal("out-of-range read should be 0")
	}
}

func TestDenseLUTRejectsBadSizes(t *testing.T) {
	if _, err := NewDenseLUT(0); err == nil {
		t.Fatal("0 inputs should fail")
	}
	if _, err := NewDenseLUT(17); err == nil {
		t.Fatal("17 inputs should fail (dense cap)")
	}
}

func TestPopcountLUTBasics(t *testing.T) {
	l, err := NewPopcountLUT(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetPopcount(3, 50); err != nil {
		t.Fatal(err)
	}
	if l.EnergyFJ(0b00000111) != 50 {
		t.Fatal("popcount lookup")
	}
	if l.EnergyFJ(0b10100001) != 50 {
		t.Fatal("any 3-hot vector should match")
	}
	if err := l.SetPopcount(9, 1); err == nil {
		t.Fatal("popcount > inputs should fail")
	}
	if err := l.SetPopcount(-1, 1); err == nil {
		t.Fatal("negative popcount should fail")
	}
	if err := l.SetPopcount(2, -1); err == nil {
		t.Fatal("negative energy should fail")
	}
}

func TestPaperTable1Values(t *testing.T) {
	if PaperCrosspointFJ(0b0) != 0 || PaperCrosspointFJ(0b1) != 220 {
		t.Fatalf("crosspoint: %g/%g", PaperCrosspointFJ(0), PaperCrosspointFJ(1))
	}
	if PaperBanyanFJ(0b00) != 0 || PaperBanyanFJ(0b01) != 1080 ||
		PaperBanyanFJ(0b10) != 1080 || PaperBanyanFJ(0b11) != 1821 {
		t.Fatal("banyan values do not match Table 1")
	}
	if PaperBatcherFJ(0b00) != 0 || PaperBatcherFJ(0b01) != 1253 ||
		PaperBatcherFJ(0b10) != 1253 || PaperBatcherFJ(0b11) != 2025 {
		t.Fatal("batcher values do not match Table 1")
	}
	for n, want := range map[int]float64{4: 431, 8: 782, 16: 1350, 32: 2515} {
		got, err := PaperMuxEnergyFJ(n)
		if err != nil || got != want {
			t.Fatalf("mux%d = %g (%v), want %g", n, got, err, want)
		}
	}
}

// TestPaperConcurrencyDiscount verifies the §3.1 observation encoded in
// Table 1: processing two packets costs more than one but less than two.
func TestPaperConcurrencyDiscount(t *testing.T) {
	for name, lut := range map[string]func(Vector) float64{"banyan": PaperBanyanFJ, "batcher": PaperBatcherFJ} {
		one := lut(0b01)
		two := lut(0b11)
		if !(two > one && two < 2*one) {
			t.Errorf("%s: E[11]=%g not in (E[01]=%g, 2·E[01]=%g)", name, two, one, 2*one)
		}
	}
}

func TestPaperMuxExtrapolation(t *testing.T) {
	e64, err := PaperMuxEnergyFJ(64)
	if err != nil {
		t.Fatal(err)
	}
	e32, _ := PaperMuxEnergyFJ(32)
	// Growth per doubling is ~1.8; extrapolated 64 must continue it.
	if r := e64 / e32; r < 1.5 || r > 2.2 {
		t.Fatalf("mux64/mux32 ratio %g outside [1.5, 2.2]", r)
	}
	if _, err := PaperMuxEnergyFJ(1); err == nil {
		t.Fatal("mux of 1 input should fail")
	}
}

func TestPaperMuxTable(t *testing.T) {
	for n, want := range map[int]float64{4: 431, 8: 782, 16: 1350, 32: 2515} {
		got, err := PaperMuxEnergyFJ(n)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("mux%d = %g fJ, want Table 1's %g", n, got, want)
		}
	}
}

func charLib(t *testing.T) *gates.Library {
	t.Helper()
	lib, err := gates.NewLibrary(2.0, 3.3)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestCharacterizeBanyanShape(t *testing.T) {
	sw, err := circuits.BanyanSwitch(charLib(t), 16)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Characterize(sw, CharOptions{Cycles: 128, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	e00 := tab.EnergyFJ(0b00)
	e01 := tab.EnergyFJ(0b01)
	e10 := tab.EnergyFJ(0b10)
	e11 := tab.EnergyFJ(0b11)
	if e00 != 0 {
		t.Errorf("idle vector must be 0, got %g", e00)
	}
	if e01 <= 0 || e10 <= 0 {
		t.Fatalf("single-packet energies must be positive: %g, %g", e01, e10)
	}
	// Table 1 shape: two packets cost more than one, less than two.
	if !(e11 > e01 && e11 < 2*math.Max(e01, e10)) {
		t.Errorf("concurrency discount violated: e01=%g e10=%g e11=%g", e01, e10, e11)
	}
	// Symmetric circuit: the two single-input energies should be close.
	if ratio := e01 / e10; ratio < 0.7 || ratio > 1.4 {
		t.Errorf("single-input energies should be similar: %g vs %g", e01, e10)
	}
}

func TestCharacterizeCrosspoint(t *testing.T) {
	sw, err := circuits.Crosspoint(charLib(t), 16)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Characterize(sw, CharOptions{Cycles: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tab.EnergyFJ(0b0) != 0 {
		t.Error("idle crosspoint must be 0")
	}
	if tab.EnergyFJ(0b1) <= 0 {
		t.Error("active crosspoint must be positive")
	}
}

// TestCharacterizeOrderingMatchesTable1 checks the relative ordering the
// paper's Table 1 exhibits: crosspoint < banyan < batcher per bit.
func TestCharacterizeOrderingMatchesTable1(t *testing.T) {
	lib := charLib(t)
	xp, err := circuits.Crosspoint(lib, 16)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := circuits.BanyanSwitch(lib, 16)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := circuits.BatcherSwitch(lib, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	opt := CharOptions{Cycles: 128, Seed: 5}
	txp, err := Characterize(xp, opt)
	if err != nil {
		t.Fatal(err)
	}
	tbn, err := Characterize(bn, opt)
	if err != nil {
		t.Fatal(err)
	}
	tbt, err := Characterize(bt, opt)
	if err != nil {
		t.Fatal(err)
	}
	exp := txp.EnergyFJ(0b1)
	ebn := tbn.EnergyFJ(0b01)
	ebt := tbt.EnergyFJ(0b01)
	if !(exp < ebn && ebn < ebt) {
		t.Fatalf("ordering crosspoint(%g) < banyan(%g) < batcher(%g) violated", exp, ebn, ebt)
	}
}

func TestCharacterizeMuxPopcountTable(t *testing.T) {
	sw, err := circuits.MuxN(charLib(t), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Characterize(sw, CharOptions{Cycles: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.(*PopcountLUT); !ok {
		t.Fatalf("8-input switch should characterize per popcount, got %T", tab)
	}
	if tab.EnergyFJ(0) != 0 {
		t.Error("idle mux must be 0")
	}
	if tab.EnergyFJ(0b11111111) <= 0 {
		t.Error("full mux must be positive")
	}
}

func TestCharacterizeDeterminism(t *testing.T) {
	sw, err := circuits.BanyanSwitch(charLib(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := Characterize(sw, CharOptions{Cycles: 64, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Characterize(sw, CharOptions{Cycles: 64, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for v := Vector(0); v < 4; v++ {
		if t1.EnergyFJ(v) != t2.EnergyFJ(v) {
			t.Fatalf("vector %v: %g != %g", v, t1.EnergyFJ(v), t2.EnergyFJ(v))
		}
	}
}
