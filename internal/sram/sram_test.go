package sram

import (
	"math"
	"testing"
	"testing/quick"
)

// TestTable2Reproduction is the headline check: the calibration must
// reproduce the paper's Table 2 within 2%.
func TestTable2Reproduction(t *testing.T) {
	want := []Table2Row{
		{Ports: 4, Switches: 4, SharedKbit: 16, BitEnergyPJ: 140},
		{Ports: 8, Switches: 12, SharedKbit: 48, BitEnergyPJ: 140},
		{Ports: 16, Switches: 32, SharedKbit: 128, BitEnergyPJ: 154},
		{Ports: 32, Switches: 80, SharedKbit: 320, BitEnergyPJ: 222},
	}
	rows, err := Table2([]int{2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("row count %d, want %d", len(rows), len(want))
	}
	for i, w := range want {
		g := rows[i]
		if g.Ports != w.Ports || g.Switches != w.Switches || g.SharedKbit != w.SharedKbit {
			t.Errorf("row %d structure: got %+v, want %+v", i, g, w)
		}
		if rel := math.Abs(g.BitEnergyPJ-w.BitEnergyPJ) / w.BitEnergyPJ; rel > 0.02 {
			t.Errorf("row %d energy: got %.1f pJ, want %.1f pJ (rel err %.3f)", i, g.BitEnergyPJ, w.BitEnergyPJ, rel)
		}
	}
}

func TestAccessModelFloor(t *testing.T) {
	small := AccessEnergyFJPerBit(1024)
	if small != floorFJ {
		t.Fatalf("tiny SRAM should hit the peripheral floor: %g vs %g", small, floorFJ)
	}
	if AccessEnergyFJPerBit(0) != 0 || AccessEnergyFJPerBit(-5) != 0 {
		t.Fatal("non-positive capacity should be 0")
	}
}

func TestAccessModelMonotone(t *testing.T) {
	prev := 0.0
	for _, kb := range []int{16, 48, 128, 320, 640, 1280} {
		e := AccessEnergyFJPerBit(kb * 1024)
		if e < prev {
			t.Fatalf("access energy must be non-decreasing with size: %g after %g at %d Kbit", e, prev, kb)
		}
		prev = e
	}
}

func TestBanyanBufferSpec(t *testing.T) {
	for _, tc := range []struct {
		dim, switches int
	}{{2, 4}, {3, 12}, {4, 32}, {5, 80}} {
		spec, err := BanyanBufferSpec(tc.dim)
		if err != nil {
			t.Fatal(err)
		}
		if spec.NumNodes != tc.switches {
			t.Errorf("dim %d: %d switches, want %d", tc.dim, spec.NumNodes, tc.switches)
		}
		if spec.SharedBits() != tc.switches*4096 {
			t.Errorf("dim %d: shared bits %d", tc.dim, spec.SharedBits())
		}
	}
	if _, err := BanyanBufferSpec(0); err == nil {
		t.Error("dim 0 should fail")
	}
}

func TestTable2RejectsInvalidSizes(t *testing.T) {
	if _, err := Table2([]int{0}); err == nil {
		t.Fatal("invalid dim should fail")
	}
}

// Property: buffer penalty — any Table 2-scale buffer access dwarfs the
// per-grid wire energy (87 fJ); the paper's §5.1 observation that drives
// the Banyan results.
func TestBufferPenaltyProperty(t *testing.T) {
	f := func(kb uint16) bool {
		bits := (int(kb%1024) + 1) * 1024
		return AccessEnergyFJPerBit(bits) > 100*87.12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: access energy is within 1% of max(floor, base+slope·kbit) for
// any size — guards against regressions in the piecewise form.
func TestAccessModelPiecewiseProperty(t *testing.T) {
	f := func(kb uint16) bool {
		bits := int(kb)*64 + 1
		want := math.Max(floorFJ, baseFJ+slopeFJPerKbit*float64(bits)/1024.0)
		got := AccessEnergyFJPerBit(bits)
		return math.Abs(got-want) <= 1e-9*want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
