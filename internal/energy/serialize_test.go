package energy

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestJSONRoundTripDense(t *testing.T) {
	orig := PaperBanyan()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != orig.Name() || got.Inputs() != orig.Inputs() {
		t.Fatalf("metadata: %s/%d", got.Name(), got.Inputs())
	}
	for v := Vector(0); v < 4; v++ {
		if got.EnergyFJ(v) != orig.EnergyFJ(v) {
			t.Fatalf("vector %v: %g vs %g", v, got.EnergyFJ(v), orig.EnergyFJ(v))
		}
	}
}

func TestJSONRoundTripPopcount(t *testing.T) {
	orig, err := NewPopcountLUT("mux32", 32)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 32; k++ {
		if err := orig.SetPopcount(k, 2515+float64(k)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Vector{0, 0b1, 0xFF, 1<<32 - 1} {
		if got.EnergyFJ(v) != orig.EnergyFJ(v) {
			t.Fatalf("vector %v: %g vs %g", v, got.EnergyFJ(v), orig.EnergyFJ(v))
		}
	}
}

func TestJSONRoundTripScaled(t *testing.T) {
	base := PaperBatcher()
	scaled, err := Calibrate(base, 0b01, 626.5) // halve
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, scaled); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for v := Vector(0); v < 4; v++ {
		d := got.EnergyFJ(v) - scaled.EnergyFJ(v)
		if d > 1e-9 || d < -1e-9 {
			t.Fatalf("vector %v: %g vs %g", v, got.EnergyFJ(v), scaled.EnergyFJ(v))
		}
	}
}

func TestWriteJSONRejectsNil(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err == nil {
		t.Fatal("nil table should fail")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{"name":"x","inputs":2,"kind":"alien","values_fj":[0,1,1,2]}`,
		`{"name":"x","inputs":2,"kind":"dense","values_fj":[0,1]}`,
		`{"name":"x","inputs":0,"kind":"dense","values_fj":[]}`,
		`{"name":"x","inputs":4,"kind":"popcount","values_fj":[0,1]}`,
		`{"name":"x","inputs":2,"kind":"dense","values_fj":[0,-1,1,2]}`,
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("garbage %q accepted", c)
		}
	}
}

// Property: write/read is identity on dense LUT values.
func TestJSONRoundTripProperty(t *testing.T) {
	f := func(v0, v1, v2, v3 uint16) bool {
		l, err := NewDenseLUT("prop", 2)
		if err != nil {
			return false
		}
		vals := []float64{float64(v0), float64(v1), float64(v2), float64(v3)}
		for v, fj := range vals {
			if err := l.Set(Vector(v), fj); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, l); err != nil {
			return false
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			return false
		}
		for v, fj := range vals {
			if got.EnergyFJ(Vector(v)) != fj {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
