package fabricpower

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"fabricpower/internal/exp"
	"fabricpower/study"
)

func TestArchitectureNames(t *testing.T) {
	want := map[Architecture]string{
		Crossbar:       "crossbar",
		FullyConnected: "fullyconnected",
		Banyan:         "banyan",
		BatcherBanyan:  "batcherbanyan",
	}
	for a, name := range want {
		if a.String() != name {
			t.Errorf("%d: %q, want %q", int(a), a.String(), name)
		}
	}
	if len(Architectures()) != 4 {
		t.Fatal("four architectures")
	}
}

func TestAnalyticMatchesPaperConstants(t *testing.T) {
	// Crossbar Eq. 3 at N=16 with the paper's constants:
	// 16·220 + 8·16·87.12 = 3520 + 11151.4 fJ.
	b, err := Analytic(Crossbar, 16, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.SwitchFJ-3520) > 1e-9 {
		t.Fatalf("switch %g", b.SwitchFJ)
	}
	if math.Abs(b.WireFJ-8*16*87.12) > 1 {
		t.Fatalf("wire %g", b.WireFJ)
	}
	if b.TotalFJ() != b.SwitchFJ+b.BufferFJ+b.WireFJ {
		t.Fatal("total")
	}
}

func TestAnalyticErrors(t *testing.T) {
	if _, err := Analytic(Banyan, 6, DefaultModel()); err == nil {
		t.Fatal("non-power-of-two should fail")
	}
	if _, err := Analytic(BatcherBanyan, 2, DefaultModel()); err == nil {
		t.Fatal("N=2 batcher should fail")
	}
}

func TestSimulateQuickstartScenario(t *testing.T) {
	rep, err := Simulate(Options{
		Architecture: Banyan,
		Ports:        16,
		OfferedLoad:  0.3,
		MeasureSlots: 1200,
		WarmupSlots:  150,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Throughput-0.3) > 0.04 {
		t.Fatalf("throughput %g, want ≈0.3", rep.Throughput)
	}
	if rep.Power.TotalMW() <= 0 || rep.EnergyPerBitFJ <= 0 {
		t.Fatal("power and energy per bit must be positive")
	}
	if rep.BufferEvents == 0 {
		t.Fatal("a loaded banyan should buffer")
	}
	if rep.Power.BufferMW <= 0 {
		t.Fatal("buffer power should follow events")
	}
}

func TestSimulateContentionFreeFabric(t *testing.T) {
	rep, err := Simulate(Options{
		Architecture: Crossbar,
		Ports:        8,
		OfferedLoad:  0.4,
		MeasureSlots: 800,
		WarmupSlots:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Power.BufferMW != 0 || rep.BufferEvents != 0 {
		t.Fatal("crossbar must not buffer")
	}
}

func TestSimulateRejectsBadOptions(t *testing.T) {
	if _, err := Simulate(Options{Architecture: Banyan, Ports: 5, OfferedLoad: 0.3}); err == nil {
		t.Fatal("bad ports should fail")
	}
	if _, err := Simulate(Options{Architecture: Crossbar, Ports: 8, OfferedLoad: 2}); err == nil {
		t.Fatal("bad load should fail")
	}
	if _, err := Simulate(Options{Architecture: Crossbar, Ports: 8, OfferedLoad: 0.5, Traffic: TrafficKind(9)}); err == nil {
		t.Fatal("bad traffic kind should fail")
	}
}

func TestSimulateTrafficKinds(t *testing.T) {
	for _, k := range []TrafficKind{UniformTraffic, BurstyTraffic, HotspotTraffic} {
		rep, err := Simulate(Options{
			Architecture: FullyConnected,
			Ports:        8,
			OfferedLoad:  0.3,
			Traffic:      k,
			MeasureSlots: 600,
			WarmupSlots:  100,
		})
		if err != nil {
			t.Fatalf("kind %d: %v", int(k), err)
		}
		if rep.Power.TotalMW() <= 0 {
			t.Fatalf("kind %d: no power", int(k))
		}
	}
}

func TestSimulateVOQOption(t *testing.T) {
	rep, err := Simulate(Options{
		Architecture: Crossbar,
		Ports:        8,
		OfferedLoad:  1.0,
		UseVOQ:       true,
		MeasureSlots: 1200,
		WarmupSlots:  300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput < 0.8 {
		t.Fatalf("VOQ at full load should exceed the FIFO ceiling, got %g", rep.Throughput)
	}
}

// TestOptionsExplicitZeros pins the unset-vs-zero escape hatches: the
// zero value of each trapped field leaves the scenario default in
// place, and the matching bool writes the zero as a literal.
func TestOptionsExplicitZeros(t *testing.T) {
	d, err := Options{}.scenario()
	if err != nil {
		t.Fatal(err)
	}
	if d.Sim.WarmupSlots != nil || d.Sim.Seed != 1 || d.Traffic.HotspotFraction != nil {
		t.Fatalf("defaults: %+v", d)
	}
	e, err := Options{NoWarmup: true, ZeroSeed: true, ZeroHotspotFraction: true}.scenario()
	if err != nil {
		t.Fatal(err)
	}
	if e.Sim.WarmupSlots == nil || *e.Sim.WarmupSlots != 0 {
		t.Fatalf("NoWarmup should write a literal zero warmup, got %v", e.Sim.WarmupSlots)
	}
	if e.Sim.Seed != 0 {
		t.Fatalf("ZeroSeed should keep Seed at 0, got %d", e.Sim.Seed)
	}
	if e.Traffic.HotspotFraction == nil || *e.Traffic.HotspotFraction != 0 {
		t.Fatalf("ZeroHotspotFraction should write a literal zero fraction, got %v", e.Traffic.HotspotFraction)
	}
	// A zero-fraction hotspot is a uniform source: it must run and
	// deliver (the old defaulting silently rewrote it to 0.3).
	rep, err := Simulate(Options{
		Architecture: Crossbar, Ports: 8, OfferedLoad: 0.3,
		Traffic: HotspotTraffic, ZeroHotspotFraction: true,
		MeasureSlots: 400, WarmupSlots: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput <= 0 {
		t.Fatal("zero-fraction hotspot should still carry traffic")
	}
	// NoWarmup measures from slot 0: cold queues lower early throughput
	// relative to the same run with warmup, and the run must not apply
	// the 300-slot default silently.
	cold, err := Simulate(Options{
		Architecture: Crossbar, Ports: 8, OfferedLoad: 0.3,
		NoWarmup: true, MeasureSlots: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Power.TotalMW() <= 0 {
		t.Fatal("cold-start run should still measure")
	}
}

// TestSimulateMatchesRunScenario pins Simulate as a thin wrapper over
// study.RunScenario: the quickstart options measure exactly what the
// embedded simulate study measures, and every Options mapping runs the
// scenario written out by hand.
func TestSimulateMatchesRunScenario(t *testing.T) {
	raw, ok := exp.PaperSpec("simulate")
	if !ok {
		t.Fatal("embedded simulate study missing")
	}
	spec, err := study.DecodeSpec(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want, err := study.RunScenario(spec.Base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Simulate(Options{Architecture: Banyan, Ports: 16, OfferedLoad: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Simulate diverged from the simulate study:\ngot  %+v\nwant %+v", got, want)
	}

	u64 := func(v uint64) *uint64 { return &v }
	f64 := func(v float64) *float64 { return &v }
	static := DefaultModel().WithStaticPower()
	perWord := PerWordBufferModel()
	shrunk, err := DefaultModel().WithTechScaling(0.72, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	window := study.SimSpec{WarmupSlots: u64(50), MeasureSlots: 300, Seed: 1}
	cases := []struct {
		name string
		opt  Options
		sc   study.Scenario
	}{
		{"bursty",
			Options{Architecture: Banyan, Ports: 8, OfferedLoad: 0.3, Traffic: BurstyTraffic, MeanBurstSlots: 5,
				WarmupSlots: 50, MeasureSlots: 300},
			study.Scenario{Fabric: study.FabricSpec{Arch: "banyan", Ports: 8},
				Traffic: study.TrafficSpec{Kind: "bursty", Load: 0.3, MeanBurstSlots: 5}, Sim: window}},
		{"hotspot-zero-fraction",
			Options{Architecture: Crossbar, Ports: 8, OfferedLoad: 0.4, Traffic: HotspotTraffic, HotspotPort: 3,
				ZeroHotspotFraction: true, WarmupSlots: 50, MeasureSlots: 300},
			study.Scenario{Fabric: study.FabricSpec{Arch: "crossbar", Ports: 8},
				Traffic: study.TrafficSpec{Kind: "hotspot", Load: 0.4, HotspotPort: 3, HotspotFraction: f64(0)}, Sim: window}},
		{"voq",
			Options{Architecture: Crossbar, Ports: 8, OfferedLoad: 0.9, UseVOQ: true, WarmupSlots: 50, MeasureSlots: 300},
			study.Scenario{Fabric: study.FabricSpec{Arch: "crossbar", Ports: 8},
				Traffic: study.TrafficSpec{Load: 0.9}, Queue: "voq", Sim: window}},
		{"idlegate-static",
			Options{Architecture: Banyan, Ports: 8, OfferedLoad: 0.1, DPM: "idlegate", Model: &static,
				WarmupSlots: 50, MeasureSlots: 300},
			study.Scenario{Model: study.ModelSpec{Static: true}, Fabric: study.FabricSpec{Arch: "banyan", Ports: 8},
				Traffic: study.TrafficSpec{Load: 0.1}, DPM: "idlegate", Sim: window}},
		{"per-word-buffers",
			Options{Architecture: Banyan, Ports: 8, OfferedLoad: 0.5, Model: &perWord, WarmupSlots: 50, MeasureSlots: 300},
			study.Scenario{Model: study.PerWordModel(), Fabric: study.FabricSpec{Arch: "banyan", Ports: 8},
				Traffic: study.TrafficSpec{Load: 0.5}, Sim: window}},
		{"tech-scaling",
			Options{Architecture: FullyConnected, Ports: 8, OfferedLoad: 0.3, Model: &shrunk, WarmupSlots: 50, MeasureSlots: 300},
			study.Scenario{Model: study.ModelSpec{TechScale: &study.TechScale{S: 0.72, SV: 0.55}},
				Fabric: study.FabricSpec{Arch: "fullyconnected", Ports: 8}, Traffic: study.TrafficSpec{Load: 0.3}, Sim: window}},
		{"no-warmup",
			Options{Architecture: Crossbar, Ports: 8, OfferedLoad: 0.3, NoWarmup: true, MeasureSlots: 300},
			study.Scenario{Fabric: study.FabricSpec{Arch: "crossbar", Ports: 8}, Traffic: study.TrafficSpec{Load: 0.3},
				Sim: study.SimSpec{WarmupSlots: u64(0), MeasureSlots: 300, Seed: 1}}},
		{"zero-seed",
			Options{Architecture: Crossbar, Ports: 8, OfferedLoad: 0.3, ZeroSeed: true, WarmupSlots: 50, MeasureSlots: 300},
			study.Scenario{Fabric: study.FabricSpec{Arch: "crossbar", Ports: 8}, Traffic: study.TrafficSpec{Load: 0.3},
				Sim: study.SimSpec{WarmupSlots: u64(50), MeasureSlots: 300}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Simulate(tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := study.RunScenario(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Options mapping diverged from the hand-written scenario:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
	t.Run("bad-traffic-kind", func(t *testing.T) {
		if _, err := Simulate(Options{Architecture: Crossbar, Ports: 8, OfferedLoad: 0.3, Traffic: TrafficKind(9)}); err == nil {
			t.Fatal("an unknown traffic kind should fail")
		}
	})
}

// TestSimulateDPMReport pins the public DPM surface: a managed run over
// a static model reports StaticMW and the policy ledger, and idle
// gating at low load undercuts the always-on total.
func TestSimulateDPMReport(t *testing.T) {
	model := DefaultModel().WithStaticPower()
	base := Options{
		Architecture: Banyan, Ports: 16, OfferedLoad: 0.1,
		MeasureSlots: 1500, WarmupSlots: 200, Model: &model,
	}
	always := base
	always.DPM = "alwayson"
	alwaysRep, err := Simulate(always)
	if err != nil {
		t.Fatal(err)
	}
	if alwaysRep.Power.StaticMW <= 0 {
		t.Fatal("static model + manager should report StaticMW")
	}
	if alwaysRep.DPM == nil || alwaysRep.DPM.Policy != "alwayson" {
		t.Fatalf("managed run should carry the policy ledger, got %+v", alwaysRep.DPM)
	}
	if alwaysRep.Power.TotalMW() <= alwaysRep.Power.SwitchMW+alwaysRep.Power.BufferMW+alwaysRep.Power.WireMW {
		t.Fatal("TotalMW must include StaticMW")
	}
	gated := base
	gated.DPM = "idlegate"
	gatedRep, err := Simulate(gated)
	if err != nil {
		t.Fatal(err)
	}
	if gatedRep.DPM.GatedPortSlots == 0 {
		t.Fatal("idlegate at 10% load should gate port-slots")
	}
	if gatedRep.DPM.SavedFJ() <= 0 {
		t.Fatal("idlegate should report positive net savings")
	}
	if gatedRep.Power.TotalMW() >= alwaysRep.Power.TotalMW() {
		t.Fatalf("idlegate total %.4f mW should undercut alwayson %.4f mW",
			gatedRep.Power.TotalMW(), alwaysRep.Power.TotalMW())
	}
	// Unmanaged runs must stay ledger-free with zero static power.
	plain, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	if plain.DPM != nil || plain.Power.StaticMW != 0 {
		t.Fatalf("unmanaged run should have no DPM ledger, got %+v", plain)
	}
	if _, err := Simulate(func() Options { o := base; o.DPM = "perpetualmotion"; return o }()); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

func TestModelDerivations(t *testing.T) {
	m, err := DefaultModel().WithTechScaling(0.72, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	// Scaled-down tech must lower analytic energy.
	base, _ := Analytic(Crossbar, 8, DefaultModel())
	scaled, _ := Analytic(Crossbar, 8, m)
	if scaled.WireFJ >= base.WireFJ {
		t.Fatal("scaling down should reduce wire energy")
	}
	if _, err := DefaultModel().WithTechScaling(0, 1); err == nil {
		t.Fatal("bad scaling should fail")
	}
	m2, err := DefaultModel().WithBufferAccesses(2)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := Analytic(Banyan, 16, DefaultModel())
	b2, _ := Analytic(Banyan, 16, m2)
	// Contention-free path has no buffer term, so totals match.
	if b1.TotalFJ() != b2.TotalFJ() {
		t.Fatal("buffer accounting should not change the free path")
	}
	if _, err := DefaultModel().WithBufferAccesses(5); err == nil {
		t.Fatal("5 accesses should fail")
	}
}

func TestPerWordBufferModelSoftensPenalty(t *testing.T) {
	perBit, err := Simulate(Options{
		Architecture: Banyan, Ports: 16, OfferedLoad: 0.5,
		MeasureSlots: 1000, WarmupSlots: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := PerWordBufferModel()
	perWord, err := Simulate(Options{
		Architecture: Banyan, Ports: 16, OfferedLoad: 0.5,
		MeasureSlots: 1000, WarmupSlots: 150, Model: &m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if perWord.Power.BufferMW >= perBit.Power.BufferMW/16 {
		t.Fatalf("per-word buffer power (%g) should be ~32x below per-bit (%g)",
			perWord.Power.BufferMW, perBit.Power.BufferMW)
	}
}

// TestSimulateAgainstAnalytic: at low load on a contention-free fabric the
// measured energy per bit approaches the analytic worst case scaled by the
// ~50% flip activity of random payloads.
func TestSimulateAgainstAnalytic(t *testing.T) {
	rep, err := Simulate(Options{
		Architecture: BatcherBanyan,
		Ports:        16,
		OfferedLoad:  0.1,
		MeasureSlots: 1000,
		WarmupSlots:  150,
	})
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := Analytic(BatcherBanyan, 16, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	// Measured must be below the worst case but the same order of
	// magnitude (wire flips halve; switch LUTs match).
	if rep.EnergyPerBitFJ >= analytic.TotalFJ() {
		t.Fatalf("measured %g fJ should sit below the analytic worst case %g fJ",
			rep.EnergyPerBitFJ, analytic.TotalFJ())
	}
	if rep.EnergyPerBitFJ < 0.3*analytic.TotalFJ() {
		t.Fatalf("measured %g fJ implausibly far below analytic %g fJ",
			rep.EnergyPerBitFJ, analytic.TotalFJ())
	}
}
