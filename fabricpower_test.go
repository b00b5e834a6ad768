package fabricpower

import (
	"math"
	"testing"

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
	b, err := Analytic(Crossbar, 16, study.PaperModel())
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
	if _, err := Analytic(Banyan, 6, study.PaperModel()); err == nil {
		t.Fatal("non-power-of-two should fail")
	}
	if _, err := Analytic(BatcherBanyan, 2, study.PaperModel()); err == nil {
		t.Fatal("N=2 batcher should fail")
	}
}

// point is the single-router scenario of one operating point on seed 1
// with a short warm-up and measured window.
func point(arch Architecture, ports int, load float64, warmup, measure uint64) study.Scenario {
	return study.Scenario{
		Fabric:  study.FabricSpec{Arch: arch.String(), Ports: ports},
		Traffic: study.TrafficSpec{Load: load},
		Sim:     study.SimSpec{WarmupSlots: &warmup, MeasureSlots: measure, Seed: 1},
	}
}

func TestSimulateQuickstartScenario(t *testing.T) {
	rep, err := study.RunScenario(point(Banyan, 16, 0.3, 150, 1200))
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
	rep, err := study.RunScenario(point(Crossbar, 8, 0.4, 100, 800))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Power.BufferMW != 0 || rep.BufferEvents != 0 {
		t.Fatal("crossbar must not buffer")
	}
}

func TestSimulateRejectsBadOptions(t *testing.T) {
	if _, err := study.RunScenario(point(Banyan, 5, 0.3, 0, 100)); err == nil {
		t.Fatal("bad ports should fail")
	}
	if _, err := study.RunScenario(point(Crossbar, 8, 2, 0, 100)); err == nil {
		t.Fatal("bad load should fail")
	}
}

func TestSimulateTrafficKinds(t *testing.T) {
	for _, kind := range []string{"uniform", "bursty", "hotspot"} {
		sc := point(FullyConnected, 8, 0.3, 100, 600)
		sc.Traffic.Kind = kind
		rep, err := study.RunScenario(sc)
		if err != nil {
			t.Fatalf("kind %s: %v", kind, err)
		}
		if rep.Power.TotalMW() <= 0 {
			t.Fatalf("kind %s: no power", kind)
		}
	}
}

// TestOptionsExplicitZeros pins the unset-vs-zero fields of a point:
// an unset warmupSlots or hotspotFraction resolves to its default, an
// explicit zero (and a zero seed) stays a literal zero, and the zeros
// run.
func TestOptionsExplicitZeros(t *testing.T) {
	d := study.Scenario{}.Resolved()
	if d.Sim.WarmupSlots == nil || *d.Sim.WarmupSlots != 300 ||
		d.Traffic.HotspotFraction == nil || *d.Traffic.HotspotFraction != 0.3 {
		t.Fatalf("defaults: %+v", d)
	}
	warmup, fraction := uint64(0), 0.0
	e := study.Scenario{
		Traffic: study.TrafficSpec{HotspotFraction: &fraction},
		Sim:     study.SimSpec{WarmupSlots: &warmup},
	}.Resolved()
	if e.Sim.WarmupSlots == nil || *e.Sim.WarmupSlots != 0 {
		t.Fatalf("a zero warmup should stay a literal zero, got %v", e.Sim.WarmupSlots)
	}
	if e.Sim.Seed != 0 {
		t.Fatalf("a zero seed should stay 0, got %d", e.Sim.Seed)
	}
	if e.Traffic.HotspotFraction == nil || *e.Traffic.HotspotFraction != 0 {
		t.Fatalf("a zero hotspot fraction should stay a literal zero, got %v", e.Traffic.HotspotFraction)
	}
	// A zero-fraction hotspot is a uniform source: it must run and
	// deliver, not fall back to the 0.3 default.
	hot := point(Crossbar, 8, 0.3, 50, 400)
	hot.Traffic.Kind = "hotspot"
	hot.Traffic.HotspotFraction = &fraction
	rep, err := study.RunScenario(hot)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput <= 0 {
		t.Fatal("zero-fraction hotspot should still carry traffic")
	}
	// A zero warmup measures from slot 0 and must still measure.
	cold, err := study.RunScenario(point(Crossbar, 8, 0.3, 0, 400))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Power.TotalMW() <= 0 {
		t.Fatal("cold-start run should still measure")
	}
}

func TestSimulateVOQOption(t *testing.T) {
	sc := point(Crossbar, 8, 1.0, 300, 1200)
	sc.Queue = "voq"
	rep, err := study.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput < 0.8 {
		t.Fatalf("VOQ at full load should exceed the FIFO ceiling, got %g", rep.Throughput)
	}
}

// TestSimulateDPMReport pins the DPM surface of a result: a managed run
// over a static model reports StaticMW and the policy ledger, and idle
// gating at low load undercuts the always-on total.
func TestSimulateDPMReport(t *testing.T) {
	base := point(Banyan, 16, 0.1, 200, 1500)
	base.Model = study.ModelSpec{Static: true}
	run := func(policy string) (study.Result, error) {
		sc := base
		sc.DPM = policy
		return study.RunScenario(sc)
	}
	alwaysRep, err := run("alwayson")
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
	gatedRep, err := run("idlegate")
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
	plain, err := run("")
	if err != nil {
		t.Fatal(err)
	}
	if plain.DPM != nil || plain.Power.StaticMW != 0 {
		t.Fatalf("unmanaged run should have no DPM ledger, got %+v", plain)
	}
	if _, err := run("perpetualmotion"); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

func TestModelDerivations(t *testing.T) {
	// Scaled-down tech must lower analytic energy.
	base, err := Analytic(Crossbar, 8, study.PaperModel())
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := Analytic(Crossbar, 8, study.ModelSpec{TechScale: &study.TechScale{S: 0.72, SV: 0.55}})
	if err != nil {
		t.Fatal(err)
	}
	if scaled.WireFJ >= base.WireFJ {
		t.Fatal("scaling down should reduce wire energy")
	}
	if _, err := Analytic(Crossbar, 8, study.ModelSpec{TechScale: &study.TechScale{S: 0, SV: 1}}); err == nil {
		t.Fatal("bad scaling should fail")
	}
	b1, err := Analytic(Banyan, 16, study.PaperModel())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Analytic(Banyan, 16, study.ModelSpec{BufferAccesses: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Contention-free path has no buffer term, so totals match.
	if b1.TotalFJ() != b2.TotalFJ() {
		t.Fatal("buffer accounting should not change the free path")
	}
	if _, err := Analytic(Banyan, 16, study.ModelSpec{BufferAccesses: 5}); err == nil {
		t.Fatal("5 accesses should fail")
	}
}

func TestPerWordBufferModelSoftensPenalty(t *testing.T) {
	sc := point(Banyan, 16, 0.5, 150, 1000)
	perBit, err := study.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Model = study.PerWordModel()
	perWord, err := study.RunScenario(sc)
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
	rep, err := study.RunScenario(point(BatcherBanyan, 16, 0.1, 150, 1000))
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := Analytic(BatcherBanyan, 16, study.PaperModel())
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
