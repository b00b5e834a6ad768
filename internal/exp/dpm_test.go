package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/dpm"
	"fabricpower/study"
)

func dpmModel() core.Model {
	m := core.PaperModel()
	m.Static = core.DefaultStaticPower()
	return m
}

// dpmStudySpec is the power-management study at one size: dpmModel in
// declarative form, policies × architectures × loads.
func dpmStudySpec(policies []string, archs []core.Architecture, ports int, loads []float64, sim study.SimSpec) study.Spec {
	return gridSpec("dpm", study.Scenario{
		Model:  study.ModelSpec{Static: true},
		Fabric: study.FabricSpec{Ports: ports},
		Sim:    sim,
	}, stringAxis("dpm", policies...), archAxis(archs...), floatAxis("load", loads...))
}

// TestAlwaysOnZeroStaticBitIdentical pins the acceptance contract: an
// AlwaysOn manager over the paper's zero-static model reproduces the
// unmanaged point bit for bit — same throughput, latency, energy
// ledger and power — with an all-zero management ledger on the side.
func TestAlwaysOnZeroStaticBitIdentical(t *testing.T) {
	for _, arch := range core.Architectures() {
		sc := study.Scenario{
			Fabric:  study.FabricSpec{Arch: arch.String(), Ports: 8},
			Traffic: study.TrafficSpec{Load: 0.3},
			Sim:     simSpec(80, 400, 7),
		}
		base, err := study.RunScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		sc.DPM = "alwayson"
		managed, err := study.RunScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		rep := managed.DPM
		if rep == nil {
			t.Fatalf("%v: managed run should carry a DPM report", arch)
		}
		if rep.StaticFJ != 0 || rep.TransitionFJ != 0 || rep.SavedFJ() != 0 || rep.StalledSlots != 0 {
			t.Fatalf("%v: zero-static AlwaysOn ledger should be zero, got %+v", arch, rep)
		}
		managed.DPM = nil
		if !reflect.DeepEqual(base, managed) {
			t.Fatalf("%v: AlwaysOn over zero static diverged from the unmanaged point:\nbase    %+v\nmanaged %+v",
				arch, base, managed)
		}
	}
}

// TestIdleGateBeatsAlwaysOnLowLoad is the headline regression: at 10%
// load on a 16×16 Banyan with the default static model, timeout gating
// must undercut the always-on total power, at the price of (bounded)
// extra latency.
func TestIdleGateBeatsAlwaysOnLowLoad(t *testing.T) {
	model := dpmModel()
	sc := study.Scenario{
		Model:   study.ModelSpec{Static: true},
		Fabric:  study.FabricSpec{Arch: "banyan", Ports: 16},
		Traffic: study.TrafficSpec{Load: 0.10},
		DPM:     "alwayson",
		Sim:     simSpec(200, 2000, 1),
	}
	always, err := study.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.DPM = "idlegate"
	gated, err := study.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := gated.Power.TotalMW(), always.Power.TotalMW(); got >= want {
		t.Fatalf("idlegate total %.4f mW should be below alwayson %.4f mW at 10%% load", got, want)
	}
	if gated.DPM.SavedFJ() <= 0 {
		t.Fatalf("idlegate should report positive net savings, got %.1f fJ", gated.DPM.SavedFJ())
	}
	if gated.DPM.GatedPortSlots == 0 {
		t.Fatal("idlegate should have gated port-slots at 10% load")
	}
	if gated.AvgLatencySlots < always.AvgLatencySlots {
		t.Fatalf("gating cannot reduce latency: %.3f vs %.3f", gated.AvgLatencySlots, always.AvgLatencySlots)
	}
	if gated.AvgLatencySlots > always.AvgLatencySlots+float64(model.Static.WakeupSlots)+1 {
		t.Fatalf("wakeup latency penalty out of bounds: %.3f vs %.3f", gated.AvgLatencySlots, always.AvgLatencySlots)
	}
}

// TestDPMStudyParallelDeterminism extends the sweep-engine guarantee to
// the power-management grid: managers, policies and ledgers are built
// per point, so fanning the grid across workers must be bit-identical
// to the sequential run.
func TestDPMStudyParallelDeterminism(t *testing.T) {
	archs := []core.Architecture{core.Crossbar, core.Banyan}
	loads := []float64{0.1, 0.4}
	run := func(workers int) *DPMStudy {
		t.Helper()
		return runReport[*DPMStudy](t, dpmStudySpec(dpm.PolicyNames(), archs, 8, loads, simSpec(60, 300, 11)), workers)
	}
	seq := run(1)
	for _, workers := range []int{0, 8} {
		if par := run(workers); !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d study differs from sequential run", workers)
		}
	}
}

// TestDPMStudyRenderAndCSV smoke-tests the reporting paths.
func TestDPMStudyRenderAndCSV(t *testing.T) {
	s := runReport[*DPMStudy](t, dpmStudySpec([]string{"alwayson", "idlegate"},
		[]core.Architecture{core.Banyan}, 8, []float64{0.1}, simSpec(50, 200, 3)), 1)
	var buf bytes.Buffer
	if err := s.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Power management — banyan 8×8", "idlegate", "saved_mW"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	if err := s.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1+len(s.Points) {
		t.Fatalf("CSV should have header + %d rows, got %d lines", len(s.Points), lines)
	}
	if _, ok := s.Point("idlegate", core.Banyan, 0.1); !ok {
		t.Fatal("Point lookup failed")
	}
}

// TestDPMStudySkipsInfeasibleBatcher mirrors the figure runners' grid
// filtering.
func TestDPMStudySkipsInfeasibleBatcher(t *testing.T) {
	s := runReport[*DPMStudy](t, dpmStudySpec([]string{"alwayson"},
		[]core.Architecture{core.BatcherBanyan}, 2, []float64{0.2}, simSpec(20, 50, 1)), 1)
	if len(s.Points) != 0 {
		t.Fatalf("2-port Batcher-Banyan points should be filtered, got %d", len(s.Points))
	}
}
