package sim

import (
	"math"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/dpm"
	"fabricpower/internal/fabric"
	"fabricpower/internal/packet"
	"fabricpower/internal/router"
)

// TestTelemetrySampleLedger checks that a managed run's samples sum to
// its result: with zero warmup the samples cover exactly the measured
// window, so their power times duration adds up to the dynamic plus
// static and transition energy, and their DPM counters and drops add
// up to the DPM report and the dropped cells.
func TestTelemetrySampleLedger(t *testing.T) {
	const ports, slots, every = 8, 1000, 64
	model := core.PaperModel()
	model.Static = core.DefaultStaticPower()
	cell := packet.Config{CellBits: 1024, BusWidth: 32}
	pol, err := dpm.NewPolicy("composite")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := dpm.New(dpm.Config{Arch: core.Banyan, Ports: ports, Model: model, CellBits: cell.CellBits, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	r, err := router.New(router.Config{
		Arch:          core.Banyan,
		Fabric:        fabric.Config{Ports: ports, Cell: cell, Model: model},
		Queue:         router.FIFO,
		MaxQueueCells: 2,
		Gate:          mgr,
	})
	if err != nil {
		t.Fatal(err)
	}

	var energyFJ float64
	var covered, dropped uint64
	var act DPMTelemetry
	slotNS := model.Tech.CellTimeNS(cell.CellBits)
	res, err := Run(r, testGen(t, ports, 0.35, 9), model.Tech, cell.CellBits, Options{
		MeasureSlots: slots,
		DPM:          mgr,
		Telemetry: &TelemetryConfig{Every: every, Emit: func(v any) {
			s := v.(*TelemetrySample)
			// mW × ns = pJ = 1e3 fJ.
			energyFJ += (s.DynamicMW + s.StaticMW) * float64(s.Interval) * slotNS * 1e3
			covered += s.Interval
			dropped += s.DroppedCells
			if s.DPM == nil {
				t.Fatalf("slot %d: managed sample without DPM activity", s.Slot)
			}
			act.GatedPortSlots += s.DPM.GatedPortSlots
			act.DrowsySlots += s.DPM.DrowsySlots
			act.StalledSlots += s.DPM.StalledSlots
			act.Transitions += s.DPM.Transitions
			act.WakeEvents += s.DPM.WakeEvents
			act.DVFSShifts += s.DPM.DVFSShifts
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if covered != slots {
		t.Fatalf("samples cover %d slots, want %d", covered, slots)
	}
	d := res.DPM
	if d.DynamicAdjustFJ == 0 || d.TransitionFJ == 0 || d.GatedPortSlots == 0 || res.DroppedCells == 0 {
		t.Fatalf("operating point exercises too little: %+v, %d drops", *d, res.DroppedCells)
	}
	want := res.Energy.TotalFJ() + d.StaticFJ + d.TransitionFJ
	if rel := math.Abs(energyFJ-want) / want; rel > 1e-9 {
		t.Errorf("samples integrate to %g fJ, result holds %g fJ (relative error %g)", energyFJ, want, rel)
	}
	wantAct := DPMTelemetry{
		GatedPortSlots: d.GatedPortSlots,
		DrowsySlots:    d.DrowsySlots,
		StalledSlots:   d.StalledSlots,
		Transitions:    d.Transitions,
		WakeEvents:     d.WakeEvents,
		DVFSShifts:     d.DVFSShifts,
	}
	if act != wantAct {
		t.Errorf("sample DPM counters sum to %+v, report says %+v", act, wantAct)
	}
	if dropped != res.DroppedCells {
		t.Errorf("sample drops sum to %d, result says %d", dropped, res.DroppedCells)
	}
}
