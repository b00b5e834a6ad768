package exp

import (
	"context"
	"fmt"
	"io"

	"fabricpower/internal/core"
	"fabricpower/internal/plot"
	"fabricpower/internal/tech"
	"fabricpower/study"
)

// DPMPoint is one operating point of the power-management study: a
// policy driving one architecture at one offered load.
type DPMPoint struct {
	Policy string
	Arch   core.Architecture
	Ports  int
	Load   float64
	Result study.Result
}

// DPMStudy is the policy × architecture × load grid with the paper-style
// measurement at every point, plus the per-point manager ledgers.
type DPMStudy struct {
	Ports    int
	Policies []string
	Archs    []core.Architecture
	Loads    []float64
	// SlotNS is the cell-slot duration, for converting ledger energies
	// to power.
	SlotNS float64
	Points []DPMPoint
}

// dpmFromSpec runs the grid and shapes the results into the study.
func dpmFromSpec(ctx context.Context, spec study.Spec, opt study.RunOptions) (*DPMStudy, error) {
	gr, err := spec.Grid.Run(ctx, opt)
	if err != nil {
		return nil, err
	}
	base := spec.Base.Resolved()
	archs, err := parseArchs(axisStrings(spec.Axes, "arch", []string{base.Fabric.Arch}))
	if err != nil {
		return nil, err
	}
	model, err := base.Model.Build()
	if err != nil {
		return nil, err
	}
	s := &DPMStudy{
		Ports:    base.Fabric.Ports,
		Policies: axisStrings(spec.Axes, "dpm", []string{base.DPM}),
		Archs:    archs,
		Loads:    axisFloats(spec.Axes, "load", []float64{base.Traffic.Load}),
		SlotNS:   model.Tech.CellTimeNS(base.Fabric.CellBits),
		Points:   make([]DPMPoint, len(gr.Points)),
	}
	for i, pt := range gr.Points {
		arch, err := core.ParseArchitecture(pt.Scenario.Fabric.Arch)
		if err != nil {
			return nil, err
		}
		s.Points[i] = DPMPoint{
			Policy: pt.Scenario.DPM,
			Arch:   arch,
			Ports:  pt.Scenario.Fabric.Ports,
			Load:   pt.Scenario.Traffic.Load,
			Result: pt.Result,
		}
	}
	return s, nil
}

// Point finds one operating point.
func (s *DPMStudy) Point(policy string, arch core.Architecture, load float64) (DPMPoint, bool) {
	for _, pt := range s.Points {
		if pt.Policy == policy && pt.Arch == arch && pt.Load == load {
			return pt, true
		}
	}
	return DPMPoint{}, false
}

// SavedMW converts a point's net ledger saving (DPMReport.SavedFJ)
// into milliwatts over the measured window.
func (s *DPMStudy) SavedMW(r study.Result) float64 {
	if r.DPM == nil || r.Slots == 0 || s.SlotNS <= 0 {
		return 0
	}
	return tech.PowerMW(r.DPM.SavedFJ(), float64(r.Slots)*s.SlotNS)
}

// Render writes one table per architecture: each policy across the load
// sweep with the dynamic/static/total split, the net saving against the
// always-on ledger, and the latency cost relative to the alwayson
// baseline at the same point (wakeup and DVFS stalls surface there).
func (s *DPMStudy) Render(w io.Writer) error {
	for _, arch := range s.Archs {
		t := plot.Table{
			Title: fmt.Sprintf("Power management — %s %d×%d", arch, s.Ports, s.Ports),
			Headers: []string{"policy", "offered", "throughput", "dyn_mW", "static_mW",
				"total_mW", "saved_mW", "avg_lat", "lat_penalty", "gated%", "stall%"},
		}
		rows := 0
		for _, pol := range s.Policies {
			for _, load := range s.Loads {
				pt, ok := s.Point(pol, arch, load)
				if !ok {
					continue
				}
				rows++
				r := pt.Result
				dyn := r.Power.SwitchMW + r.Power.BufferMW + r.Power.WireMW
				penalty := "-"
				if base, ok := s.Point("alwayson", arch, load); ok && pol != "alwayson" {
					penalty = fmt.Sprintf("%+.2f", r.AvgLatencySlots-base.Result.AvgLatencySlots)
				}
				gatedPct, stallPct := 0.0, 0.0
				if d := r.DPM; d != nil && d.Slots > 0 {
					gatedPct = float64(d.GatedPortSlots) / float64(d.Slots*uint64(s.Ports))
					stallPct = float64(d.StalledSlots) / float64(d.Slots)
				}
				saved := s.SavedMW(r)
				t.AddRow(pol, fmtPct(load), fmtPct(r.Throughput),
					fmtMW(dyn), fmtMW(r.Power.StaticMW), fmtMW(r.Power.TotalMW()),
					fmtMW(saved), fmt.Sprintf("%.2f", r.AvgLatencySlots), penalty,
					fmtPct(gatedPct), fmtPct(stallPct))
			}
		}
		if rows == 0 {
			continue
		}
		if err := t.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "saved_mW is net against the always-on static ledger (forgone idle power minus transition cost, plus DVFS dynamic savings); lat_penalty is slots of extra average latency vs the alwayson baseline under identical traffic.")
	return err
}

// CSV writes the study as one flat table.
func (s *DPMStudy) CSV(w io.Writer) error {
	headers := []string{"policy", "arch", "ports", "offered", "throughput", "dyn_mw",
		"static_mw", "total_mw", "saved_mw", "avg_latency_slots", "gated_port_slots",
		"drowsy_slots", "stalled_slots", "transitions", "wake_events"}
	var rows [][]string
	for _, pt := range s.Points {
		r := pt.Result
		var d study.DPMReport
		if r.DPM != nil {
			d = *r.DPM
		}
		rows = append(rows, []string{
			pt.Policy,
			pt.Arch.String(),
			fmt.Sprintf("%d", pt.Ports),
			fmt.Sprintf("%.3f", pt.Load),
			fmt.Sprintf("%.5f", r.Throughput),
			fmt.Sprintf("%.5f", r.Power.SwitchMW+r.Power.BufferMW+r.Power.WireMW),
			fmt.Sprintf("%.5f", r.Power.StaticMW),
			fmt.Sprintf("%.5f", r.Power.TotalMW()),
			fmt.Sprintf("%.5f", s.SavedMW(r)),
			fmt.Sprintf("%.3f", r.AvgLatencySlots),
			fmt.Sprintf("%d", d.GatedPortSlots),
			fmt.Sprintf("%d", d.DrowsySlots),
			fmt.Sprintf("%d", d.StalledSlots),
			fmt.Sprintf("%d", d.Transitions),
			fmt.Sprintf("%d", d.WakeEvents),
		})
	}
	return plot.WriteCSV(w, headers, rows)
}
