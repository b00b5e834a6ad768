package exp

import (
	"context"
	"fmt"
	"io"

	"fabricpower/internal/core"
	"fabricpower/internal/plot"
	"fabricpower/study"
)

// Fig9Point is one simulated operating point of Fig. 9.
type Fig9Point struct {
	Arch    core.Architecture
	Ports   int
	Offered float64
	Result  study.Result
}

// Fig9 holds the full sweep: power consumption under different traffic
// throughput for every architecture and port configuration.
type Fig9 struct {
	Sizes  []int
	Loads  []float64
	Points []Fig9Point
}

// fig9FromSpec runs the grid and shapes the results into the figure.
func fig9FromSpec(ctx context.Context, spec study.Spec, opt study.RunOptions) (*Fig9, error) {
	gr, err := spec.Grid.Run(ctx, opt)
	if err != nil {
		return nil, err
	}
	base := spec.Base.Resolved()
	f := &Fig9{
		Sizes:  axisInts(spec.Axes, "ports", []int{base.Fabric.Ports}),
		Loads:  axisFloats(spec.Axes, "load", []float64{base.Traffic.Load}),
		Points: make([]Fig9Point, len(gr.Points)),
	}
	for i, pt := range gr.Points {
		arch, err := core.ParseArchitecture(pt.Scenario.Fabric.Arch)
		if err != nil {
			return nil, err
		}
		f.Points[i] = Fig9Point{
			Arch:    arch,
			Ports:   pt.Scenario.Fabric.Ports,
			Offered: pt.Scenario.Traffic.Load,
			Result:  pt.Result,
		}
	}
	return f, nil
}

// Series extracts the (measured throughput, total power) curve for one
// architecture and size.
func (f *Fig9) Series(arch core.Architecture, ports int) (x, y []float64) {
	for _, pt := range f.Points {
		if pt.Arch == arch && pt.Ports == ports {
			x = append(x, pt.Result.Throughput)
			y = append(y, pt.Result.Power.TotalMW())
		}
	}
	return x, y
}

// Point finds a specific operating point.
func (f *Fig9) Point(arch core.Architecture, ports int, load float64) (Fig9Point, bool) {
	for _, pt := range f.Points {
		if pt.Arch == arch && pt.Ports == ports && pt.Offered == load {
			return pt, true
		}
	}
	return Fig9Point{}, false
}

// Render writes per-size tables and charts mirroring the four panels of
// Fig. 9.
func (f *Fig9) Render(w io.Writer) error {
	for _, n := range f.Sizes {
		t := plot.Table{
			Title:   fmt.Sprintf("Fig. 9 — power vs throughput, %d×%d", n, n),
			Headers: []string{"arch", "offered", "throughput", "P_switch(mW)", "P_buffer(mW)", "P_wire(mW)", "P_total(mW)", "buffer_events"},
		}
		chart := plot.Chart{
			Title:  fmt.Sprintf("%d×%d power vs throughput", n, n),
			XLabel: "egress throughput",
			YLabel: "power mW",
		}
		for _, arch := range core.Architectures() {
			var xs, ys []float64
			for _, pt := range f.Points {
				if pt.Arch != arch || pt.Ports != n {
					continue
				}
				r := pt.Result
				t.AddRow(arch.String(), fmtPct(pt.Offered), fmtPct(r.Throughput),
					fmtMW(r.Power.SwitchMW), fmtMW(r.Power.BufferMW), fmtMW(r.Power.WireMW),
					fmtMW(r.Power.TotalMW()), fmt.Sprintf("%d", r.BufferEvents))
				xs = append(xs, r.Throughput)
				ys = append(ys, r.Power.TotalMW())
			}
			if len(xs) > 0 {
				chart.Series = append(chart.Series, plot.Series{Name: arch.String(), X: xs, Y: ys})
			}
		}
		if err := t.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := chart.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// CSV writes the sweep as one flat table.
func (f *Fig9) CSV(w io.Writer) error {
	headers := []string{"arch", "ports", "offered", "throughput", "switch_mw", "buffer_mw", "wire_mw", "total_mw", "buffer_events", "avg_latency_slots"}
	var rows [][]string
	for _, pt := range f.Points {
		r := pt.Result
		rows = append(rows, []string{
			pt.Arch.String(),
			fmt.Sprintf("%d", pt.Ports),
			fmt.Sprintf("%.3f", pt.Offered),
			fmt.Sprintf("%.5f", r.Throughput),
			fmt.Sprintf("%.5f", r.Power.SwitchMW),
			fmt.Sprintf("%.5f", r.Power.BufferMW),
			fmt.Sprintf("%.5f", r.Power.WireMW),
			fmt.Sprintf("%.5f", r.Power.TotalMW()),
			fmt.Sprintf("%d", r.BufferEvents),
			fmt.Sprintf("%.3f", r.AvgLatencySlots),
		})
	}
	return plot.WriteCSV(w, headers, rows)
}

// LinearityR2 fits power vs throughput for one curve and returns R² —
// the quantitative form of §6 observation 3.
func (f *Fig9) LinearityR2(arch core.Architecture, ports int) (float64, error) {
	x, y := f.Series(arch, ports)
	_, _, r2, err := plot.LinearFit(x, y)
	return r2, err
}
