package exp

import (
	"context"
	"fmt"
	"io"

	"fabricpower/internal/core"
	"fabricpower/internal/plot"
	"fabricpower/study"
)

// Fig10Point is one bar of Fig. 10.
type Fig10Point struct {
	Arch   core.Architecture
	Ports  int
	Result study.Result
}

// Fig10 holds the power-vs-ports comparison at a fixed 50% traffic
// throughput, including the paper's headline fully-connected vs
// Batcher-Banyan gap.
type Fig10 struct {
	Load   float64
	Sizes  []int
	Points []Fig10Point
}

// fig10FromSpec runs the grid and shapes the results into the figure.
func fig10FromSpec(ctx context.Context, spec study.Spec, opt study.RunOptions) (*Fig10, error) {
	gr, err := spec.Grid.Run(ctx, opt)
	if err != nil {
		return nil, err
	}
	base := spec.Base.Resolved()
	f := &Fig10{
		Load:   base.Traffic.Load,
		Sizes:  axisInts(spec.Axes, "ports", []int{base.Fabric.Ports}),
		Points: make([]Fig10Point, len(gr.Points)),
	}
	for i, pt := range gr.Points {
		arch, err := core.ParseArchitecture(pt.Scenario.Fabric.Arch)
		if err != nil {
			return nil, err
		}
		f.Points[i] = Fig10Point{Arch: arch, Ports: pt.Scenario.Fabric.Ports, Result: pt.Result}
	}
	return f, nil
}

// Power returns the total power for one (arch, ports) bar.
func (f *Fig10) Power(arch core.Architecture, ports int) (float64, bool) {
	for _, pt := range f.Points {
		if pt.Arch == arch && pt.Ports == ports {
			return pt.Result.Power.TotalMW(), true
		}
	}
	return 0, false
}

// FCBatcherGap returns the relative power difference between fully
// connected and Batcher-Banyan at one size: (BB − FC)/BB. The paper
// reports it shrinking from 37% (4×4) to 20% (32×32); this reproduction
// recovers the sign and the monotone narrowing (the magnitudes differ
// because our LUT constants are re-derived, not the paper's silicon).
func (f *Fig10) FCBatcherGap(ports int) (float64, error) {
	fc, ok1 := f.Power(core.FullyConnected, ports)
	bb, ok2 := f.Power(core.BatcherBanyan, ports)
	if !ok1 || !ok2 {
		return 0, fmt.Errorf("exp: missing points for %d ports", ports)
	}
	if bb == 0 {
		return 0, fmt.Errorf("exp: zero Batcher-Banyan power at %d ports", ports)
	}
	return (bb - fc) / bb, nil
}

// Render writes the comparison table, the per-size gap and a chart.
func (f *Fig10) Render(w io.Writer) error {
	t := plot.Table{
		Title:   fmt.Sprintf("Fig. 10 — power vs number of ports at %s throughput", fmtPct(f.Load)),
		Headers: []string{"ports", "crossbar(mW)", "fullyconn(mW)", "banyan(mW)", "batcher(mW)", "FC-vs-BB gap"},
	}
	var gapX, gapY []float64
	for _, n := range f.Sizes {
		row := []string{fmt.Sprintf("%d×%d", n, n)}
		for _, arch := range core.Architectures() {
			if p, ok := f.Power(arch, n); ok {
				row = append(row, fmtMW(p))
			} else {
				row = append(row, "-")
			}
		}
		if gap, err := f.FCBatcherGap(n); err == nil {
			row = append(row, fmtPct(gap))
			gapX = append(gapX, float64(n))
			gapY = append(gapY, gap*100)
		} else {
			row = append(row, "-")
		}
		t.AddRow(row...)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	chart := plot.Chart{
		Title:  "power vs ports (log10 mW)",
		XLabel: "ports",
		YLabel: "power mW",
		LogY:   true,
	}
	for _, arch := range core.Architectures() {
		var xs, ys []float64
		for _, n := range f.Sizes {
			if p, ok := f.Power(arch, n); ok {
				xs = append(xs, float64(n))
				ys = append(ys, p)
			}
		}
		if len(xs) > 0 {
			chart.Series = append(chart.Series, plot.Series{Name: arch.String(), X: xs, Y: ys})
		}
	}
	if err := chart.Render(w); err != nil {
		return err
	}
	if len(gapY) >= 2 {
		fmt.Fprintf(w, "\nFC-vs-Batcher gap: %s at %d×%d -> %s at %d×%d (paper: 37%% -> 20%%)\n",
			fmtPct(gapY[0]/100), f.Sizes[0], f.Sizes[0],
			fmtPct(gapY[len(gapY)-1]/100), f.Sizes[len(f.Sizes)-1], f.Sizes[len(f.Sizes)-1])
	}
	return nil
}

// CSV writes the comparison as a flat table.
func (f *Fig10) CSV(w io.Writer) error {
	headers := []string{"arch", "ports", "throughput", "switch_mw", "buffer_mw", "wire_mw", "total_mw"}
	var rows [][]string
	for _, pt := range f.Points {
		r := pt.Result
		rows = append(rows, []string{
			pt.Arch.String(),
			fmt.Sprintf("%d", pt.Ports),
			fmt.Sprintf("%.5f", r.Throughput),
			fmt.Sprintf("%.5f", r.Power.SwitchMW),
			fmt.Sprintf("%.5f", r.Power.BufferMW),
			fmt.Sprintf("%.5f", r.Power.WireMW),
			fmt.Sprintf("%.5f", r.Power.TotalMW()),
		})
	}
	return plot.WriteCSV(w, headers, rows)
}
