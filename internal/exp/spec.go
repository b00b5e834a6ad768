package exp

import (
	"context"
	"embed"
	"fmt"
	"io"

	"fabricpower/internal/core"
	"fabricpower/internal/plot"
	"fabricpower/study"
)

// This file is the bridge between the declarative study layer and the
// paper's reports: the paper's studies are checked-in spec files
// (paper/*.json, looked up by PaperSpec), and RunSpecOpts runs any
// spec and shapes the grid's results into the report struct of its
// kind. `fabricpower <cmd>` is `fabricpower run` on the embedded file,
// so `fabricpower <cmd> -print-scenario | fabricpower run -`
// reproduces the alias byte for byte.

//go:embed paper/*.json
var paperFS embed.FS

// PaperSpec returns the checked-in spec of one of the paper's studies,
// named by its fabricpower subcommand ("fig9", "fig10", "crossover",
// "saturate", "dpm", "net", "simulate", "table1"), verbatim. The files
// are canonical: study.DecodeSpec followed by Spec.Encode reproduces
// them byte for byte.
func PaperSpec(name string) ([]byte, bool) {
	data, err := paperFS.ReadFile("paper/" + name + ".json")
	return data, err == nil
}

// Report is a rendered study outcome.
type Report interface {
	Render(w io.Writer) error
}

// CSVReport is a Report that can also emit a flat CSV table.
type CSVReport interface {
	Report
	CSV(w io.Writer) error
}

// parseArchs converts axis values back to architectures.
func parseArchs(names []string) ([]core.Architecture, error) {
	archs := make([]core.Architecture, len(names))
	for i, n := range names {
		a, err := core.ParseArchitecture(n)
		if err != nil {
			return nil, err
		}
		archs[i] = a
	}
	return archs, nil
}

// axisInts returns the named axis's values, or the fallback when the
// spec does not sweep that axis.
func axisInts(axes []study.Axis, name string, fallback []int) []int {
	for _, a := range axes {
		if a.Name == name && a.Ints != nil {
			return a.Ints
		}
	}
	return fallback
}

// axisFloats is axisInts for float axes.
func axisFloats(axes []study.Axis, name string, fallback []float64) []float64 {
	for _, a := range axes {
		if a.Name == name && a.Floats != nil {
			return a.Floats
		}
	}
	return fallback
}

// axisStrings is axisInts for string axes.
func axisStrings(axes []study.Axis, name string, fallback []string) []string {
	for _, a := range axes {
		if a.Name == name && a.Strings != nil {
			return a.Strings
		}
	}
	return fallback
}

// RunSpecOpts executes a declarative spec and returns the study report
// of its kind: the paper's kinds render their figure or table, an
// empty kind the generic per-point table. Progress callbacks,
// structured events and per-point telemetry in opt flow through to the
// underlying Grid.Run unchanged (single-point kinds — point, table1 —
// run one scenario and emit no grid events). A cancelled ctx aborts
// the grid between points and surfaces ctx's error.
func RunSpecOpts(ctx context.Context, spec study.Spec, opt study.RunOptions) (Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case "fig9":
		return fig9FromSpec(ctx, spec, opt)
	case "fig10":
		return fig10FromSpec(ctx, spec, opt)
	case "crossover":
		return crossoverFromSpec(ctx, spec, opt)
	case "saturate":
		return saturationFromSpec(ctx, spec, opt)
	case "dpm":
		return dpmFromSpec(ctx, spec, opt)
	case "net":
		return netFromSpec(ctx, spec, opt)
	case "point":
		// Run the single point as a degenerate grid so telemetry and
		// progress options apply uniformly.
		gr, err := study.Grid{Base: spec.Base}.Run(ctx, opt)
		if err != nil {
			return nil, err
		}
		if len(gr.Points) != 1 || !gr.Points[0].Done {
			return nil, fmt.Errorf("exp: point spec did not complete")
		}
		return &PointReport{Scenario: spec.Base, Result: gr.Points[0].Result}, nil
	case "table1":
		if spec.Base.Char == nil {
			return nil, fmt.Errorf("exp: table1 spec needs a char block")
		}
		model, err := spec.Base.Model.Build()
		if err != nil {
			return nil, err
		}
		c := spec.Base.Char
		return RunTable1(model, Table1Options{
			Cycles:   c.Cycles,
			BusWidth: c.BusWidth,
			MuxSizes: c.MuxSizes,
			Seed:     c.Seed,
			Workers:  opt.Workers,
			Trace:    opt.Trace,
		})
	case "":
		gr, err := spec.Grid.Run(ctx, opt)
		if err != nil {
			return nil, err
		}
		return &GenericReport{Points: gr.Points}, nil
	}
	return nil, fmt.Errorf("exp: unknown study kind %q", spec.Kind)
}

// PointReport renders a single operating point with the full breakdown
// (the `simulate` subcommand's format).
type PointReport struct {
	Scenario study.Scenario
	Result   study.Result
}

// Render implements Report.
func (p *PointReport) Render(w io.Writer) error {
	res := p.Result
	_, err := fmt.Fprintf(w,
		"%s %d×%d at %.0f%% offered load (%d measured slots)\n"+
			"  throughput     : %.2f%%\n"+
			"  avg latency    : %.2f slots (max %d)\n"+
			"  switch power   : %.4f mW\n"+
			"  buffer power   : %.4f mW (%d buffering events)\n"+
			"  wire power     : %.4f mW\n"+
			"  total power    : %.4f mW\n",
		res.Arch, res.Ports, res.Ports, p.Scenario.Traffic.Load*100, res.Slots,
		res.Throughput*100,
		res.AvgLatencySlots, res.MaxLatencySlots,
		res.Power.SwitchMW,
		res.Power.BufferMW, res.BufferEvents,
		res.Power.WireMW,
		res.Power.TotalMW())
	return err
}

// GenericReport renders a kind-less grid as one flat table — the
// catch-all for ad-hoc scenario files that match no legacy study.
type GenericReport struct {
	Points []study.GridPoint
}

// Render implements Report.
func (g *GenericReport) Render(w io.Writer) error {
	t := plot.Table{
		Title: "Scenario grid",
		Headers: []string{"arch", "ports", "dpm", "topology", "traffic", "load",
			"delivered", "total_mW", "avg_lat"},
	}
	for _, pt := range g.Points {
		if !pt.Done {
			continue
		}
		sc, r := pt.Scenario, pt.Result
		dpmName, topo, delivered := sc.DPM, "-", r.Throughput
		if dpmName == "" {
			dpmName = "-"
		}
		if r.Net != nil {
			topo = r.Net.Topology
			delivered = r.Net.DeliveryRatio
		}
		kind := sc.Traffic.Kind
		if kind == "" {
			kind = "uniform"
		}
		t.AddRow(r.Arch, fmt.Sprintf("%d", r.Ports), dpmName, topo, kind,
			fmtPct(sc.Traffic.Load), fmtPct(delivered),
			fmtMW(r.Power.TotalMW()), fmt.Sprintf("%.2f", r.AvgLatencySlots))
	}
	return t.Render(w)
}
