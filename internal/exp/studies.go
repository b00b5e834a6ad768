package exp

import (
	"context"
	"fmt"
	"io"

	"fabricpower/internal/core"
	"fabricpower/internal/fabric"
	"fabricpower/internal/packet"
	"fabricpower/internal/plot"
	"fabricpower/internal/router"
	"fabricpower/internal/sim"
	"fabricpower/internal/traffic"
	"fabricpower/study"
)

// Crossover locates the throughput below which the Banyan is the
// cheapest architecture — §6 observation 1 places it near 35% for 32×32.
type Crossover struct {
	Ports  int
	Loads  []float64
	Winner []core.Architecture // per load
	// BanyanCheapestUpTo is the highest swept load where Banyan wins.
	BanyanCheapestUpTo float64
}

// crossoverFromSpec runs the grid and reduces per-load winners. The
// spec sweeps loads outermost, so each load's architectures are one
// contiguous run of points.
func crossoverFromSpec(ctx context.Context, spec study.Spec, opt study.RunOptions) (*Crossover, error) {
	base := spec.Base.Resolved()
	loads := axisFloats(spec.Axes, "load", []float64{base.Traffic.Load})
	names := axisStrings(spec.Axes, "arch", []string{base.Fabric.Arch})
	archs, err := parseArchs(names)
	if err != nil {
		return nil, err
	}
	// The grid must be loads × archs, arch innermost; check its shape
	// before any point runs.
	points, err := spec.Grid.Enumerate()
	if err != nil {
		return nil, err
	}
	if len(points) != len(loads)*len(archs) {
		return nil, fmt.Errorf("exp: crossover grid shape %d != %d loads × %d archs",
			len(points), len(loads), len(archs))
	}
	for i, sc := range points {
		if sc = sc.Resolved(); sc.Traffic.Load != loads[i/len(archs)] || sc.Fabric.Arch != names[i%len(archs)] {
			return nil, fmt.Errorf("exp: crossover spec must sweep the load axis before the arch axis")
		}
	}
	gr, err := spec.Grid.Run(ctx, opt)
	if err != nil {
		return nil, err
	}
	c := &Crossover{Ports: base.Fabric.Ports, Loads: loads}
	for li, load := range loads {
		best := core.Architecture(-1)
		bestP := 0.0
		for ai, arch := range archs {
			res := gr.Points[li*len(archs)+ai].Result
			if best < 0 || res.Power.TotalMW() < bestP {
				best = arch
				bestP = res.Power.TotalMW()
			}
		}
		c.Winner = append(c.Winner, best)
		if best == core.Banyan {
			c.BanyanCheapestUpTo = load
		}
	}
	return c, nil
}

// Render writes the winner-per-load table.
func (c *Crossover) Render(w io.Writer) error {
	t := plot.Table{
		Title:   fmt.Sprintf("Crossover — cheapest architecture per load, %d×%d", c.Ports, c.Ports),
		Headers: []string{"load", "cheapest"},
	}
	for i, load := range c.Loads {
		t.AddRow(fmtPct(load), c.Winner[i].String())
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nBanyan is cheapest up to %s throughput (paper: below ≈35%% at 32×32)\n",
		fmtPct(c.BanyanCheapestUpTo))
	return err
}

// Saturation measures egress throughput against offered load, exposing
// the input-buffered ceiling (≈58.6% asymptotically, §5.2/§6).
type Saturation struct {
	Ports   int
	Offered []float64
	Egress  []float64
	// Ceiling is the maximum measured throughput.
	Ceiling float64
}

// saturationFromSpec runs the grid and extracts the egress curve.
func saturationFromSpec(ctx context.Context, spec study.Spec, opt study.RunOptions) (*Saturation, error) {
	gr, err := spec.Grid.Run(ctx, opt)
	if err != nil {
		return nil, err
	}
	base := spec.Base.Resolved()
	s := &Saturation{
		Ports:   base.Fabric.Ports,
		Offered: axisFloats(spec.Axes, "load", []float64{base.Traffic.Load}),
	}
	for _, pt := range gr.Points {
		s.Egress = append(s.Egress, pt.Result.Throughput)
		if pt.Result.Throughput > s.Ceiling {
			s.Ceiling = pt.Result.Throughput
		}
	}
	return s, nil
}

// Render writes the saturation curve.
func (s *Saturation) Render(w io.Writer) error {
	t := plot.Table{
		Title:   fmt.Sprintf("Saturation — input-buffered throughput ceiling, %d×%d", s.Ports, s.Ports),
		Headers: []string{"offered", "egress throughput"},
	}
	for i := range s.Offered {
		t.AddRow(fmtPct(s.Offered[i]), fmtPct(s.Egress[i]))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nceiling ≈ %s (theory: 58.6%% as N→∞; finite N sits slightly above)\n", fmtPct(s.Ceiling))
	return err
}

// BufferAblation quantifies the Eq. 1 accounting choice: one combined
// access per buffering event (paper) vs explicit write+read.
type BufferAblation struct {
	Ports     int
	Load      float64
	OneAccess study.Result
	TwoAccess study.Result
}

// runPair runs two variants of one operating point.
func runPair(a, b study.Scenario) (study.Result, study.Result, error) {
	ra, err := study.RunScenario(a)
	if err != nil {
		return study.Result{}, study.Result{}, err
	}
	rb, err := study.RunScenario(b)
	return ra, rb, err
}

// RunBufferAblation runs base's operating point on the Banyan under
// both accounting rules (model.bufferAccesses 1 and 2).
func RunBufferAblation(base study.Scenario) (*BufferAblation, error) {
	one := base.Resolved()
	one.Fabric.Arch = "banyan"
	one.Model.BufferAccesses = 1
	two := one
	two.Model.BufferAccesses = 2
	r1, r2, err := runPair(one, two)
	if err != nil {
		return nil, err
	}
	return &BufferAblation{Ports: one.Fabric.Ports, Load: one.Traffic.Load, OneAccess: r1, TwoAccess: r2}, nil
}

// Render writes the comparison.
func (a *BufferAblation) Render(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"Buffer accounting ablation — %d×%d Banyan at %s load\n"+
			"  1 access/event : buffer %.3f mW, total %.3f mW\n"+
			"  2 accesses     : buffer %.3f mW, total %.3f mW\n"+
			"  buffer power doubles exactly; total grows by the buffer share only.\n",
		a.Ports, a.Ports, fmtPct(a.Load),
		a.OneAccess.Power.BufferMW, a.OneAccess.Power.TotalMW(),
		a.TwoAccess.Power.BufferMW, a.TwoAccess.Power.TotalMW())
	return err
}

// FCWireAblation quantifies the fully-connected wire model choice:
// worst-case ½N² (paper Eq. 4) vs routed-average ¼N².
type FCWireAblation struct {
	Ports int
	Load  float64
	Worst sim.Result
	Avg   sim.Result
}

// RunFCWireAblation runs base's size, load, model and window on the
// fully-connected fabric under both wire models, with uniform traffic
// into the paper's FIFO ingress. Averaged wires are a fabric option,
// not a scenario field, so the ablation builds its own router.
func RunFCWireAblation(base study.Scenario) (*FCWireAblation, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	sc := base.Resolved()
	model, err := sc.Model.Build()
	if err != nil {
		return nil, err
	}
	ports, load := sc.Fabric.Ports, sc.Traffic.Load
	cell := packet.Config{CellBits: sc.Fabric.CellBits, BusWidth: model.Tech.BusWidth}
	run := func(avg bool) (sim.Result, error) {
		r, err := router.New(router.Config{
			Arch: core.FullyConnected,
			Fabric: fabric.Config{
				Ports:          ports,
				Cell:           cell,
				Model:          model,
				FCAverageWires: avg,
			},
		})
		if err != nil {
			return sim.Result{}, err
		}
		gen, err := traffic.NewInjector(ports, load, cell, nil, sc.Sim.Seed+77)
		if err != nil {
			return sim.Result{}, err
		}
		return sim.Run(r, gen, model.Tech, sc.Fabric.CellBits, sim.Options{
			WarmupSlots:  *sc.Sim.WarmupSlots,
			MeasureSlots: sc.Sim.MeasureSlots,
		})
	}
	worst, err := run(false)
	if err != nil {
		return nil, err
	}
	avg, err := run(true)
	if err != nil {
		return nil, err
	}
	return &FCWireAblation{Ports: ports, Load: load, Worst: worst, Avg: avg}, nil
}

// Render writes the comparison.
func (a *FCWireAblation) Render(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"Fully-connected wire-model ablation — %d×%d at %s load\n"+
			"  worst-case ½N² (Eq. 4) : wire %.3f mW, total %.3f mW\n"+
			"  routed average ¼N²     : wire %.3f mW, total %.3f mW\n",
		a.Ports, a.Ports, fmtPct(a.Load),
		a.Worst.Power.WireMW, a.Worst.Power.TotalMW(),
		a.Avg.Power.WireMW, a.Avg.Power.TotalMW())
	return err
}

// QueueAblation compares the paper's FIFO ingress against the VOQ/iSLIP
// extension at saturation.
type QueueAblation struct {
	Ports int
	FIFO  study.Result
	VOQ   study.Result
}

// RunQueueAblation saturates both disciplines (queue fifo and voq) on
// the crossbar at base's size and window.
func RunQueueAblation(base study.Scenario) (*QueueAblation, error) {
	fifo := base.Resolved()
	fifo.Fabric.Arch = "crossbar"
	fifo.Traffic.Load = 1
	fifo.Queue = "fifo"
	voq := fifo
	voq.Queue = "voq"
	rf, rv, err := runPair(fifo, voq)
	if err != nil {
		return nil, err
	}
	return &QueueAblation{Ports: fifo.Fabric.Ports, FIFO: rf, VOQ: rv}, nil
}

// Render writes the comparison.
func (a *QueueAblation) Render(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"Queue-discipline ablation — %d×%d crossbar at 100%% offered load\n"+
			"  FIFO (paper)   : throughput %s, power %.3f mW\n"+
			"  VOQ + iSLIP    : throughput %s, power %.3f mW\n"+
			"  HOL blocking costs throughput, not fabric power per bit.\n",
		a.Ports, a.Ports,
		fmtPct(a.FIFO.Throughput), a.FIFO.Power.TotalMW(),
		fmtPct(a.VOQ.Throughput), a.VOQ.Power.TotalMW())
	return err
}
