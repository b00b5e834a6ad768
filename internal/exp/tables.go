package exp

import (
	"fmt"
	"io"

	"fabricpower/internal/circuits"
	"fabricpower/internal/core"
	"fabricpower/internal/energy"
	"fabricpower/internal/gates"
	"fabricpower/internal/plot"
	"fabricpower/internal/sram"
	"fabricpower/internal/sweep"
	"fabricpower/internal/telemetry/trace"
)

// Table1Row compares one LUT entry against the paper.
type Table1Row struct {
	Switch  string
	Vector  string
	PaperFJ float64
	CharFJ  float64
}

// Table1 is the re-characterization of the paper's Table 1: the
// gate-level flow of §5.1 run on our own cell library, calibrated to the
// paper's Banyan [0,1] anchor so relative shapes are comparable.
type Table1 struct {
	// AnchorScale is the single calibration factor applied to every
	// characterized value (paper 1080 fJ / our Banyan [0,1]).
	AnchorScale float64
	Rows        []Table1Row
}

// Table1Options sizes the characterization run.
type Table1Options struct {
	// Cycles per input vector (default 192; Quick sets 48 for tests).
	Cycles int
	// BusWidth of the switch datapaths (default 32, the paper's).
	BusWidth int
	// Seed for payload streams.
	Seed int64
	// MuxSizes lists the N-input MUX variants (default 4,8,16,32).
	MuxSizes []int
	// Workers bounds the parallel characterization of the switch types
	// (0 = one per core). Results are identical for any worker count:
	// each switch characterizes from its own deterministic seed.
	Workers int
	// Trace, when non-nil, receives one "characterize" span per switch
	// type on its "table1" row. Results are identical with or without
	// it.
	Trace *trace.Recorder
}

func (o Table1Options) withDefaults() Table1Options {
	if o.Cycles <= 0 {
		o.Cycles = 192
	}
	if o.BusWidth <= 0 {
		o.BusWidth = 32
	}
	if len(o.MuxSizes) == 0 {
		o.MuxSizes = []int{4, 8, 16, 32}
	}
	return o
}

// RunTable1 regenerates Table 1: build each node-switch netlist, simulate
// it under every input vector with random payload streams, average energy
// per bit, and calibrate the whole set with one anchor factor. The switch
// types characterize in parallel on the sweep engine; every call runs
// the full gate-level simulation of each of them.
func RunTable1(tp core.Model, opt Table1Options) (*Table1, error) {
	opt = opt.withDefaults()
	lib, err := gates.NewLibrary(tp.Tech.GateCapFF, tp.Tech.VDD)
	if err != nil {
		return nil, err
	}
	charOpt := energy.CharOptions{Cycles: opt.Cycles, Seed: opt.Seed}

	// One characterization job per switch type: banyan (the anchor),
	// crosspoint, batcher, then the MUX sizes.
	builders := make([]func() (*circuits.Switch, error), 0, 3+len(opt.MuxSizes))
	builders = append(builders,
		func() (*circuits.Switch, error) { return circuits.BanyanSwitch(lib, opt.BusWidth) },
		func() (*circuits.Switch, error) { return circuits.Crosspoint(lib, opt.BusWidth) },
		func() (*circuits.Switch, error) { return circuits.BatcherSwitch(lib, opt.BusWidth, 5) },
	)
	for _, n := range opt.MuxSizes {
		n := n
		builders = append(builders, func() (*circuits.Switch, error) { return circuits.MuxN(lib, opt.BusWidth, n) })
	}
	tabs, err := sweep.Map(opt.Workers, builders, func(_ int, build func() (*circuits.Switch, error)) (energy.Table, error) {
		sw, err := build()
		if err != nil {
			return nil, err
		}
		var start int64
		if opt.Trace != nil {
			start = opt.Trace.Now()
		}
		tab, err := energy.Characterize(sw, charOpt)
		if opt.Trace != nil {
			opt.Trace.EmitShared(0, "table1", "characterize", start, opt.Trace.Now())
		}
		return tab, err
	})
	if err != nil {
		return nil, err
	}
	bnTab, xpTab, btTab, mxTabs := tabs[0], tabs[1], tabs[2], tabs[3:]

	anchorRaw := bnTab.EnergyFJ(0b01)
	if anchorRaw <= 0 {
		return nil, fmt.Errorf("exp: banyan anchor characterized at %g fJ", anchorRaw)
	}
	scale := energy.PaperBanyan().EnergyFJ(0b01) / anchorRaw

	t1 := &Table1{AnchorScale: scale}
	add := func(name, vec string, paperFJ, charFJ float64) {
		t1.Rows = append(t1.Rows, Table1Row{Switch: name, Vector: vec, PaperFJ: paperFJ, CharFJ: charFJ * scale})
	}

	paperXP := energy.PaperCrosspoint()
	add("crossbar 1x1", "[0]", paperXP.EnergyFJ(0b0), xpTab.EnergyFJ(0b0))
	add("crossbar 1x1", "[1]", paperXP.EnergyFJ(0b1), xpTab.EnergyFJ(0b1))

	paperBN := energy.PaperBanyan()
	for _, v := range []energy.Vector{0b00, 0b01, 0b10, 0b11} {
		add("banyan 2x2", "["+v.String()+"]", paperBN.EnergyFJ(v), bnTab.EnergyFJ(v))
	}

	paperBT := energy.PaperBatcher()
	for _, v := range []energy.Vector{0b00, 0b01, 0b10, 0b11} {
		add("batcher 2x2", "["+v.String()+"]", paperBT.EnergyFJ(v), btTab.EnergyFJ(v))
	}

	for i, n := range opt.MuxSizes {
		paper, err := energy.PaperMuxEnergyFJ(n)
		if err != nil {
			return nil, err
		}
		// Report the single-active-input entry, matching Table 1.
		add(fmt.Sprintf("mux N=%d", n), "[1 active]", paper, mxTabs[i].EnergyFJ(0b1))
	}
	return t1, nil
}

// Entry finds a row by switch name and vector.
func (t *Table1) Entry(name, vec string) (Table1Row, bool) {
	for _, r := range t.Rows {
		if r.Switch == name && r.Vector == vec {
			return r, true
		}
	}
	return Table1Row{}, false
}

// Render writes the paper-vs-characterized comparison.
func (t *Table1) Render(w io.Writer) error {
	tab := plot.Table{
		Title:   "Table 1 — node-switch bit energy under input vectors (fJ)",
		Headers: []string{"switch", "vector", "paper", "characterized", "char/paper"},
	}
	for _, r := range t.Rows {
		ratio := "-"
		if r.PaperFJ > 0 {
			ratio = fmt.Sprintf("%.2f", r.CharFJ/r.PaperFJ)
		}
		tab.AddRow(r.Switch, r.Vector, fmt.Sprintf("%.0f", r.PaperFJ), fmt.Sprintf("%.0f", r.CharFJ), ratio)
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\ncalibration: one global anchor factor %.4g (banyan [0,1] -> 1080 fJ)\n", t.AnchorScale)
	return err
}

// Table2 is the regenerated buffer-energy table.
type Table2 struct {
	Rows []sram.Table2Row
}

// RunTable2 regenerates the paper's Table 2 from the calibrated SRAM
// access model.
func RunTable2(model core.Model) (*Table2, error) {
	rows, err := sram.Table2(model.BufferAccess, []int{2, 3, 4, 5}, model.PerNodeBufferBits)
	if err != nil {
		return nil, err
	}
	return &Table2{Rows: rows}, nil
}

// Render writes Table 2 with the paper's reference values alongside.
func (t *Table2) Render(w io.Writer) error {
	paper := map[int]float64{4: 140, 8: 140, 16: 154, 32: 222}
	tab := plot.Table{
		Title:   "Table 2 — buffer bit energy of N×N Banyan (shared SRAM)",
		Headers: []string{"in/out", "switches", "shared SRAM", "model (pJ)", "paper (pJ)"},
	}
	for _, r := range t.Rows {
		tab.AddRow(
			fmt.Sprintf("%d×%d", r.Ports, r.Ports),
			fmt.Sprintf("%d", r.Switches),
			fmt.Sprintf("%dK", r.SharedKbit),
			fmt.Sprintf("%.0f", r.BitEnergyPJ),
			fmt.Sprintf("%.0f", paper[r.Ports]),
		)
	}
	return tab.Render(w)
}

// TechReport renders the §5.1 E_T_bit derivation.
func TechReport(model core.Model, w io.Writer) error {
	tp := model.Tech
	_, err := fmt.Fprintf(w,
		"Technology: %s\n"+
			"  bus width        : %d bit\n"+
			"  wire pitch       : %.2f um\n"+
			"  Thompson grid    : %.0f um\n"+
			"  wire capacitance : %.2f fF/um -> %.1f fF per grid bit line\n"+
			"  supply           : %.2f V\n"+
			"  E_T_bit          : %.1f fJ (paper: 87 fJ)\n"+
			"  cell time (1Kb)  : %.2f us at %.0f Mbit/s line rate\n",
		tp.Name, tp.BusWidth, tp.WirePitchUM, tp.GridSideUM(),
		tp.WireCapPerUM, tp.WireCapFF(tp.GridSideUM()), tp.VDD, tp.ETBitFJ(),
		tp.CellTimeNS(1024)/1000, tp.LineRateMbps)
	return err
}
