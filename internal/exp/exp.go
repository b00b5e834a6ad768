// Package exp contains the experiment runners that regenerate every table
// and figure of the paper's evaluation, plus the accounting ablations.
// Each runner returns a structured result with Render (text report), and
// where applicable CSV, so the CLI, the tests and the benchmarks share
// one implementation.
//
// The paper's studies are data, not code: each is a checked-in spec
// file under paper/ (embedded; PaperSpec looks one up by its
// fabricpower subcommand name), and RunSpecOpts runs any spec as a
// study.Grid on the deterministic sweep engine (results bit-identical
// to a sequential run for any worker count — see internal/sweep),
// then shapes the results into the report struct of the spec's kind.
// `fabricpower <cmd>` is `fabricpower run` on the embedded file, which
// is why `fabricpower <cmd> -print-scenario | fabricpower run -`
// reproduces the subcommand byte for byte.
//
// Experiment index (spec file and study kind, or Go runner):
//
//	Table 1  — paper/table1.json (kind table1): node-switch LUTs,
//	           gate-level recharacterization (RunTable1)
//	Table 2  — RunTable2: Banyan shared-SRAM buffer bit energy
//	§5.1     — TechReport: E_T_bit derivation (87 fJ)
//	Fig. 9   — paper/fig9.json: power vs throughput, 4 architectures × 4 sizes
//	Fig. 10  — paper/fig10.json: power vs ports at 50% throughput
//	Obs. 1   — paper/crossover.json: Banyan's low-load advantage at 32×32
//	§5.2/§6  — paper/saturate.json: input-buffered 58.6% ceiling
//	Point    — paper/simulate.json (kind point): one operating point
//	Ablations — RunBufferAblation, RunFCWireAblation, RunQueueAblation
//	Extension — paper/dpm.json: power-management policies × architectures ×
//	loads with static power attached (internal/dpm)
//	Extension — paper/net.json: topology × routing × DPM policy × load over
//	a network of routers (internal/netsim)
package exp

import (
	"fmt"

	"fabricpower/internal/core"
	"fabricpower/internal/fabric"
	"fabricpower/internal/packet"
	"fabricpower/internal/router"
	"fabricpower/internal/sim"
	"fabricpower/internal/sweep"
	"fabricpower/internal/traffic"
)

// SimParams carries the shared simulation knobs. The zero value uses
// paper-calibrated defaults.
type SimParams struct {
	// WarmupSlots and MeasureSlots bound each run (defaults 300/3000).
	WarmupSlots  uint64
	MeasureSlots uint64
	// Seed makes every experiment deterministic.
	Seed int64
	// CellBits is the fixed cell size (default 1024).
	CellBits int
	// Queue selects the ingress discipline (default FIFO, the paper's).
	Queue router.QueueDiscipline
}

// WithDefaults fills unset fields.
func (p SimParams) WithDefaults() SimParams {
	if p.WarmupSlots == 0 {
		p.WarmupSlots = 300
	}
	if p.MeasureSlots == 0 {
		p.MeasureSlots = 3000
	}
	if p.CellBits == 0 {
		p.CellBits = 1024
	}
	return p
}

// cellConfig returns the packet geometry for the params.
func (p SimParams) cellConfig() packet.Config {
	return packet.Config{CellBits: p.CellBits, BusWidth: 32}
}

// RunPoint simulates one (architecture, ports, offered load) operating
// point and returns the measurement. It is the building block every
// figure runner shares.
func RunPoint(model core.Model, arch core.Architecture, ports int, load float64, p SimParams) (sim.Result, error) {
	p = p.WithDefaults()
	r, err := router.New(router.Config{
		Arch: arch,
		Fabric: fabric.Config{
			Ports: ports,
			Cell:  p.cellConfig(),
			Model: model,
		},
		Queue: p.Queue,
	})
	if err != nil {
		return sim.Result{}, fmt.Errorf("exp: %v %d ports: %w", arch, ports, err)
	}
	gen, err := traffic.NewInjector(ports, load, p.cellConfig(), nil, sweep.PointSeed(p.Seed, ports, load))
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(r, gen, model.Tech, p.CellBits, sim.Options{
		WarmupSlots:  p.WarmupSlots,
		MeasureSlots: p.MeasureSlots,
	})
}

// fmtMW formats a milliwatt value for tables.
func fmtMW(v float64) string { return fmt.Sprintf("%.3f", v) }

// fmtPct formats a fraction as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
