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

import "fmt"

// fmtMW formats a milliwatt value for tables.
func fmtMW(v float64) string { return fmt.Sprintf("%.3f", v) }

// fmtPct formats a fraction as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
