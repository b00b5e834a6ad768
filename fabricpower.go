// Package fabricpower estimates the power consumption of network-router
// switch fabrics, reproducing Ye, Benini and De Micheli, "Analysis of
// Power Consumption on Switch Fabrics in Network Routers" (DAC 2002).
//
// The library models the energy of every bit moving through a fabric —
// the paper's bit-energy framework — across three components: node
// switches (input-vector indexed look-up tables), internal buffers
// (shared-SRAM access energy paid on interconnect contention), and
// interconnect wires (½·C·V² per polarity flip, with Thompson-grid wire
// lengths). Four architectures are provided: Crossbar, FullyConnected,
// Banyan and BatcherBanyan.
//
// The paper evaluates a fabric two ways, and each has one entry point:
//
//   - Analytic evaluates the paper's closed-form worst-case bit energies
//     (Eqs. 3–6) for an architecture, port count and study.ModelSpec.
//
//   - study.RunScenario runs the bit-accurate slot simulator on one
//     operating point, a study.Scenario: TCP/IP-like traffic through
//     input-buffered ingress queues, an FCFS round-robin arbiter and the
//     selected fabric, returning measured throughput, latency and a
//     per-component power breakdown. The CLI's `run` executes the same
//     scenarios from JSON.
//
// See the examples directory for runnable walkthroughs, README.md for how
// to regenerate every figure (in parallel), and internal/exp for the
// experiment-by-experiment reproduction record.
package fabricpower

import (
	"fabricpower/internal/core"
	"fabricpower/study"
)

// Architecture selects a switch-fabric topology.
type Architecture int

// The four architectures analyzed by the paper.
const (
	Crossbar Architecture = iota
	FullyConnected
	Banyan
	BatcherBanyan
)

// String returns the canonical lower-case name, the fabric.arch of a
// study.Scenario.
func (a Architecture) String() string { return a.core().String() }

func (a Architecture) core() core.Architecture {
	return core.Architecture(a)
}

// Architectures lists all four in paper order.
func Architectures() []Architecture {
	return []Architecture{Crossbar, FullyConnected, Banyan, BatcherBanyan}
}

// BitEnergy is a per-component energy breakdown in femtojoules — the
// same type as study.Result's Energy.
type BitEnergy = study.Energy

// Analytic evaluates the paper's closed-form worst-case bit energy
// (Eqs. 3–6) for one contention-free bit through the architecture under
// the model m (study.PaperModel() for the paper's case study).
func Analytic(a Architecture, ports int, m study.ModelSpec) (BitEnergy, error) {
	model, err := m.Build()
	if err != nil {
		return BitEnergy{}, err
	}
	return model.BitEnergy(a.core(), ports)
}
