// Customfabric: adapting the bit-energy model to a different design point.
//
// The paper's constants are a 0.18 µm / 3.3 V case study, and §7 stresses
// that the methodology generalizes. This example re-evaluates a 32×32
// router three ways, each a study.Scenario that differs from the paper's
// only in its model block (a study.ModelSpec) and its queue:
//
//  1. the paper's model as published,
//  2. a constant-field shrink to ~0.13 µm at 1.8 V,
//  3. the per-word reading of the buffer energy plus a VOQ ingress —
//     a "modernized" design with the same fabric topology.
//
// Run with:
//
//	go run ./examples/customfabric
package main

import (
	"fmt"
	"log"

	"fabricpower"
	"fabricpower/study"
)

func evaluate(label string, sc study.Scenario) {
	rep, err := study.RunScenario(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s total %9.3f mW (switch %7.3f, buffer %8.3f, wire %7.3f)  tput %5.1f%%\n",
		label, rep.Power.TotalMW(), rep.Power.SwitchMW, rep.Power.BufferMW, rep.Power.WireMW, rep.Throughput*100)
}

func main() {
	const ports = 32
	const load = 0.40

	fmt.Printf("32×32 Banyan router at %.0f%% load, three design points\n\n", load*100)

	base := study.Scenario{
		Model:   study.PaperModel(),
		Fabric:  study.FabricSpec{Arch: "banyan", Ports: ports},
		Traffic: study.TrafficSpec{Load: load},
		Sim:     study.SimSpec{MeasureSlots: 2000, Seed: 1},
	}
	evaluate("paper model (0.18um, 3.3V)", base)

	// Constant-field shrink: wires and gates scale by 0.72, supply drops
	// to 1.8 V. Wire energy scales by s·sv² ≈ 0.21. Note that only the
	// wire term responds: the switch LUTs and SRAM energies are measured
	// calibration data, not tech-derived; `fabricpower table1` re-runs
	// the gate-level characterization behind the switch LUTs.
	shrunk := study.ModelSpec{TechScale: &study.TechScale{S: 0.72, SV: 0.55}}
	withShrink := base
	withShrink.Model = shrunk
	evaluate("0.13um shrink at 1.8V", withShrink)

	// Modernized accounting and ingress: per-word SRAM access energy and
	// VOQ + iSLIP admission.
	modern := base
	modern.Model = study.PerWordModel()
	modern.Queue = "voq"
	evaluate("per-word buffers + VOQ ingress", modern)

	fmt.Println()
	fmt.Println("The analytic equations follow the same model, so design-space")
	fmt.Println("sweeps can run without simulation where contention is not the")
	fmt.Println("question:")
	for _, arch := range fabricpower.Architectures() {
		be, err := fabricpower.Analytic(arch, ports, shrunk)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-16s Eq. worst-case bit energy at 0.13um: %8.0f fJ\n", arch, be.TotalFJ())
	}
}
