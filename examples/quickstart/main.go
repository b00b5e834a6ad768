// Quickstart: estimate the power of one switch fabric operating point.
//
// The point is a study.Scenario — the same value a JSON spec file
// describes for `fabricpower run` — executed by study.RunScenario, and
// fabricpower.Analytic gives the paper's closed-form bound beside it.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"fabricpower"
	"fabricpower/study"
)

func main() {
	// Simulate a 16×16 Banyan fabric at 30% offered load with the
	// paper's 0.18 µm / 3.3 V model and TCP/IP-like uniform traffic.
	// Unset fields keep the scenario defaults (1024-bit cells, 300
	// warm-up and 3000 measured slots); the zero Model is the paper's.
	report, err := study.RunScenario(study.Scenario{
		Fabric:  study.FabricSpec{Arch: "banyan", Ports: 16},
		Traffic: study.TrafficSpec{Load: 0.30},
		Sim:     study.SimSpec{Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("16×16 Banyan at 30% offered load")
	fmt.Printf("  measured throughput : %.1f%%\n", report.Throughput*100)
	fmt.Printf("  average latency     : %.1f cell slots\n", report.AvgLatencySlots)
	fmt.Printf("  switch power        : %.3f mW\n", report.Power.SwitchMW)
	fmt.Printf("  buffer power        : %.3f mW  (%d buffering events)\n",
		report.Power.BufferMW, report.BufferEvents)
	fmt.Printf("  wire power          : %.3f mW\n", report.Power.WireMW)
	fmt.Printf("  total power         : %.3f mW\n", report.Power.TotalMW())
	fmt.Printf("  energy per bit      : %.0f fJ\n", report.EnergyPerBitFJ)

	// Compare with the closed-form worst case of the paper's Eq. 5
	// (contention-free path — the simulation adds the buffer penalty).
	analytic, err := fabricpower.Analytic(fabricpower.Banyan, 16, study.PaperModel())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEq. 5 contention-free bit energy: %.0f fJ (switch %.0f + wire %.0f)\n",
		analytic.TotalFJ(), analytic.SwitchFJ, analytic.WireFJ)
	fmt.Println("The gap between measured and analytic is the buffer penalty —")
	fmt.Println("the paper's central observation about Banyan fabrics under load.")
}
