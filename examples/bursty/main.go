// Bursty: how traffic shape changes fabric power at the same mean load.
//
// The paper's experiments use Bernoulli (memoryless) traffic. Real
// internet traffic is bursty, and burstiness multiplies the coincidence of
// cells inside a multistage fabric — more interconnect contention, more
// buffer energy. This example quantifies that on a 16×16 Banyan: each
// shape is the traffic block of one study.Scenario, run by
// study.RunScenario.
//
// Run with:
//
//	go run ./examples/bursty
package main

import (
	"fmt"
	"log"

	"fabricpower/study"
)

func run(traffic study.TrafficSpec, label string) study.Result {
	traffic.Load = 0.30
	rep, err := study.RunScenario(study.Scenario{
		Fabric:  study.FabricSpec{Arch: "banyan", Ports: 16},
		Traffic: traffic,
		Sim:     study.SimSpec{MeasureSlots: 4000, Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s throughput %5.1f%%  buffer %8.3f mW  total %8.3f mW  events %6d\n",
		label, rep.Throughput*100, rep.Power.BufferMW, rep.Power.TotalMW(), rep.BufferEvents)
	return rep
}

func main() {
	fmt.Println("16×16 Banyan at 30% mean load under different traffic shapes")
	fmt.Println()
	uniform := run(study.TrafficSpec{Kind: "uniform"}, "uniform (paper)")
	short := run(study.TrafficSpec{Kind: "bursty", MeanBurstSlots: 5}, "bursty, 5-slot bursts")
	long := run(study.TrafficSpec{Kind: "bursty", MeanBurstSlots: 20}, "bursty, 20-slot bursts")
	// An unset hotspotFraction selects the default 30% on port 0.
	hot := run(study.TrafficSpec{Kind: "hotspot"}, "30% hotspot")

	fmt.Println()
	fmt.Printf("burstiness penalty: %.1f×/%.1f× buffer power vs uniform (5/20-slot bursts)\n",
		short.Power.BufferMW/uniform.Power.BufferMW, long.Power.BufferMW/uniform.Power.BufferMW)
	fmt.Printf("hotspot penalty   : %.1f× buffer power vs uniform\n",
		hot.Power.BufferMW/uniform.Power.BufferMW)
	fmt.Println()
	fmt.Println("The bit-energy framework makes these effects visible because the")
	fmt.Println("buffer component is traced per contention event, not estimated from")
	fmt.Println("average rates — the paper's argument for dynamic, bit-level tracing.")
}
