// Archexplore: the architectural design exploration the paper's abstract
// motivates — given a port count and an expected operating load, which
// switch fabric burns the least power? Each candidate is one
// study.Scenario run by study.RunScenario.
//
// Run with:
//
//	go run ./examples/archexplore [-ports 16] [-load 0.4]
package main

import (
	"flag"
	"fmt"
	"log"

	"fabricpower"
	"fabricpower/study"
)

func main() {
	ports := flag.Int("ports", 16, "router port count (power of two)")
	load := flag.Float64("load", 0.4, "expected operating load")
	flag.Parse()

	fmt.Printf("Exploring %d×%d fabrics at %.0f%% load\n\n", *ports, *ports, *load*100)
	fmt.Printf("%-16s %10s %10s %10s %10s %12s\n",
		"architecture", "switch mW", "buffer mW", "wire mW", "total mW", "throughput")

	best := ""
	bestMW := 0.0
	for _, arch := range fabricpower.Architectures() {
		if arch == fabricpower.BatcherBanyan && *ports < 4 {
			continue
		}
		rep, err := study.RunScenario(study.Scenario{
			Fabric:  study.FabricSpec{Arch: arch.String(), Ports: *ports},
			Traffic: study.TrafficSpec{Load: *load},
			Sim:     study.SimSpec{MeasureSlots: 2000, Seed: 1},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %10.3f %10.3f %10.3f %10.3f %11.1f%%\n",
			arch, rep.Power.SwitchMW, rep.Power.BufferMW, rep.Power.WireMW, rep.Power.TotalMW(), rep.Throughput*100)
		if best == "" || rep.Power.TotalMW() < bestMW {
			best = arch.String()
			bestMW = rep.Power.TotalMW()
		}
	}

	fmt.Printf("\nLowest-power choice at this operating point: %s (%.3f mW)\n", best, bestMW)
	fmt.Println("\nSweep the load to see the Banyan's crossover: its contention-free")
	fmt.Println("path is cheap, but every internal buffering event costs a shared-")
	fmt.Println("SRAM access per bit, which dominates as throughput grows (Fig. 9).")
}
