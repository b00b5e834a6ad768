// Scenario: every experiment is a value.
//
// The study package makes an operating point — model, fabric, traffic,
// queueing, power management, optionally a whole network — a
// JSON-serializable Scenario, and a sweep over any of its axes a Grid.
// This walkthrough:
//
//  1. runs one scenario,
//  2. sweeps a grid (architecture × load) with a progress callback and
//     a cancellable context, and
//  3. prints the grid as JSON — the exact format `fabricpower run`
//     executes, and what every paper study alias prints under
//     -print-scenario.
//
// Run with:
//
//	go run ./examples/scenario [-slots 800]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"fabricpower/study"
)

func main() {
	slots := flag.Uint64("slots", 800, "measured slots per operating point")
	flag.Parse()

	// 1. One scenario, one result.
	warmup := uint64(150)
	point := study.Scenario{
		Fabric:  study.FabricSpec{Arch: "banyan", Ports: 16},
		Traffic: study.TrafficSpec{Load: 0.3},
		Sim:     study.SimSpec{WarmupSlots: &warmup, MeasureSlots: *slots, Seed: 1},
	}
	res, err := study.RunScenario(point)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("16×16 banyan at 30%% load: %.2f%% throughput, %.3f mW\n\n",
		res.Throughput*100, res.Power.TotalMW())

	// 2. A grid: architecture × load, streamed progress, cancellable.
	grid := study.Grid{
		Base: point,
		Axes: []study.Axis{
			{Name: "arch", Strings: []string{"crossbar", "fullyconnected", "banyan"}},
			{Name: "load", Floats: []float64{0.1, 0.3, 0.5}},
		},
	}
	fmt.Println("arch × load grid (9 points):")
	gr, err := grid.Run(context.Background(), study.RunOptions{
		OnPoint: func(i, total int, sc study.Scenario, r study.Result, _ study.PointInfo) {
			fmt.Printf("  [%d/%d] %-14s load %.0f%%  ->  %8.3f mW\n",
				i+1, total, sc.Fabric.Arch, sc.Traffic.Load*100, r.Power.TotalMW())
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d points, bit-identical for any worker count\n\n", len(gr.Points))

	// 3. The grid as a runnable spec: save it, then
	//    `fabricpower run grid.json` executes exactly this sweep.
	fmt.Println("the same grid as a `fabricpower run` spec:")
	spec := study.Spec{Grid: grid}
	if err := spec.Encode(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
