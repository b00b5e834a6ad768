// Network: what traffic engineering buys a backbone of routers.
//
// The DAC 2002 model prices one switch fabric; this walkthrough wires
// six of them into a 2-level fat-tree (2 spines, 4 leaf hosts) and asks
// the network-level question the switch-off routing literature poses:
// at low load, how much power does the network save when flows are
// consolidated onto few routers — so the rest can be idle-gated — versus
// spread over every equal-cost path?
//
// Four pairings run under identical traffic:
//
//   - shortest + alwayson       — the throughput-friendly baseline
//   - shortest + idlegate       — gating alone (idle ports still wake
//     whenever the spread traffic touches them)
//   - consolidate + alwayson    — consolidation alone (no gating, so
//     concentrating flows saves nothing)
//   - consolidate + idlegate    — the pairing: traffic engineering
//     creates idleness, power management monetizes it
//
// Run with:
//
//	go run ./examples/network [-slots 3000]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"fabricpower/internal/exp"
	fpstudy "fabricpower/study"
)

func main() {
	slots := flag.Uint64("slots", 3000, "measured slots per operating point")
	flag.Parse()

	spec := fpstudy.Spec{
		Kind: "net",
		Grid: fpstudy.Grid{
			Base: fpstudy.Scenario{
				Model: fpstudy.ModelSpec{Static: true},
				// Bursty flows: on/off Markov bursts crossing every hop.
				Traffic: fpstudy.TrafficSpec{Kind: "bursty"},
				Sim:     fpstudy.SimSpec{MeasureSlots: *slots, Seed: 1},
				Network: &fpstudy.NetworkSpec{
					Nodes: 4, // leaves; BuildTopology adds 2 spines
					// A sharded kernel: each network steps its routers
					// on one shard per core, one fork-join per slot —
					// the results are bit-identical to a single shard.
					Shards: -1,
				},
			},
			Axes: []fpstudy.Axis{
				{Name: "topology", Strings: []string{"fattree"}},
				{Name: "routing", Strings: []string{"shortest", "consolidate"}},
				{Name: "dpm", Strings: []string{"alwayson", "idlegate"}},
				{Name: "load", Floats: []float64{0.10, 0.30}},
			},
		},
	}

	fmt.Println("Fat-tree backbone (2 spines + 4 leaves) with static power attached")
	fmt.Println()

	rep, err := exp.RunSpecOpts(context.Background(), spec, fpstudy.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	study := rep.(*exp.NetworkStudy)
	if err := study.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	base, _ := study.Point("fattree", "shortest", "alwayson", 0.10)
	gate, _ := study.Point("fattree", "shortest", "idlegate", 0.10)
	green, _ := study.Point("fattree", "consolidate", "idlegate", 0.10)
	baseMW := base.Result.Power.TotalMW()
	gateMW := gate.Result.Power.TotalMW()
	greenMW := green.Result.Power.TotalMW()
	fmt.Println()
	fmt.Printf("At 10%% load the spread-and-always-on network draws %.2f mW.\n", baseMW)
	fmt.Printf("Gating alone reaches %.2f mW (%.0f%% saved): spread traffic keeps waking spine ports.\n",
		gateMW, 100*(1-gateMW/baseMW))
	fmt.Printf("Consolidating first reaches %.2f mW (%.0f%% saved) — one spine carries everything\n",
		greenMW, 100*(1-greenMW/baseMW))
	fmt.Printf("while the other idles its way to the gated floor, at +%.2f slots of latency.\n",
		green.Result.AvgLatencySlots-base.Result.AvgLatencySlots)
}
