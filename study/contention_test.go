package study

import (
	"fmt"
	"math/bits"
	"testing"
)

// firstOrderBufferRate is the first-order count of bufferings per
// delivered cell in an N-port Banyan under uniform traffic: a cell
// loses the 2×2 node at stage i with probability pᵢ/4, where p₁ is the
// offered load and the stage loads follow Patel's recursion
// pᵢ₊₁ = 1 − (1 − pᵢ/2)² (Patel, IEEE Trans. Computers 1981).
func firstOrderBufferRate(ports int, load float64) float64 {
	rate, p := 0.0, load
	for range bits.Len(uint(ports)) - 1 {
		rate += p / 4
		p = 1 - (1-p/2)*(1-p/2)
	}
	return rate
}

// TestBanyanContentionMatchesFirstOrder uses the analytic rate as an
// oracle for the Banyan's contention mechanics. At loads of 5% and 10%
// blocking is rare, so buffering events per delivered cell, averaged
// over seeds 1–16, must lie within [0.35, 1.0] × the first-order rate
// at 8, 16 and 32 ports. The band was fixed before the test first ran.
//
// The simulated rate sits below the first-order one at every size
// (ratios 0.46–0.81, rising with the port count). One unverified guess
// is that router admission resolves destination contention before the
// fabric (TestDestinationContentionResolvedBeforeFabric), so fewer
// cells meet at the last stages than the recursion assumes.
func TestBanyanContentionMatchesFirstOrder(t *testing.T) {
	const seeds, measure = 16, 3000
	for _, ports := range []int{8, 16, 32} {
		for _, load := range []float64{0.05, 0.10} {
			t.Run(fmt.Sprintf("ports=%d/load=%g", ports, load), func(t *testing.T) {
				var sum float64
				for seed := int64(1); seed <= seeds; seed++ {
					r, err := RunScenario(Scenario{
						Fabric:  FabricSpec{Arch: "banyan", Ports: ports},
						Traffic: TrafficSpec{Kind: "uniform", Load: load},
						Queue:   "fifo",
						Sim:     SimSpec{MeasureSlots: measure, Seed: seed},
					})
					if err != nil {
						t.Fatal(err)
					}
					delivered := r.Throughput * float64(r.Ports) * float64(r.Slots)
					if delivered == 0 {
						t.Fatalf("seed %d delivered nothing", seed)
					}
					sum += float64(r.BufferEvents) / delivered
				}
				got, want := sum/seeds, firstOrderBufferRate(ports, load)
				ratio := got / want
				t.Logf("%.4f bufferings per delivered cell, first order %.4f (ratio %.2f)", got, want, ratio)
				if ratio < 0.35 || ratio > 1.0 {
					t.Errorf("ratio %.2f outside [0.35, 1.0]", ratio)
				}
			})
		}
	}
}
