package fabric

import (
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/packet"
	"fabricpower/internal/rng"
)

// TestStepAllocationFree pins the per-slot hot path at zero allocations
// for every architecture: after warmup (slot buffers, wave pools and ring
// buffers at steady-state capacity), Offer+Step must never touch the
// allocator. This is the test-enforced twin of the BenchmarkXxxStep
// b.ReportAllocs numbers, so a regression fails CI instead of silently
// showing up in a benchmark nobody ran.
func TestStepAllocationFree(t *testing.T) {
	for _, arch := range core.Architectures() {
		t.Run(arch.String(), func(t *testing.T) {
			const ports = 16
			f, err := New(arch, Config{
				Ports: ports,
				Cell:  packet.Config{CellBits: 256, BusWidth: 32},
				Model: core.PaperModel(),
			})
			if err != nil {
				t.Fatal(err)
			}
			draws := rng.New(1)
			// Fixed cell pool: delivered cells recirculate, so the
			// measured loop injects real traffic without allocating.
			pool := make([]*packet.Cell, 0, 8*ports)
			for i := 0; i < 8*ports; i++ {
				pool = append(pool, &packet.Cell{
					ID:      uint64(i + 1),
					Payload: packet.RandomPayload(draws, 8),
				})
			}
			destBusy := make([]bool, ports)
			slot := uint64(0)
			step := func() {
				for i := range destBusy {
					destBusy[i] = false
				}
				for p := 0; p < ports; p++ {
					if len(pool) == 0 || draws.Intn(2) == 0 {
						continue
					}
					d := draws.Intn(ports)
					if destBusy[d] {
						continue
					}
					c := pool[len(pool)-1]
					c.Src, c.Dest = p, d
					if f.Offer(c) {
						pool = pool[:len(pool)-1]
						destBusy[d] = true
					}
				}
				pool = append(pool, f.Step(slot)...)
				slot++
			}
			// Warmup: grow every reused buffer to steady-state capacity.
			for i := 0; i < 300; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
				t.Errorf("%v: %.1f allocs per slot, want 0", arch, allocs)
			}
		})
	}
}
