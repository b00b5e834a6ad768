package sim

import (
	"reflect"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/fabric"
	"fabricpower/internal/packet"
	"fabricpower/internal/router"
	"fabricpower/internal/tech"
	"fabricpower/internal/traffic"
)

var allArchs = []core.Architecture{core.Crossbar, core.FullyConnected, core.Banyan, core.BatcherBanyan}

func queueRouter(t testing.TB, arch core.Architecture, q router.QueueDiscipline, ports, maxQueue int) *router.Router {
	t.Helper()
	r, err := router.New(router.Config{
		Arch:          arch,
		Fabric:        fabric.Config{Ports: ports, Cell: packet.Config{CellBits: 1024, BusWidth: 32}, Model: core.PaperModel()},
		Queue:         q,
		MaxQueueCells: maxQueue,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunSlotAllocationFreeUnderLoad pins the slot loop of Run at zero
// allocations with injection running: once the generator's cell pool
// and the router's ingress rings are warm, a slot recycles every cell
// it delivers. Each measured run steps 64 slots (~256 cells), so a pool
// carving fresh cells — two allocations per 64 — cannot round away.
// The one allocation left is the chunk the generator carves its
// per-slot slices from: one per 4096 cells, about one per 16 runs.
func TestRunSlotAllocationFreeUnderLoad(t *testing.T) {
	const ports, load = 8, 0.5
	for _, arch := range allArchs {
		for _, q := range []router.QueueDiscipline{router.FIFO, router.VOQ} {
			r := queueRouter(t, arch, q, ports, 0)
			gen := testGen(t, ports, load, 21)
			slot := uint64(0)
			for ; slot < 3000; slot++ {
				runSlot(r, gen, nil, slot)
			}
			allocs := testing.AllocsPerRun(100, func() {
				for end := slot + 64; slot < end; slot++ {
					runSlot(r, gen, nil, slot)
				}
			})
			if allocs != 0 {
				t.Errorf("%v/%v at load %g: %.2f allocs per 64 slots under live traffic, want 0", arch, q, load, allocs)
			}
		}
	}
}

// lifecycleGen wraps an injector and chooses what Release does with a
// cell the kernel is done with.
type lifecycleGen struct {
	*traffic.Injector
	mode string
}

func (g *lifecycleGen) Release(c *packet.Cell) {
	switch g.mode {
	case "recycle":
		g.Injector.Release(c)
	case "poison":
		// Never reused, and scribbled over: any read of a released cell
		// shows up as a different result or a panic.
		for i := range c.Payload {
			c.Payload[i] = 0xdeadbeef ^ uint32(i)
		}
		c.ID, c.Src, c.Dest, c.CreatedSlot = ^uint64(0), -1, -1, ^uint64(0)
	}
}

// TestRunNeverReadsReleasedCells runs every fabric and discipline three
// ways — recycling released cells, never releasing them, and poisoning
// them on release — and demands identical results, so nothing the
// kernel does after a release depends on the released cell. Bounded
// queues make the ingress refuse cells too, the other release point.
func TestRunNeverReadsReleasedCells(t *testing.T) {
	for _, arch := range allArchs {
		for _, q := range []router.QueueDiscipline{router.FIFO, router.VOQ} {
			for _, maxQueue := range []int{0, 2} {
				var results []Result
				for _, mode := range []string{"recycle", "never", "poison"} {
					r := queueRouter(t, arch, q, 8, maxQueue)
					gen := &lifecycleGen{Injector: testGen(t, 8, 0.6, 31), mode: mode}
					res, err := Run(r, gen, tech.Default180nm(), 1024, Options{WarmupSlots: 100, MeasureSlots: 600})
					if err != nil {
						t.Fatal(err)
					}
					results = append(results, res)
				}
				if !reflect.DeepEqual(results[0], results[1]) || !reflect.DeepEqual(results[0], results[2]) {
					t.Errorf("%v/%v max queue %d: recycle, never-release and poison runs differ:\n%+v\n%+v\n%+v",
						arch, q, maxQueue, results[0], results[1], results[2])
				}
			}
		}
	}
}
