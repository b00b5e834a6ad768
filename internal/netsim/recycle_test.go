package netsim

import (
	"reflect"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/packet"
	"fabricpower/internal/rng"
	"fabricpower/internal/router"
	"fabricpower/internal/traffic"
)

// TestNetworkLiveTrafficAllocationFree pins the network kernel at zero
// allocations with injection running, sequential and sharded: once the
// shard pools and ingress rings are warm, every injected cell is a
// recycled one. Each measured run steps 64 slots, so a pool that had
// to carve fresh cells (two allocations per 64 cells) cannot round
// away. The one-way case sends every flow from shard 0's hosts to
// shard 1's: shard 1 releases every cell shard 0 injects, so only the
// barrier's pool rebalancing keeps shard 0 from allocating. Every
// built-in traffic kind runs, so each block source is pinned
// allocation-free with injection live.
func TestNetworkLiveTrafficAllocationFree(t *testing.T) {
	kinds := []Traffic{
		{Kind: "uniform"},
		{Kind: "bursty"},
		{Kind: "packet"},
		{Kind: "trace", Trace: traffic.Record(mustInjector(t), 200)},
	}
	cases := []struct {
		name   string
		shards int
		flows  []Flow
		part   []int
	}{
		{name: "shards=1", shards: 1},
		{name: "shards=2", shards: 2},
		// Spines 0-1 and leaves 2-3 on shard 0, leaves 4-5 on shard 1.
		{name: "shards=2/one-way", shards: 2,
			flows: []Flow{{Src: 2, Dst: 4, Rate: 0.3}, {Src: 3, Dst: 5, Rate: 0.3}, {Src: 2, Dst: 5, Rate: 0.3}},
			part:  []int{0, 0, 0, 0, 1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, kind := range kinds {
				t.Run("kind="+kind.Kind, func(t *testing.T) {
					topo, err := FatTree2(2, 4)
					if err != nil {
						t.Fatal(err)
					}
					cfg := testConfig(topo)
					cfg.Load = 0.3
					cfg.Shards = tc.shards
					cfg.flows = tc.flows
					cfg.partition = tc.part
					cfg.Traffic = kind
					net, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer net.Close()
					slot := uint64(0)
					for ; slot < 2000; slot++ {
						net.Step(slot)
					}
					offered := net.offered()
					allocs := testing.AllocsPerRun(100, func() {
						for end := slot + 64; slot < end; slot++ {
							net.Step(slot)
						}
					})
					if allocs != 0 {
						t.Errorf("live traffic allocates %.2f times per 64 slots, want 0", allocs)
					}
					if net.offered() == offered {
						t.Error("no cell was offered while measuring; the pin needs live injection")
					}
				})
			}
		})
	}
}

// TestNetworkNeverReadsReleasedCells runs a faulted network — link and
// router flaps, tight queues so links overflow and ingress refuses —
// with its shard pools recycling, dropping and poisoning released
// cells. The reports must be identical: nothing in the kernel reads a
// cell after releasing it at any of its release points (delivery, link
// overflow, down links, stale paths, flushes, refused injection).
func TestNetworkNeverReadsReleasedCells(t *testing.T) {
	for _, shards := range []int{1, 2} {
		var reps []*Report
		for _, mode := range []packet.Reuse{packet.Recycle, packet.Drop, packet.Poison} {
			topo, err := FatTree2(2, 4)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(topo)
			cfg.Arch = core.Banyan
			cfg.Queue = router.VOQ
			cfg.Model.Static = core.DefaultStaticPower()
			cfg.Policy = "idlegate"
			cfg.Load = 0.9
			cfg.MaxQueueCells = 2
			cfg.LinkQueueCells = 1
			cfg.Shards = shards
			l := topo.Links[0]
			cfg.Faults = &FaultPlan{
				MTBF: 150, MTTR: 40,
				NodeMTBF: 300, NodeMTTR: 30,
				Events: []FaultEvent{
					{Slot: 150, Node: -1, From: l.From, To: l.To, Down: true},
					{Slot: 220, Node: -1, From: l.From, To: l.To, Down: false},
				},
			}
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for w := range net.shards {
				net.shards[w].pool.SetReuse(mode)
			}
			rep, err := net.Run(100, 600)
			net.Close()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Net.Resilience == nil || rep.Net.Resilience.LostCells == 0 || rep.Net.LinkDroppedCells == 0 {
				t.Fatalf("shards=%d: the run exercised too few release points (lost %v, link drops %d)",
					shards, rep.Net.Resilience, rep.Net.LinkDroppedCells)
			}
			reps = append(reps, rep)
		}
		if !reflect.DeepEqual(reps[0], reps[1]) || !reflect.DeepEqual(reps[0], reps[2]) {
			t.Errorf("shards=%d: recycling, dropping and poisoning released cells give different reports", shards)
		}
	}
}

// offered sums the shards' offered-cell counters.
func (n *Network) offered() uint64 {
	var sum uint64
	for w := range n.shards {
		sum += n.shards[w].offered
	}
	return sum
}

// TestPayloadStreamsSeedOnFirstCell pins lazy payload seeding: a flow
// that never sends a cell never seeds its payload stream, a flow that
// does holds a stream, and Close returns only real streams to the pool
// (a typed nil there would come back from Get and panic in Seed).
// That lazy seeding draws exactly the payloads eager seeding drew is
// the scenario goldens' and benchmark digests' job.
func TestPayloadStreamsSeedOnFirstCell(t *testing.T) {
	topo, err := FatTree2(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(topo)
	cfg.flows = []Flow{{Src: 2, Dst: 4, Rate: 0}, {Src: 3, Dst: 5, Rate: 0.3}, {Src: 4, Dst: 2, Rate: 0}}
	for streamPool.Get() != nil {
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(50, 200); err != nil {
		t.Fatal(err)
	}
	for fi, f := range cfg.flows {
		if got, want := net.payload[fi] != nil, f.Rate > 0; got != want {
			t.Errorf("flow %d (rate %v): payload stream seeded = %v, want %v", fi, f.Rate, got, want)
		}
	}
	net.Close()
	for {
		s := streamPool.Get()
		if s == nil {
			break
		}
		if s.(*rng.Stream) == nil {
			t.Fatal("Close put a nil payload stream into the pool")
		}
	}
}
