package netsim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fabricpower/internal/traffic"
)

// The per-slot arrival steps below are the reference the block
// sources must match: each is the source's decision for one slot, run
// once per slot in ascending order, as the kernel drew them before it
// decided arrivals a block at a time.

func (s *bernoulliSource) inject(uint64) bool { return s.stream.Float64() < s.rate }

func (s *onOffSource) inject(uint64) bool {
	if s.on {
		if s.stream.Float64() < s.pOnToOff {
			s.on = false
		}
	} else if s.stream.Float64() < s.pOffToOn {
		s.on = true
	}
	return s.on
}

func (s *packetSource) inject(uint64) bool {
	if s.queued == 0 && s.stream.Float64() < s.pArrival {
		r := s.stream.Float64()
		acc := 0.0
		s.queued = s.cells[len(s.cells)-1]
		for i, p := range s.probs {
			acc += p
			if r < acc {
				s.queued = s.cells[i]
				break
			}
		}
	}
	if s.queued > 0 {
		s.queued--
		return true
	}
	return false
}

func (s *traceSource) inject(slot uint64) bool {
	t := slot % s.period
	if t == 0 {
		s.pos = 0
	}
	for s.pos < len(s.slots) && s.slots[s.pos] < t {
		s.pos++
	}
	return s.pos < len(s.slots) && s.slots[s.pos] == t
}

// perSlotBlock builds the block starting at first from src's per-slot
// reference step.
func perSlotBlock(tb testing.TB, src FlowSource, first uint64) uint64 {
	var inject func(uint64) bool
	switch s := src.(type) {
	case *bernoulliSource:
		inject = s.inject
	case *onOffSource:
		inject = s.inject
	case *packetSource:
		inject = s.inject
	case *traceSource:
		inject = s.inject
	default:
		tb.Fatalf("no per-slot reference for %T", src)
	}
	var m uint64
	for i := uint64(0); i < BlockSlots; i++ {
		if inject(first + i) {
			m |= 1 << i
		}
	}
	return m
}

var blockKinds = []string{"uniform", "bursty", "packet", "trace"}

// syntheticTrace records slots on two source ports over period slots,
// the last slot always set so the replay period is exactly period.
func syntheticTrace(period uint64, seed int64) *traffic.Trace {
	st := flowStream(seed)
	defer streamPool.Put(st)
	tr := &traffic.Trace{}
	for slot := uint64(0); slot < period; slot++ {
		for port := 0; port < 2; port++ {
			if slot == period-1 || st.Float64() < 0.3 {
				tr.Entries = append(tr.Entries, traffic.TraceEntry{Slot: slot, Src: port})
			}
		}
	}
	return tr
}

// FuzzBlockSourceMatchesPerSlot checks every built-in source's
// NextBlock against its per-slot reference, bit for bit, over many
// consecutive blocks: rates 0 and 1 and everything between, mean
// bursts down to 1, packet trains crossing block boundaries, and trace
// periods that wrap inside a block.
func FuzzBlockSourceMatchesPerSlot(f *testing.F) {
	for ki := range blockKinds {
		for _, rate := range []float64{0, 0.01, 0.3, 0.5, 1} {
			f.Add(uint8(ki), rate, 1.0, int64(ki)+7, uint16(100), uint8(40))
		}
		f.Add(uint8(ki), 0.05, 10.0, int64(-3), uint16(64), uint8(20))
		f.Add(uint8(ki), 0.9, 12.0, int64(1)<<40, uint16(1), uint8(20))
	}
	f.Fuzz(func(t *testing.T, kind uint8, rate, burst float64, seed int64, period uint16, blocks uint8) {
		if math.IsNaN(rate) || math.IsInf(rate, 0) {
			rate = 0.5
		}
		rate = math.Min(math.Abs(rate), 1)
		if math.IsNaN(burst) || math.IsInf(burst, 0) {
			burst = 1
		}
		burst = 1 + math.Mod(math.Abs(burst), 100)
		tr := Traffic{Kind: blockKinds[int(kind)%len(blockKinds)], MeanBurstSlots: burst}
		var idx *traceIndex
		if tr.Kind == "trace" {
			var err error
			if idx, err = indexTrace(syntheticTrace(uint64(period)%500+1, seed)); err != nil {
				t.Fatal(err)
			}
		}
		flow := Flow{Rate: rate}
		build := func() FlowSource {
			src, err := tr.newSource(new(sources), flow, int(seed&1), seed, 1024, idx)
			if err != nil {
				if tr.Kind == "bursty" && rate > burst/(burst+1) {
					t.Skip(err)
				}
				t.Fatal(err)
			}
			return src
		}
		block, ref := build(), build()
		defer recycleStream(block)
		defer recycleStream(ref)
		for k := uint64(0); k < uint64(blocks)+1; k++ {
			first := k * BlockSlots
			if got, want := block.NextBlock(first), perSlotBlock(t, ref, first); got != want {
				t.Fatalf("%s rate %g burst %g seed %d: block %d = %064b, per-slot reference %064b",
					tr.Kind, rate, burst, seed, k, got, want)
			}
		}
	})
}

// TestPacketSourceLoad pins the packet source's realized cell load to
// its flow's rate: packets start only in idle slots, so the arrival
// probability must be thinned by the idle fraction, not divided by the
// mean packet size alone.
func TestPacketSourceLoad(t *testing.T) {
	const blocks = 4 << 20 / BlockSlots
	for _, rate := range []float64{0.05, 0.1, 0.3, 0.6, 0.9} {
		src, err := new(sources).packet(rate, 1024, 3)
		if err != nil {
			t.Fatal(err)
		}
		cells := 0
		for k := uint64(0); k < blocks; k++ {
			m := src.NextBlock(k * BlockSlots)
			for ; m != 0; m &= m - 1 {
				cells++
			}
		}
		recycleStream(src)
		if got := float64(cells) / (blocks * BlockSlots); math.Abs(got-rate) > 0.03*rate {
			t.Errorf("rate %g: realized load %.4f, want within 3%%", rate, got)
		}
	}
}

// TestOnOffSourceRejectsUnreachableRate: a bursty rate above
// meanBurst/(meanBurst+1) would need an OFF→ON probability above 1, so
// the source refuses it instead of silently capping the load; reachable
// rates, and the Bernoulli edges 0 and 1, are realized.
func TestOnOffSourceRejectsUnreachableRate(t *testing.T) {
	cases := []struct {
		rate, burst float64
		bound       string // "" when the rate is reachable
	}{
		{rate: 0.8, burst: 1, bound: "0.5"},
		{rate: 0.95, burst: 10, bound: "0.909"},
		{rate: 0.5, burst: 1},
		{rate: 0.9, burst: 10},
		{rate: 0.2, burst: 12},
		{rate: 1, burst: 1},
		{rate: 0, burst: 1},
	}
	for _, tc := range cases {
		src, err := new(sources).onOff(tc.rate, tc.burst, 11)
		if tc.bound != "" {
			if err == nil {
				recycleStream(src)
				t.Errorf("rate %g burst %g: accepted an unreachable rate", tc.rate, tc.burst)
				continue
			}
			for _, want := range []string{fmt.Sprint(tc.rate), fmt.Sprint(tc.burst), tc.bound} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("rate %g burst %g: error %q does not name %s", tc.rate, tc.burst, err, want)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("rate %g burst %g: %v", tc.rate, tc.burst, err)
			continue
		}
		const blocks = 1 << 16
		cells := 0
		for k := uint64(0); k < blocks; k++ {
			for m := src.NextBlock(k * BlockSlots); m != 0; m &= m - 1 {
				cells++
			}
		}
		recycleStream(src)
		if got := float64(cells) / (blocks * BlockSlots); math.Abs(got-tc.rate) > 0.03*tc.rate {
			t.Errorf("rate %g burst %g: realized load %.4f, want within 3%%", tc.rate, tc.burst, got)
		}
	}
}

// BenchmarkFlowSources is the traffic/netsim-source rung: one block of
// arrivals from each of 2,000 live sources at net-lowload's per-flow
// rate, so the source streams do not fit in cache together and each
// block pays for bringing its stream back, as in the kernel. It reports
// the cost per flow-slot as traffic.generate_ns_per_slot.
func BenchmarkFlowSources(b *testing.B) {
	const flows = 2000
	idx, err := indexTrace(traffic.Record(mustInjector(b), 200))
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range blockKinds {
		b.Run("kind="+kind, func(b *testing.B) {
			tr := Traffic{Kind: kind}
			srcs := make([]FlowSource, flows)
			for fi := range srcs {
				src, err := tr.newSource(new(sources), Flow{Rate: 0.004}, fi, flowSeed(1, fi, saltInject), 1024, idx)
				if err != nil {
					b.Fatal(err)
				}
				srcs[fi] = src
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				first := uint64(i) * BlockSlots
				for _, src := range srcs {
					sinkMask |= src.NextBlock(first)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*flows*BlockSlots), "traffic.generate_ns_per_slot")
			for _, src := range srcs {
				recycleStream(src)
			}
		})
	}
}

var sinkMask uint64
