package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"fabricpower/internal/rng"
	"fabricpower/internal/traffic"
)

// The per-slot arrival steps below are the reference the window
// sources must match: each is the source's decision for one slot, run
// once per slot in ascending order. The coin sources' references draw
// Float64 and compare it with the probability: the coin the integer
// compares against rng.Below must reproduce, redraws included.

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

// refStep returns the per-slot reference step of src, a built-in source
// of kind made for a flow at rate with mean burst burst; it steps src's
// own state and stream.
func refStep(tb testing.TB, src FlowSource, kind string, rate, burst float64) func(slot uint64) bool {
	switch s := src.(type) {
	case *coinSource:
		if kind != "bursty" || rate <= 0 || rate >= 1 {
			// Uniform, or bursty at rate 0 or 1: a coin at the rate.
			return func(uint64) bool { return s.stream.Float64() < rate }
		}
		onToOff, offToOn := onOffProbs(rate, burst)
		return func(uint64) bool {
			if s.on {
				if s.stream.Float64() < onToOff {
					s.on = false
				}
			} else if s.stream.Float64() < offToOn {
				s.on = true
			}
			return s.on
		}
	case *packetSource:
		return s.inject
	case *traceSource:
		return s.inject
	}
	tb.Fatalf("no per-slot reference for %T", src)
	return nil
}

// perSlotBlocks decides the len(dst) blocks starting at first with the
// per-slot reference step.
func perSlotBlocks(step func(uint64) bool, first uint64, dst []uint64) {
	for b := range dst {
		var m uint64
		for i := uint64(0); i < BlockSlots; i++ {
			if step(first + uint64(b)*BlockSlots + i) {
				m |= 1 << i
			}
		}
		dst[b] = m
	}
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
// NextBlocks against its per-slot reference, bit for bit, over many
// consecutive blocks cut into windows of two alternating lengths from
// 1 to windowBlocks (the low and high byte of windows), the last one
// cut short where the blocks run out: rates 0 and 1 and everything
// between, mean bursts down to 1, packet trains crossing block and
// window boundaries, and trace periods that wrap inside a block.
func FuzzBlockSourceMatchesPerSlot(f *testing.F) {
	for ki := range blockKinds {
		for _, rate := range []float64{0, 0.01, 0.3, 0.5, 1} {
			f.Add(uint8(ki), rate, 1.0, int64(ki)+7, uint16(100), uint8(40), uint16(0x1f00))
		}
		f.Add(uint8(ki), 0.05, 10.0, int64(-3), uint16(64), uint8(20), uint16(0x0002))
		f.Add(uint8(ki), 0.9, 12.0, int64(1)<<40, uint16(1), uint8(20), uint16(0x0a05))
	}
	f.Fuzz(func(t *testing.T, kind uint8, rate, burst float64, seed int64, period uint16, blocks uint8, windows uint16) {
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
		step := refStep(t, ref, tr.Kind, rate, burst)
		lens := [2]int{1 + int(windows&0xff)%windowBlocks, 1 + int(windows>>8)%windowBlocks}
		got, want := make([]uint64, windowBlocks), make([]uint64, windowBlocks)
		for k, w, left := uint64(0), 0, int(blocks)+1; left > 0; w++ {
			nb := min(lens[w%2], left)
			first := k * BlockSlots
			block.NextBlocks(first, got[:nb])
			perSlotBlocks(step, first, want[:nb])
			for b := 0; b < nb; b++ {
				if got[b] != want[b] {
					t.Fatalf("%s rate %g burst %g seed %d: window %d (%d blocks from block %d), block %d = %064b, per-slot reference %064b",
						tr.Kind, rate, burst, seed, w, nb, k, b, got[b], want[b])
				}
			}
			k += uint64(nb)
			left -= nb
		}
	})
}

// streamRegister exposes st's 607-word register.
func streamRegister(st *rng.Stream) []int64 {
	f := reflect.ValueOf(st).Elem().FieldByName("vec")
	return unsafe.Slice((*int64)(unsafe.Pointer(f.UnsafeAddr())), f.Len())
}

// plantWord changes st's register so that its k-th next word (k = 0
// for the next) is w. Every word the stream draws is a sum of register
// words modulo 2⁶⁴, so word k is linear in each register word; adding
// d to a register word whose coefficient c is odd moves word k by d·c,
// and c is invertible.
func plantWord(tb testing.TB, st *rng.Stream, k int, w uint64) {
	tb.Helper()
	vec := streamRegister(st)
	word := func() uint64 {
		cp := *st
		for i := 0; i < k; i++ {
			cp.Uint64()
		}
		return cp.Uint64()
	}
	base := word()
	for i := range vec {
		vec[i]++
		c := word() - base
		vec[i]--
		if c&1 == 0 {
			continue
		}
		inv := c // Newton's iteration doubles the correct low bits of c⁻¹
		for j := 0; j < 6; j++ {
			inv *= 2 - c*inv
		}
		vec[i] += int64((w - base) * inv)
		if got := word(); got != w {
			tb.Fatalf("planted word %d = %#x, want %#x", k, got, w)
		}
		return
	}
	tb.Fatalf("no register word reaches word %d", k)
}

// TestWindowSourceRedraw plants a word that Float64 redraws (its low 63
// bits round up to 1) at slot 0, at slot 63 and at the last word of a
// whole window, and checks that the bursty and uniform sources match
// their per-slot references bit for bit and leave their streams in the
// same state: the redrawn slot takes the next word, also across the
// end of a window.
func TestWindowSourceRedraw(t *testing.T) {
	const burst = 4
	last := windowBlocks*BlockSlots - 1
	for _, kind := range []string{"uniform", "bursty"} {
		for _, at := range []int{0, 63, last} {
			for _, w := range []uint64{1<<63 - 1, keepBelow, 1<<63 | keepBelow, math.MaxUint64} {
				tr := Traffic{Kind: kind, MeanBurstSlots: burst}
				build := func() FlowSource {
					src, err := tr.newSource(new(sources), Flow{Rate: 0.3}, 0, 5, 1024, nil)
					if err != nil {
						t.Fatal(err)
					}
					return src
				}
				src, ref := build(), build()
				st, refSt := sourceStream(src), sourceStream(ref)
				plantWord(t, st, at, w)
				*refSt = *st
				got, want := make([]uint64, windowBlocks), make([]uint64, windowBlocks)
				src.NextBlocks(0, got)
				perSlotBlocks(refStep(t, ref, kind, 0.3, burst), 0, want)
				for b := range got {
					if got[b] != want[b] {
						t.Errorf("%s, word %#x at slot %d: block %d = %064b, per-slot reference %064b", kind, w, at, b, got[b], want[b])
					}
				}
				if *st != *refSt {
					t.Errorf("%s, word %#x at slot %d: the window left its stream in another state than the per-slot reference", kind, w, at)
				}
				recycleStream(src)
				recycleStream(ref)
			}
		}
	}
}

// TestRunDrawsNoCoinPastItsEnd: Run(300, 3000) decides its 3,300 slots
// in windows that stop at the block holding its last slot, so after it
// every bursty and uniform flow's stream is where the per-slot
// reference leaves it after 52 whole blocks (3,328 slots), with no
// draw beyond.
func TestRunDrawsNoCoinPastItsEnd(t *testing.T) {
	const warmup, measure, slots = 300, 3000, 52 * BlockSlots
	topo, err := FatTree2(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"uniform", "bursty"} {
		cfg := testConfig(topo)
		cfg.Load = 0.2
		cfg.Shards = 2
		cfg.Traffic = Traffic{Kind: kind, MeanBurstSlots: 10}
		net, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(warmup, measure); err != nil {
			t.Fatal(err)
		}
		for fi, f := range net.flows {
			ref, err := cfg.Traffic.newSource(new(sources), f, fi, flowSeed(cfg.Seed, fi, saltInject), cfg.CellBits, nil)
			if err != nil {
				t.Fatal(err)
			}
			step := refStep(t, ref, kind, f.Rate, 10)
			for slot := uint64(0); slot < slots; slot++ {
				step(slot)
			}
			got, want := net.srcs[fi], ref
			if *sourceStream(got) != *sourceStream(want) {
				t.Errorf("%s flow %d: the run left its stream in another state than %d per-slot steps", kind, fi, slots)
			}
			if g := got.(*coinSource); kind == "bursty" && g.on != want.(*coinSource).on {
				t.Errorf("%s flow %d: the run left the source ON=%v, the per-slot reference ON=%v", kind, fi, g.on, !g.on)
			}
			recycleStream(ref)
		}
		net.Close()
	}
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
		cells := windowCells(src, blocks)
		recycleStream(src)
		if got := float64(cells) / (blocks * BlockSlots); math.Abs(got-rate) > 0.03*rate {
			t.Errorf("rate %g: realized load %.4f, want within 3%%", rate, got)
		}
	}
}

// windowCells counts the arrivals src decides over blocks blocks, a
// whole window at a time.
func windowCells(src FlowSource, blocks int) int {
	cells := 0
	win := make([]uint64, windowBlocks)
	for k := 0; k < blocks; k += windowBlocks {
		src.NextBlocks(uint64(k)*BlockSlots, win)
		for _, m := range win {
			cells += bits.OnesCount64(m)
		}
	}
	return cells
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
		cells := windowCells(src, blocks)
		recycleStream(src)
		if got := float64(cells) / (blocks * BlockSlots); math.Abs(got-tc.rate) > 0.03*tc.rate {
			t.Errorf("rate %g burst %g: realized load %.4f, want within 3%%", tc.rate, tc.burst, got)
		}
	}
}

// BenchmarkFlowSources is the traffic/netsim-source rung: one window of
// arrivals from each of 2,000 live sources at net-lowload's per-flow
// rate, so the source streams do not fit in cache together and each
// window pays for bringing its stream back, as in the kernel. Each kind
// runs with 1-block windows (one stream visit per 64 slots) and with
// the kernel's windowBlocks-block windows, so the gap between them is
// what a window saves. It reports the cost per flow-slot as
// traffic.generate_ns_per_slot.
func BenchmarkFlowSources(b *testing.B) {
	const flows = 2000
	idx, err := indexTrace(traffic.Record(mustInjector(b), 200))
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range blockKinds {
		for _, blocks := range []int{1, windowBlocks} {
			b.Run(fmt.Sprintf("kind=%s/blocks=%d", kind, blocks), func(b *testing.B) {
				tr := Traffic{Kind: kind}
				srcs := make([]FlowSource, flows)
				for fi := range srcs {
					src, err := tr.newSource(new(sources), Flow{Rate: 0.004}, fi, flowSeed(1, fi, saltInject), 1024, idx)
					if err != nil {
						b.Fatal(err)
					}
					srcs[fi] = src
				}
				win := make([]uint64, blocks)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					first := uint64(i*blocks) * BlockSlots
					for _, src := range srcs {
						src.NextBlocks(first, win)
						sinkMask |= win[0]
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*flows*blocks*BlockSlots), "traffic.generate_ns_per_slot")
				for _, src := range srcs {
					recycleStream(src)
				}
			})
		}
	}
}

var sinkMask uint64
